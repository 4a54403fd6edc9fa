#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace aspe::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide time origin shared by every recording, so a sink receiving
/// several recordings can lay them out on one timeline.
Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t ns_since(Clock::time_point from) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - from)
          .count());
}

/// A timestamped gauge write; flush keeps the latest per name.
struct GaugeWrite {
  double value = 0.0;
  std::uint64_t at_ns = 0;
};

/// One open (not yet completed) span on a thread's stack.
struct OpenSpan {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t start_ns;
};

/// All state a thread accumulates during one recording. Owned by the
/// Recorder; threads hold a cached raw pointer keyed by generation.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<OpenSpan> stack;
  std::map<std::string, double> counters;
  std::map<std::string, GaugeWrite> gauges;
};

struct Recorder {
  Clock::time_point start;
  std::uint64_t epoch_ns = 0;  // start relative to process_epoch()
  std::atomic<std::uint64_t> next_span_id{1};

  std::mutex mu;  // guards `buffers` (registration and final merge)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

std::atomic<Recorder*> g_recorder{nullptr};
// Serializes recording installation (finish() only needs the atomics).
std::mutex g_install_mu;
// Bumped every time a recording is installed; invalidates the thread-local
// buffer cache from earlier recordings. Only an *installed* recording may
// bump it: a passive guard bumping the generation would orphan the open-span
// stacks of the recording already running.
std::atomic<std::uint64_t> g_generation{0};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_buffer_generation = 0;
thread_local std::uint64_t t_inherited_parent = 0;

/// The calling thread's buffer for the active recording, registering one on
/// first use. `r` must be the currently installed recorder.
ThreadBuffer& local_buffer(Recorder& r) {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_buffer_generation != gen) {
    std::lock_guard<std::mutex> lock(r.mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<std::uint32_t>(r.buffers.size());
    t_buffer = buf.get();
    t_buffer_generation = gen;
    r.buffers.push_back(std::move(buf));
  }
  return *t_buffer;
}

Recorder* active_recorder() {
  return g_recorder.load(std::memory_order_acquire);
}

}  // namespace

bool enabled() {
  return g_recorder.load(std::memory_order_relaxed) != nullptr;
}

std::vector<SpanStat> aggregate_spans(const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanStat> by_name;
  for (const SpanRecord& s : spans) {
    SpanStat& stat = by_name[s.name];
    if (stat.name.empty()) stat.name = s.name;
    ++stat.count;
    stat.total_seconds += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  std::vector<SpanStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  std::sort(out.begin(), out.end(), [](const SpanStat& a, const SpanStat& b) {
    if (a.total_seconds != b.total_seconds)
      return a.total_seconds > b.total_seconds;
    return a.name < b.name;
  });
  return out;
}

ScopedRecording::ScopedRecording(Sink* sink) {
  if (sink == nullptr) return;
  if (g_recorder.load(std::memory_order_acquire) != nullptr) {
    return;  // another recording is active — stay passive
  }
  std::lock_guard<std::mutex> lock(g_install_mu);
  if (g_recorder.load(std::memory_order_acquire) != nullptr) {
    return;  // lost the installation race — stay passive
  }
  auto recorder = std::make_unique<Recorder>();
  // Register the installing thread's buffer (tid 0), its open-span stack
  // already allocated and touched, before the clock starts: opening the
  // caller's root span then neither allocates nor page-faults, so no kernel
  // entry (a preemption point) separates the recording's start from it.
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->stack.resize(8);
  buffer->stack.clear();
  t_buffer = buffer.get();
  recorder->buffers.push_back(std::move(buffer));
  // Bump the generation *before* publishing the recorder: the release store
  // below makes the bump visible to any thread that sees the new recorder,
  // so buffers cached from a previous recording are always discarded.
  t_buffer_generation =
      g_generation.fetch_add(1, std::memory_order_release) + 1;
  recorder->epoch_ns = ns_since(process_epoch());
  recorder->start = Clock::now();
  g_recorder.store(recorder.release(),  // owned via g_recorder until finish()
                   std::memory_order_release);
  sink_ = sink;
}

ScopedRecording::~ScopedRecording() { finish(); }

Summary ScopedRecording::finish() {
  Summary summary;
  if (sink_ == nullptr) return summary;
  Sink* sink = sink_;
  sink_ = nullptr;

  // Uninstall first so no new events race the merge. All parallel sections
  // in the instrumented layers join before their recording finishes (the
  // thread pool's run_chunked blocks until every chunk completes), so once
  // the pointer is cleared the buffers are quiescent.
  std::unique_ptr<Recorder> recorder(
      g_recorder.exchange(nullptr, std::memory_order_acq_rel));
  if (recorder == nullptr) return summary;

  summary.epoch_ns = recorder->epoch_ns;
  std::map<std::string, GaugeWrite> gauges;
  {
    std::lock_guard<std::mutex> lock(recorder->mu);
    for (auto& buf : recorder->buffers) {
      for (SpanRecord& s : buf->spans) summary.spans.push_back(std::move(s));
      for (const auto& [name, value] : buf->counters)
        summary.counters[name] += value;
      for (const auto& [name, write] : buf->gauges) {
        auto it = gauges.find(name);
        if (it == gauges.end() || write.at_ns >= it->second.at_ns)
          gauges[name] = write;
      }
    }
  }
  for (const auto& [name, write] : gauges) summary.gauges[name] = write.value;
  std::sort(summary.spans.begin(), summary.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.id < b.id;
            });
  sink->consume(summary);
  return summary;
}

Span::Span(const char* name) : name_(name) {
  Recorder* r = active_recorder();
  if (r == nullptr) return;
  ThreadBuffer& buf = local_buffer(*r);
  OpenSpan open;
  open.name = name;
  open.id = r->next_span_id.fetch_add(1, std::memory_order_relaxed);
  open.parent = buf.stack.empty() ? t_inherited_parent : buf.stack.back().id;
  open.start_ns = ns_since(r->start);
  buf.stack.push_back(open);
  id_ = open.id;
}

Span::~Span() {
  if (id_ == 0) return;
  Recorder* r = active_recorder();
  if (r == nullptr) return;  // recording ended mid-span; drop the record
  ThreadBuffer& buf = local_buffer(*r);
  if (buf.stack.empty() || buf.stack.back().id != id_) return;
  const OpenSpan open = buf.stack.back();
  buf.stack.pop_back();
  SpanRecord rec;
  rec.name = open.name;
  rec.id = open.id;
  rec.parent = open.parent;
  rec.tid = buf.tid;
  rec.start_ns = open.start_ns;
  rec.end_ns = ns_since(r->start);
  buf.spans.push_back(std::move(rec));
}

void counter_add(const char* name, double delta) {
  Recorder* r = active_recorder();
  if (r == nullptr) return;
  local_buffer(*r).counters[name] += delta;
}

void gauge_set(const char* name, double value) {
  Recorder* r = active_recorder();
  if (r == nullptr) return;
  GaugeWrite& write = local_buffer(*r).gauges[name];
  write.value = value;
  write.at_ns = ns_since(r->start);
}

void instant(const char* name) {
  Recorder* r = active_recorder();
  if (r == nullptr) return;
  ThreadBuffer& buf = local_buffer(*r);
  SpanRecord rec;
  rec.name = name;
  rec.id = r->next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = buf.stack.empty() ? t_inherited_parent : buf.stack.back().id;
  rec.tid = buf.tid;
  rec.start_ns = ns_since(r->start);
  rec.end_ns = rec.start_ns;
  buf.spans.push_back(std::move(rec));
}

std::uint64_t current_span_id() {
  Recorder* r = active_recorder();
  if (r == nullptr) return 0;
  ThreadBuffer& buf = local_buffer(*r);
  return buf.stack.empty() ? t_inherited_parent : buf.stack.back().id;
}

InheritedParentScope::InheritedParentScope(std::uint64_t parent_id)
    : saved_(t_inherited_parent) {
  t_inherited_parent = parent_id;
}

InheritedParentScope::~InheritedParentScope() { t_inherited_parent = saved_; }

}  // namespace aspe::obs
