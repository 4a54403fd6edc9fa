#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "linalg/kernels.hpp"

namespace perfbench {

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

BestTimes::BestTimes(std::size_t attacks)
    : best_(attacks, std::numeric_limits<double>::infinity()) {}

void BestTimes::add(std::size_t attack, double seconds) {
  best_[attack] = std::min(best_[attack], seconds);
  all_.add(seconds);
}

Samples BestTimes::best() const {
  Samples out;
  for (double s : best_) {
    if (std::isfinite(s)) out.add(s);
  }
  return out;
}

std::string join_seconds(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

double median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.add(v);
  return s.quantile(0.5);
}

StealMeter::StealMeter() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return;
  for (double& t : ticks) {
    if (!(stat >> t)) return;
  }
  steal_ = ticks[7];
  for (double t : ticks) total_ += t;
}

double StealMeter::frac() const {
  const StealMeter now;
  const double total = now.total_ - total_;
  return total > 0 ? (now.steal_ - steal_) / total : 0.0;
}

void Report::info(const std::string& line) { info_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::attempts(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print() const {
  for (const auto& line : info_) std::printf("%s\n", line.c_str());
  std::printf("checks: %zu run, %zu failed\n", checks_, failed_checks_);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  const char* sep = "";
  for (const auto& [name, value] : metrics_.value) {
    const auto n = metrics_.samples.find(name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"samples\": %zu}", sep,
                name.c_str(), std::isfinite(value) ? value : 0.0,
                n == metrics_.samples.end() ? std::size_t{0} : n->second);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrAccumulator::add(const aspe::BitVec& truth, const aspe::BitVec& recon) {
  ++count_;
  if (truth.size() != recon.size()) return;  // unusable reconstruction: 0/0
  const auto pr = aspe::core::binary_precision_recall(truth, recon);
  if (pr.precision_valid) precision_sum_ += pr.precision;
  if (pr.recall_valid) recall_sum_ += pr.recall;
}

void PrAccumulator::add_scores(double precision, double recall) {
  ++count_;
  precision_sum_ += precision;
  recall_sum_ += recall;
}

double PrAccumulator::precision() const {
  return count_ == 0 ? 0.0 : precision_sum_ / static_cast<double>(count_);
}

double PrAccumulator::recall() const {
  return count_ == 0 ? 0.0 : recall_sum_ / static_cast<double>(count_);
}

void timed_cycle(std::size_t n, double seconds,
                 const std::function<void(std::size_t)>& attack) {
  const aspe::Stopwatch watch;
  for (std::size_t i = 0; i < n; ++i) attack(i);
  for (std::size_t i = 0; n > 0 && watch.seconds() < seconds; i = (i + 1) % n) {
    attack(i);
  }
}

void TraceTotals::add_recording(
    const std::vector<aspe::obs::SpanRecord>& spans,
    const std::map<std::string, double>& counters) {
  // Children on the span's own thread, grouped by parent id.
  std::map<std::uint64_t, const aspe::obs::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      child_intervals;
  for (const auto& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end() || parent->second->tid != s.tid) continue;
    child_intervals[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> longest;
  for (const auto& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    auto it = child_intervals.find(s.id);
    if (it != child_intervals.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::clamp(lo, s.start_ns, s.end_ns);
        hi = std::clamp(hi, s.start_ns, s.end_ns);
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self_[s.name] += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    total_[s.name] += static_cast<double>(dur) * 1e-9;
    longest[s.name] = std::max(longest[s.name], static_cast<double>(dur) * 1e-9);
  }
  for (const auto& [name, v] : longest) max_sum_[name] += v;
  for (const auto& [name, v] : counters) counters_[name] += v;
}

namespace {
double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

double TraceTotals::self_seconds(const std::string& name) const {
  return lookup(self_, name);
}
double TraceTotals::total_seconds(const std::string& name) const {
  return lookup(total_, name);
}
double TraceTotals::max_span_seconds_sum(const std::string& name) const {
  return lookup(max_sum_, name);
}
double TraceTotals::counter(const std::string& name) const {
  return lookup(counters_, name);
}

void print_environment(const Args& args) {
  std::printf("workload %s seed %llu seconds %.3g trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.reduced ? " (reduced)" : "");
  std::printf("nproc %zu build %s gemm_arch_level %d\n", nproc(),
              PERFBENCH_BUILD_TYPE, aspe::linalg::gemm_dispatch_arch_level());
}

}  // namespace perfbench
