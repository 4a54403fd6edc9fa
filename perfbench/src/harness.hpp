// Shared plumbing of the benchmark binary: arguments, the metric report,
// latency samples, the timed attack loop and span self-time accounting over
// obs::MemorySink recordings.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/sinks.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short loops: the self-tests' fast path.
  bool reduced = false;
  /// Inject one output error so the self-tests can prove the correctness
  /// checks fire: "mip-query-bit", "snmf-trapdoor-bit" or
  /// "svc-response-byte". Empty in every measured run.
  std::string corrupt;
};

/// Thread budget of every in-process attack call: all hardware threads.
[[nodiscard]] std::size_t nproc();

/// User + system CPU seconds consumed so far by every thread of this
/// process. On a shared host the hypervisor can take vCPUs away for
/// seconds at a time; a 4-thread attack's wall time then grows up to
/// fivefold while the CPU time it consumes moves by about a tenth, so the
/// gated time metrics are CPU seconds.
[[nodiscard]] double process_cpu_seconds();

/// Latency samples in seconds.
class Samples {
 public:
  void add(double seconds) { values_.push_back(seconds); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  /// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Times (wall or CPU) of a run that repeats a fixed list of attacks. An
/// attack's time is its best (minimum) over its repeats, which filters
/// stretches when the host runs slow while keeping each input's own cost.
class BestTimes {
 public:
  explicit BestTimes(std::size_t attacks);
  void add(std::size_t attack, double seconds);
  /// One sample per attack that ran: its best time.
  [[nodiscard]] Samples best() const;
  /// Every timed call, in order.
  [[nodiscard]] const Samples& all() const { return all_; }

 private:
  std::vector<double> best_;
  Samples all_;
};

/// Wall and CPU times of a repeated attack list, best of repeats each.
struct AttackTimes {
  explicit AttackTimes(std::size_t attacks) : wall(attacks), cpu(attacks) {}

  /// Run and time one call of attack `i`; returns what `call` returns.
  template <class F>
  auto measure(std::size_t i, F&& call) {
    const double cpu0 = process_cpu_seconds();
    const auto start = std::chrono::steady_clock::now();
    auto result = call();
    wall.add(i, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    cpu.add(i, process_cpu_seconds() - cpu0);
    return result;
  }

  /// Median over attacks of each attack's best CPU seconds. The median,
  /// not the mean: an attack that runs into its wall-clock limit costs as
  /// much CPU as a hundred others, and how much depends on machine load.
  [[nodiscard]] double cpu_per_attack() const {
    return cpu.best().quantile(0.5);
  }

  BestTimes wall;
  BestTimes cpu;
};

/// "0.123 0.456 ..." — per-attack times for the human-readable report.
[[nodiscard]] std::string join_seconds(const std::vector<double>& seconds);

/// Median of a small set of repeated measurements (set-up repetitions).
[[nodiscard]] double median(std::vector<double> values);

/// Share of the host's CPU time the hypervisor took away ("steal" in
/// /proc/stat) between construction and frac(). A run under heavy steal
/// has stretched wall times; the share is printed with every run so such
/// runs can be spotted. 0 where /proc/stat is unreadable.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double frac() const;

 private:
  double steal_ = 0.0;
  double total_ = 0.0;
};

/// Metric values (and optional sample counts) a workload measured, keyed
/// by name. BENCHMARK.json is the list of names and units; perfbench/run.py
/// checks the printed names against it.
struct MetricValues {
  std::map<std::string, double> value;
  std::map<std::string, std::size_t> samples;

  void set(const std::string& name, double v, std::size_t n = 0) {
    value[name] = v;
    if (n > 0) samples[name] = n;
  }
};

/// Collects metrics, correctness checks and attempt counts, then prints
/// them: informational lines, and as the last line one JSON object
/// {"correct", "attempted", "failed", "metrics": {name: {"value",
/// "samples"}}}. perfbench/run.py adds the units from BENCHMARK.json.
class Report {
 public:
  void metrics(const MetricValues& values) { metrics_ = values; }
  /// A free-form informational line, printed before the metrics.
  void info(const std::string& line);
  /// Record a correctness check; a failed check prints its description and
  /// makes the run incorrect.
  void check(bool ok, const std::string& what);
  void attempts(std::size_t attempted, std::size_t failed);

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }
  void print() const;

 private:
  MetricValues metrics_;
  std::vector<std::string> info_;
  std::size_t checks_ = 0;
  std::size_t failed_checks_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Precision/recall accumulator that scores failed attacks and empty
/// reconstructions as 0 (the paper's metrics skip them; a benchmark must
/// not, or failing the hard cases would look like an accuracy gain).
class PrAccumulator {
 public:
  void add(const aspe::BitVec& truth, const aspe::BitVec& recon);
  void add_failure() { ++count_; }
  /// One attack whose precision and recall were computed elsewhere.
  void add_scores(double precision, double recall);
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  double precision_sum_ = 0.0;
  double recall_sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Runs `attack(i)` for i = 0..n-1 in order, repeatedly, until `seconds`
/// have elapsed — and always through at least one full pass, so every
/// attack of the list is scored.
void timed_cycle(std::size_t n, double seconds,
                 const std::function<void(std::size_t)>& attack);

/// Per-layer accounting over many recordings. Each recording must be added
/// separately (span ids are unique only within one recording).
class TraceTotals {
 public:
  void add_recording(const std::vector<aspe::obs::SpanRecord>& spans,
                     const std::map<std::string, double>& counters);

  /// Summed self time of every span with this name: its duration minus the
  /// part covered by its child spans on the same thread.
  [[nodiscard]] double self_seconds(const std::string& name) const;
  /// Summed duration of every span with this name.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Sum over recordings of the longest span with this name.
  [[nodiscard]] double max_span_seconds_sum(const std::string& name) const;
  [[nodiscard]] double counter(const std::string& name) const;

 private:
  std::map<std::string, double> self_;
  std::map<std::string, double> total_;
  std::map<std::string, double> max_sum_;
  std::map<std::string, double> counters_;
};

/// Build type and GEMM kernel level, printed with every result so runs from
/// different machines are not compared by accident.
void print_environment(const Args& args);

}  // namespace perfbench
