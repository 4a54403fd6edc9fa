// The four workloads. Each builds its inputs from args.seed, runs its
// attacks through the public entry points, checks every output and fills
// the report: end-to-end metrics in a measured run (args.trace false),
// per-layer metrics in a traced run.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/stopwatch.hpp"
#include "harness.hpp"

namespace perfbench {

/// Set-up is repeated at least 3 times and until 2 s have been spent on it
/// (at most 50 times), and reported as the median repetition.
struct SetupTiming {
  double median_s = 0.0;
  std::size_t reps = 0;
};

/// Time `setup` as above. `reset`, when given, runs untimed before every
/// repetition but the first (the svc workload stops the previous daemon
/// there). The inputs the last repetition leaves behind are the ones the
/// run attacks.
inline SetupTiming timed_setup(const std::function<void()>& setup,
                               const std::function<void()>& reset = {}) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 2.0 && times.size() < 50)) {
    if (reset && !times.empty()) reset();
    aspe::Stopwatch watch;
    setup();
    times.push_back(watch.seconds());
    total += times.back();
  }
  return {median(times), times.size()};
}

void run_mip_quest(const Args& args, Report& report);
void run_mip_enron(const Args& args, Report& report);
void run_snmf_quest(const Args& args, Report& report);
void run_svc_mixed(const Args& args, Report& report);

}  // namespace perfbench
