// Metric helpers shared by the workloads. The names and units are listed
// once, in BENCHMARK.json: a measured run prints every end-to-end metric,
// a traced run the per-layer metrics of the layers it exercises, and
// perfbench/run.py fills the others with 0 and rejects a name the file does
// not list.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The wall-clock per-layer metrics of one untraced phase: p50 and p90
/// over attacks of each attack's best wall time, and the attack rate those
/// best times imply.
inline void set_wall_metrics(MetricValues& values, const AttackTimes& times) {
  const Samples best = times.wall.best();
  values.set("wall.attack_s_p50", best.quantile(0.5), best.size());
  values.set("wall.attack_s_p90", best.quantile(0.9), best.size());
  values.set("wall.attacks_per_s",
             best.sum() > 0 ? static_cast<double>(best.size()) / best.sum() : 0,
             best.size());
}

/// The linalg and par counters of a traced phase, per attack (`k` is one
/// over the number of traced attacks).
inline void set_counter_metrics(MetricValues& values, const TraceTotals& t,
                                double k) {
  values.set("linalg.gemm_flops", t.counter("linalg.gemm.flops") * k);
  values.set("linalg.gemm_calls", t.counter("linalg.gemm.calls") * k);
  const double serial = t.counter("par.serial_batches");
  const double batches = serial + t.counter("par.batches");
  values.set("par.serial_batch_ratio", batches > 0 ? serial / batches : 0.0);
  values.set("par.steals", t.counter("par.steals") * k);
}

}  // namespace perfbench
