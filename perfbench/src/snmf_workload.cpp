// snmf-quest: Algorithm 3 (the SNMF attack) through core::run_snmf_attack
// on Table III synthetic data: d = 40, m = n = 80,
// rho in {0.05, 0.2, 0.35}, ANLS, L = 3 restarts, <= 250 iterations,
// several instance seeds per rho. nmf/run (NNLS) carries the time.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/metrics.hpp"
#include "core/snmf_attack.hpp"
#include "metrics.hpp"
#include "scheme/split_encryptor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aspe;

struct SnmfInstance {
  sse::CoaView view;
  std::vector<BitVec> indexes;    // ground truth I_i
  std::vector<BitVec> trapdoors;  // ground truth T_j
  core::SnmfAttackOptions options;
  core::ExecContext ctx;
};

std::vector<SnmfInstance> make_instances(std::uint64_t seed, bool reduced) {
  const std::size_t d = reduced ? 8 : 40;
  const std::size_t m = 2 * d;
  const std::size_t per_rho = reduced ? 1 : 2;
  rng::Rng root(seed ^ 0x5a3fULL);
  std::vector<SnmfInstance> out;
  for (std::size_t rep = 0; rep < per_rho; ++rep) {
    for (double rho : {0.05, 0.20, 0.35}) {
      rng::Rng rng = root.child(out.size());
      scheme::SplitEncryptor enc(d, rng);
      SnmfInstance inst;
      for (std::size_t i = 0; i < m; ++i) {
        inst.indexes.push_back(rng.binary_bernoulli(d, rho));
        inst.view.cipher_indexes.push_back(
            enc.encrypt_index(to_real(inst.indexes.back()), rng));
      }
      // Trapdoors: the paper's 15/d query density, at least 2 keywords.
      const std::size_t q_ones =
          std::max<std::size_t>(2, std::min<std::size_t>(15, d / 4));
      for (std::size_t j = 0; j < m; ++j) {
        inst.trapdoors.push_back(rng.binary_with_k_ones(d, q_ones));
        inst.view.cipher_trapdoors.push_back(
            enc.encrypt_trapdoor(to_real(inst.trapdoors.back()), rng));
      }
      inst.options.rank = d;
      inst.options.restarts = 3;
      inst.options.nmf.max_iterations = reduced ? 40 : 250;
      inst.options.nmf.rel_tol = 1e-7;
      inst.options.nmf.algorithm = nmf::Algorithm::Anls;
      inst.ctx.threads = nproc();
      inst.ctx.seed = rng.engine()();
      out.push_back(std::move(inst));
    }
  }
  return out;
}

bool same_result(const core::SnmfAttackResult& a,
                 const core::SnmfAttackResult& b) {
  return a.indexes == b.indexes && a.trapdoors == b.trapdoors &&
         a.best_fit_error == b.best_fit_error;
}

}  // namespace

void run_snmf_quest(const Args& args, Report& report) {
  std::vector<SnmfInstance> instances;
  const SetupTiming setup =
      timed_setup([&] { instances = make_instances(args.seed, args.reduced); });
  const std::size_t n = instances.size();

  std::vector<std::optional<core::SnmfAttackResult>> first(n);
  std::size_t mismatches = 0;
  const auto record = [&](std::size_t i, core::SnmfAttackResult res) {
    if (!first[i].has_value()) {
      if (args.corrupt == "snmf-trapdoor-bit" && i == 0 &&
          !res.trapdoors.empty() && !res.trapdoors[0].empty()) {
        res.trapdoors[0][0] ^= 1;
      }
      first[i] = std::move(res);
    } else if (!same_result(*first[i], res)) {
      ++mismatches;
    }
  };

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  AttackTimes untraced(n);
  const StealMeter steal;
  timed_cycle(n, phase_s, [&](std::size_t i) {
    record(i, untraced.measure(i, [&] {
      return core::run_snmf_attack(instances[i].view, instances[i].options,
                                   instances[i].ctx);
    }));
  });
  const double steal_frac = steal.frac();

  PrAccumulator trapdoor_pr, data_pr;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& res = *first[i];
    const auto& inst = instances[i];
    const auto perm = core::align_latent_dimensions(
        inst.indexes, inst.trapdoors, res.indexes, res.trapdoors);
    for (std::size_t j = 0; j < inst.trapdoors.size(); ++j) {
      trapdoor_pr.add(inst.trapdoors[j],
                      core::apply_permutation(res.trapdoors[j], perm));
    }
    for (std::size_t j = 0; j < inst.indexes.size(); ++j) {
      data_pr.add(inst.indexes[j],
                  core::apply_permutation(res.indexes[j], perm));
    }
  }
  report.attempts(n, 0);
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " repeated SNMF attacks changed result");
  report.info("attack list: " + std::to_string(n) +
              " SNMF instances, 0 failed (failed_frac 0)");
  report.info("best wall seconds per attack over " +
              std::to_string(untraced.wall.all().size()) + " runs: " +
              join_seconds(untraced.wall.best().values()));
  report.info("best CPU seconds per attack: " +
              join_seconds(untraced.cpu.best().values()));
  report.info("host steal over the timed phase: " +
              std::to_string(100.0 * steal_frac) + "% of CPU time");
  report.info("data_precision " + std::to_string(data_pr.precision()) +
              " data_recall " + std::to_string(data_pr.recall()) + " (n=" +
              std::to_string(data_pr.count()) + " indexes)");

  MetricValues values;
  if (!args.trace) {
    values.set("setup_s", setup.median_s, setup.reps);
    values.set("cpu_s_per_attack", untraced.cpu_per_attack(), n);
    values.set("precision", trapdoor_pr.precision(), trapdoor_pr.count());
    values.set("recall", trapdoor_pr.recall(), trapdoor_pr.count());
    values.set("solved_frac", 1.0, n);
    report.metrics(values);
    return;
  }

  // Traced phase: the public decomposed pipeline under one recording per
  // attack, each stage timed by the benchmark. Its result must equal the
  // one-call attack bit for bit.
  TraceTotals totals;
  AttackTimes traced(n);
  double score_s = 0.0, inits_s = 0.0, restarts_s = 0.0, binarize_s = 0.0;
  double useful = 0.0, restarts_run = 0.0, iterations = 0.0;
  std::size_t traced_attacks = 0;
  timed_cycle(n, phase_s, [&](std::size_t i) {
    const auto& inst = instances[i];
    obs::MemorySink sink;
    obs::Summary summary;
    core::SnmfAttackResult res = traced.measure(i, [&] {
      obs::ScopedRecording recording(&sink);
      Stopwatch stage;
      const linalg::Matrix scores = core::build_score_matrix(
          inst.view.cipher_indexes, inst.view.cipher_trapdoors,
          inst.ctx.threads);
      score_s += stage.seconds();
      stage.reset();
      auto inits = core::draw_snmf_inits(scores, inst.options, inst.ctx);
      inits_s += stage.seconds();
      stage.reset();
      const core::SnmfSelection selection = core::run_snmf_restarts(
          scores, inst.options, std::move(inits), inst.ctx);
      restarts_s += stage.seconds();
      stage.reset();
      auto result = core::binarize_snmf_selection(selection, inst.options);
      binarize_s += stage.seconds();
      iterations += static_cast<double>(selection.nmf_iterations);
      summary = recording.finish();
      return result;
    });
    // Restarts whose final fit is within 2x of the best one.
    double best = -1.0;
    std::vector<double> fits;
    for (const auto& [name, value] : summary.gauges) {
      if (name.rfind("snmf.restart_fit_error.", 0) != 0) continue;
      fits.push_back(value);
      best = best < 0.0 ? value : std::min(best, value);
    }
    for (double f : fits) useful += f <= 2.0 * best ? 1.0 : 0.0;
    restarts_run += static_cast<double>(fits.size());
    totals.add_recording(summary.spans, summary.counters);
    record(i, std::move(res));
    ++traced_attacks;
  });
  report.check(mismatches == 0,
               std::to_string(mismatches) + " traced decomposed SNMF "
               "pipelines differ from run_snmf_attack");

  const double k = 1.0 / static_cast<double>(traced_attacks);
  const double solves = totals.counter("nnls.solves");
  set_wall_metrics(values, untraced);
  values.set("host.steal_frac", steal_frac);
  values.set("setup.corpus_gen_s", setup.median_s, setup.reps);
  values.set("snmf.attack_s", traced.wall.all().sum() * k, traced_attacks);
  values.set("snmf.score_matrix_s", score_s * k);
  values.set("nmf.restarts_s", restarts_s * k);
  values.set("nmf.restart_s_max",
             totals.max_span_seconds_sum("snmf/restart") * k);
  values.set("nmf.anls_iterations", iterations * k);
  values.set("nnls.solves", solves * k);
  values.set("nnls.warm_hit_ratio",
             solves > 0 ? totals.counter("nnls.warm_hits") / solves : 0.0);
  values.set("nmf.useful_restart_ratio",
             restarts_run > 0 ? useful / restarts_run : 0.0);
  values.set("nmf.data_precision", data_pr.precision(), data_pr.count());
  values.set("nmf.data_recall", data_pr.recall(), data_pr.count());
  set_counter_metrics(values, totals, k);
  values.set("obs.overhead_frac",
             (traced.cpu_per_attack() - untraced.cpu_per_attack()) /
                 untraced.cpu_per_attack());
  values.set("trace.layer_coverage",
             (score_s + inits_s + restarts_s + binarize_s) /
                 traced.wall.all().sum());
  report.metrics(values);
}

}  // namespace perfbench
