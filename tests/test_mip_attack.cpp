#include "core/mip_attack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/metrics.hpp"
#include "data/quest.hpp"
#include "data/queries.hpp"
#include "rng/rng.hpp"

namespace aspe::core {
namespace {

struct Scenario {
  std::vector<BitVec> records;
  BitVec query;
  sse::MrseKpaView view;
  double mu;
  double sigma;
};

Scenario make_scenario(std::size_t d, std::size_t m, double density,
                       double sigma, std::size_t query_ones,
                       std::uint64_t seed) {
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  opt.sigma = sigma;
  opt.mu = 1.0;
  sse::RankedSearchSystem system(opt, seed);
  rng::Rng rng(seed ^ 0x5555);

  Scenario s;
  s.mu = opt.mu;
  s.sigma = sigma;
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = density;
  qopt.num_transactions = m;
  s.records = data::QuestGenerator(qopt, rng.child(1)).generate();
  system.upload_records(s.records);

  s.query = rng.binary_with_k_ones(d, query_ones);
  system.ranked_query(s.query, 5);

  std::vector<std::size_t> all_ids;
  for (std::size_t i = 0; i < m; ++i) all_ids.push_back(i);
  s.view = sse::leak_known_records(system, all_ids);
  return s;
}

MipAttackOptions fast_options() {
  MipAttackOptions opt;
  opt.solver.time_limit_seconds = 15.0;
  return opt;
}

TEST(MipAttack, ReconstructsQueryOnModerateDensity) {
  // d = m = 30, rho = 20%, sigma = 0.5 — the "realistic" regime of Table II
  // at reduced scale. Expect high precision/recall of the found solution.
  const Scenario s = make_scenario(30, 30, 0.20, 0.5, 5, 1);
  const MipAttackResult res =
      run_mip_attack(s.view, 0, s.mu, s.sigma, fast_options());
  ASSERT_TRUE(res.found) << "status=" << static_cast<int>(res.status);
  const auto pr = binary_precision_recall(s.query, res.query);
  EXPECT_GE(pr.precision, 0.6);
  EXPECT_GE(pr.recall, 0.6);
}

TEST(MipAttack, TrueQueryIsAlwaysFeasibleForLargeL) {
  // Feasibility sanity: with l large, the true (rhat, that, Q) satisfies
  // every constraint, so the model must be feasible.
  const Scenario s = make_scenario(20, 20, 0.25, 0.5, 4, 3);
  MipAttackOptions opt = fast_options();
  opt.l = 6.0;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_TRUE(res.found);
}

TEST(MipAttack, SolutionSatisfiesNoiseBand) {
  const Scenario s = make_scenario(24, 24, 0.2, 0.5, 4, 5);
  const MipAttackOptions opt = fast_options();
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.rhat, 0.0);
  EXPECT_GT(res.that, 0.0);
  // Recheck Eq. (14) on the returned point.
  for (const auto& pair : s.view.known_pairs) {
    const double c = scheme::cipher_score(
        pair.cipher, s.view.observed.cipher_trapdoors[0]);
    double pq = 0.0;
    for (std::size_t k = 0; k < res.query.size(); ++k) {
      pq += pair.record[k] && res.query[k] ? 1.0 : 0.0;
    }
    const double noise = res.rhat * c - res.that - pq;
    EXPECT_GE(noise, s.mu - opt.l * s.sigma - 1e-5);
    EXPECT_LE(noise, s.mu + opt.l * s.sigma + 1e-5);
  }
}

TEST(MipAttack, MorePairsImproveAccuracy) {
  // The paper's Figure 2 trend at miniature scale: accuracy grows with m.
  double small_f1 = 0.0, large_f1 = 0.0;
  int small_found = 0, large_found = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const Scenario small = make_scenario(24, 6, 0.25, 0.5, 4, seed);
    const Scenario large = make_scenario(24, 36, 0.25, 0.5, 4, seed);
    const auto rs =
        run_mip_attack(small.view, 0, small.mu, small.sigma, fast_options());
    const auto rl =
        run_mip_attack(large.view, 0, large.mu, large.sigma, fast_options());
    auto f1 = [](const PrecisionRecall& pr) {
      const double p = pr.precision_valid ? pr.precision : 0.0;
      const double r = pr.recall_valid ? pr.recall : 0.0;
      return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
    };
    if (rs.found) {
      small_f1 += f1(binary_precision_recall(small.query, rs.query));
      ++small_found;
    }
    if (rl.found) {
      large_f1 += f1(binary_precision_recall(large.query, rl.query));
      ++large_found;
    }
  }
  ASSERT_GT(large_found, 0);
  if (small_found > 0) {
    EXPECT_GE(large_f1 / large_found, small_f1 / small_found - 0.15);
  }
}

TEST(MipAttack, InfeasibleWhenBandTooTight) {
  // l -> 0 shrinks the noise band to a point; the model should be infeasible
  // (or at least find nothing) because actual noises are spread out.
  const Scenario s = make_scenario(16, 16, 0.3, 0.5, 3, 21);
  MipAttackOptions opt = fast_options();
  opt.l = 1e-6;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_FALSE(res.found);
}

TEST(MipAttack, ModelShape) {
  const Scenario s = make_scenario(10, 7, 0.3, 0.5, 2, 23);
  const opt::Model model = build_mip_attack_model(
      s.view.known_pairs, s.view.observed.cipher_trapdoors[0], s.mu, s.sigma,
      MipAttackOptions{});
  // 2 continuous + d binaries; 1 cardinality row + 2 rows per pair.
  EXPECT_EQ(model.num_variables(), 2u + 10u);
  EXPECT_EQ(model.num_constraints(), 1u + 2u * 7u);
  EXPECT_TRUE(model.has_integer_variables());
}

// The three-pass regression of a_i + mu on c_i: the oracle the closed-form
// flip scorer must reproduce. Also returns the unclamped slope and intercept
// so tests can show which clamp binds.
struct RegressionFit {
  double slope = 0.0;      // Sxy / Sxx before rhat's clamp
  double intercept = 0.0;  // rhat * cbar - bbar before that's clamp
  double sse = 0.0;
};

RegressionFit regression(const Vec& c, const Vec& a, double mu,
                         const MipAttackOptions& options) {
  const std::size_t n = c.size();
  double cbar = 0.0, bbar = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cbar += c[i];
    bbar += a[i] + mu;
  }
  cbar /= static_cast<double>(n);
  bbar /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (c[i] - cbar) * (a[i] + mu - bbar);
    sxx += (c[i] - cbar) * (c[i] - cbar);
  }
  RegressionFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : options.rhat_min;
  const double rhat =
      std::clamp(fit.slope, options.rhat_min, options.rhat_max);
  fit.intercept = rhat * cbar - bbar;
  const double that =
      std::clamp(fit.intercept, options.that_min, options.that_max);
  for (std::size_t i = 0; i < n; ++i) {
    const double e = rhat * c[i] - that - (a[i] + mu);
    fit.sse += e * e;
  }
  return fit;
}

Vec inner_products(const std::vector<sse::KnownBinaryPair>& pairs,
                   const BitVec& q) {
  Vec a(pairs.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t k = 0; k < q.size(); ++k) {
      a[i] += (pairs[i].record[k] != 0 && q[k] != 0) ? 1.0 : 0.0;
    }
  }
  return a;
}

/// Checks the scorer's current SSE and every single-bit flip score against
/// the oracle run on the explicitly flipped vector.
void expect_scores_match_oracle(const detail::FlipScorer& scorer,
                                const std::vector<sse::KnownBinaryPair>& pairs,
                                const Vec& c, double mu,
                                const MipAttackOptions& options) {
  const BitVec& q = scorer.query();
  const double here = regression(c, inner_products(pairs, q), mu, options).sse;
  EXPECT_NEAR(scorer.sse(), here, 1e-9 * std::abs(here));
  for (std::size_t k = 0; k < q.size(); ++k) {
    BitVec flipped = q;
    flipped[k] ^= 1;
    const double want =
        regression(c, inner_products(pairs, flipped), mu, options).sse;
    EXPECT_NEAR(scorer.flip_sse(k), want, 1e-9 * std::abs(want)) << "k=" << k;
  }
}

/// Seeded random instance: records of the given density, a random start
/// query, and scores c_i = scale * (P_i.q_true + noise) + offset.
struct FlipInstance {
  std::vector<sse::KnownBinaryPair> pairs;
  BitVec start;
  Vec c;
};

FlipInstance make_flip_instance(std::size_t d, std::size_t m, double scale,
                                double offset, std::uint64_t seed) {
  rng::Rng rng(seed);
  FlipInstance inst;
  const BitVec truth = rng.binary_with_k_ones(d, d / 4 + 1);
  inst.start = rng.binary_with_k_ones(d, d / 3 + 1);
  for (std::size_t i = 0; i < m; ++i) {
    sse::KnownBinaryPair pair;
    pair.record = rng.binary_bernoulli(d, 0.3);
    inst.pairs.push_back(std::move(pair));
  }
  const Vec a = inner_products(inst.pairs, truth);
  for (std::size_t i = 0; i < m; ++i) {
    inst.c.push_back(scale * (a[i] + rng.normal(1.0, 0.5)) + offset);
  }
  return inst;
}

/// The start query's unclamped regression (which clamps bind).
RegressionFit start_fit(const FlipInstance& inst, double mu,
                        const MipAttackOptions& options) {
  return regression(inst.c, inner_products(inst.pairs, inst.start), mu,
                    options);
}

/// Scores every flip at the start query, then walks a seeded sequence of
/// flips (updating the incremental state) and re-checks after each one.
void check_scorer_against_oracle(const FlipInstance& inst, double mu,
                                 const MipAttackOptions& options,
                                 std::uint64_t seed) {
  const detail::RecordIncidence incidence(inst.pairs);
  detail::FlipScorer scorer(incidence, inst.c, mu, options);
  scorer.reset(inst.start);
  expect_scores_match_oracle(scorer, inst.pairs, inst.c, mu, options);
  rng::Rng rng(seed);
  for (int step = 0; step < 6; ++step) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(inst.start.size()) - 1));
    if (scorer.query()[k] != 0 && scorer.ones() == 1) continue;
    scorer.flip(k);
    EXPECT_EQ(scorer.ones(), popcount(scorer.query()));
    expect_scores_match_oracle(scorer, inst.pairs, inst.c, mu, options);
  }
}

TEST(MipFlipScorer, MatchesRegressionOracleOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FlipInstance inst =
        make_flip_instance(12 + 3 * seed, 20 + 5 * seed, 0.8, 0.3, seed);
    check_scorer_against_oracle(inst, 1.0, MipAttackOptions{}, seed + 100);
  }
}

TEST(MipFlipScorer, MatchesOracleWhenRhatClampBinds) {
  // Scores anti-correlated with the inner products push the slope below
  // rhat_min; a steep scale pushes it above a tight rhat_max.
  MipAttackOptions low;
  low.rhat_min = 0.5;
  const FlipInstance anti = make_flip_instance(16, 30, -2.0, 40.0, 7);
  EXPECT_LT(start_fit(anti, 1.0, low).slope, low.rhat_min);
  check_scorer_against_oracle(anti, 1.0, low, 70);

  MipAttackOptions high;
  high.rhat_max = 0.1;
  const FlipInstance steep = make_flip_instance(16, 30, 0.5, 0.0, 8);
  EXPECT_GT(start_fit(steep, 1.0, high).slope, high.rhat_max);
  check_scorer_against_oracle(steep, 1.0, high, 80);
}

TEST(MipFlipScorer, MatchesOracleWhenThatClampBinds) {
  // A large mu drives rhat * cbar - bbar below that_min; a tight that_max
  // with a large score offset caps it from above.
  const MipAttackOptions defaults;
  const FlipInstance inst = make_flip_instance(18, 32, 1.0, 0.0, 9);
  EXPECT_LT(start_fit(inst, 50.0, defaults).intercept, defaults.that_min);
  check_scorer_against_oracle(inst, 50.0, defaults, 90);

  MipAttackOptions capped;
  capped.that_max = 0.5;
  const FlipInstance shifted = make_flip_instance(18, 32, 1.0, 30.0, 10);
  EXPECT_GT(start_fit(shifted, 1.0, capped).intercept, capped.that_max);
  check_scorer_against_oracle(shifted, 1.0, capped, 100);
}

TEST(MipFlipScorer, MatchesOracleWhenScoresAreConstant) {
  // Sxx = 0: rhat falls back to rhat_min and only the a-terms remain.
  FlipInstance inst = make_flip_instance(14, 25, 1.0, 0.0, 11);
  for (double& ci : inst.c) ci = 2.0;
  check_scorer_against_oracle(inst, 1.0, MipAttackOptions{}, 110);
}

TEST(MipAttack, BranchAndBoundWarmStateMatchesCold) {
  // Branch and bound alone on an LP-root-sized instance (m <= 300), run with
  // no warm state, with a fresh state (which the run exports into), and with
  // that state attached again: all three must agree bit for bit.
  const Scenario s = make_scenario(20, 20, 0.25, 0.5, 3, 29);
  MipAttackOptions opt = fast_options();
  opt.use_heuristic = false;
  const auto run = [&](MipWarmState* warm) {
    return run_mip_attack(s.view.known_pairs,
                          s.view.observed.cipher_trapdoors[0], s.mu, s.sigma,
                          opt, ExecContext{}, warm);
  };
  const MipAttackResult cold = run(nullptr);
  MipWarmState state;
  const MipAttackResult exported = run(&state);
  const MipAttackResult attached = run(&state);
  EXPECT_NE(state.model_digest, 0u);
  EXPECT_GT(cold.telemetry.counter("mip.bnb.nodes"), 0.0);
  for (const MipAttackResult* r : {&exported, &attached}) {
    EXPECT_EQ(r->status, cold.status);
    EXPECT_EQ(r->found, cold.found);
    EXPECT_EQ(r->query, cold.query);
    EXPECT_EQ(r->rhat, cold.rhat);
    EXPECT_EQ(r->that, cold.that);
    EXPECT_EQ(r->telemetry.counter("mip.bnb.nodes"),
              cold.telemetry.counter("mip.bnb.nodes"));
  }
}

TEST(MipAttack, Validation) {
  EXPECT_THROW(
      build_mip_attack_model({}, scheme::CipherPair{}, 1.0, 0.5,
                             MipAttackOptions{}),
      InvalidArgument);
  const Scenario s = make_scenario(8, 5, 0.3, 0.5, 2, 25);
  EXPECT_THROW(run_mip_attack(s.view, 9, s.mu, s.sigma, MipAttackOptions{}),
               InvalidArgument);  // trapdoor id out of range
}

}  // namespace
}  // namespace aspe::core
