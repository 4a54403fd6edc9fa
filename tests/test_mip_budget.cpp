// NodeLimit / TimeLimit interaction tests: reported MipStatus, incumbent
// validity when a budget truncates the search, telemetry counters, and
// budgets tripping mid-dive — at 1 and 8 threads for the attack driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stopwatch.hpp"
#include "core/mip_attack.hpp"
#include "data/quest.hpp"
#include "opt/mip.hpp"
#include "rng/rng.hpp"

namespace aspe::opt {
namespace {

/// Hard pure-feasibility equal-split instance (no integer point exists).
Model hard_split_model(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  Model m;
  LinExpr sum;
  for (std::size_t j = 0; j < n; ++j) {
    m.add_binary();
    sum.push_back({j, rng.uniform(0.9, 1.1)});
  }
  m.add_constraint(sum, Sense::Equal, static_cast<double>(n) / 2.0 + 0.4431);
  return m;
}

/// Knapsack maximization with enough variables that a tiny node budget
/// truncates the proof but a first dive still produces an incumbent.
Model deep_knapsack_model(std::size_t n, std::uint64_t seed) {
  // Strongly correlated knapsack (profit = weight + 10): notoriously hard to
  // prove optimal, yet any LP dive rounds to an incumbent within a few nodes.
  rng::Rng rng(seed);
  Model m;
  LinExpr obj, row;
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    m.add_binary();
    const double w = std::round(rng.uniform(5.0, 20.0));
    obj.push_back({j, -(w + 10.0)});
    row.push_back({j, w});
    total += w;
  }
  m.set_objective(obj);
  m.add_constraint(row, Sense::LessEqual, 0.5 * total + 0.5);
  return m;
}

TEST(MipBudget, NodeLimitMidDiveWithoutIncumbent) {
  const Model m = hard_split_model(24, 5);
  MipOptions o;
  o.first_feasible = true;
  o.max_nodes = 3;
  o.time_limit_seconds = 60.0;
  const MipResult r = solve_mip(m, o);
  EXPECT_FALSE(r.has_solution());
  // Tiny instances can be proved infeasible within the budget; otherwise the
  // node cap must be the reported reason, never TimeLimit.
  EXPECT_TRUE(r.status == MipStatus::NodeLimit ||
              r.status == MipStatus::Infeasible);
  EXPECT_NE(r.status, MipStatus::TimeLimit);
  EXPECT_LE(r.nodes_explored, o.max_nodes);
}

TEST(MipBudget, NodeLimitWithIncumbentReportsFeasibleAndValidPoint) {
  const Model m = deep_knapsack_model(26, 17);
  MipOptions o;
  o.max_nodes = 60;  // enough for a first dive, far short of the full proof
  const MipResult r = solve_mip(m, o);
  ASSERT_EQ(r.status, MipStatus::Feasible)
      << "nodes=" << r.nodes_explored;
  ASSERT_TRUE(r.has_solution());
  ASSERT_EQ(r.x.size(), m.num_variables());
  // The truncated incumbent must still be a genuine integer-feasible point.
  EXPECT_LE(m.max_violation(r.x), 1e-6);
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    EXPECT_NEAR(r.x[j], std::round(r.x[j]), 1e-6) << "var " << j;
    EXPECT_GE(r.x[j], m.variable(j).lb - 1e-9);
    EXPECT_LE(r.x[j], m.variable(j).ub + 1e-9);
  }
  EXPECT_NEAR(r.objective, m.objective_value(r.x), 1e-9);
  EXPECT_LE(r.nodes_explored, o.max_nodes);
}

TEST(MipBudget, ZeroTimeLimitTripsBeforeAnyNode) {
  const Model m = hard_split_model(20, 9);
  MipOptions o;
  o.first_feasible = true;
  o.time_limit_seconds = 0.0;
  const MipResult r = solve_mip(m, o);
  EXPECT_EQ(r.status, MipStatus::TimeLimit);
  EXPECT_EQ(r.nodes_explored, 0u);
  EXPECT_FALSE(r.has_solution());
}

}  // namespace
}  // namespace aspe::opt

namespace aspe::core {
namespace {

struct AttackScenario {
  BitVec query;
  sse::MrseKpaView view;
  double mu;
  double sigma;
};

AttackScenario make_attack_scenario(std::size_t d, std::size_t m,
                                    std::uint64_t seed) {
  scheme::MrseOptions opt;
  opt.vocab_dim = d;
  opt.sigma = 0.5;
  opt.mu = 1.0;
  sse::RankedSearchSystem system(opt, seed);
  rng::Rng rng(seed ^ 0x5555);

  AttackScenario s;
  s.mu = opt.mu;
  s.sigma = opt.sigma;
  data::QuestOptions qopt;
  qopt.num_items = d;
  qopt.density = 0.2;
  qopt.num_transactions = m;
  system.upload_records(data::QuestGenerator(qopt, rng.child(1)).generate());
  s.query = rng.binary_with_k_ones(d, 4);
  system.ranked_query(s.query, 5);
  std::vector<std::size_t> all_ids;
  for (std::size_t i = 0; i < m; ++i) all_ids.push_back(i);
  s.view = sse::leak_known_records(system, all_ids);
  return s;
}

TEST(MipBudget, AttackNodeBudgetReportedInTelemetry) {
  // Force branch and bound (no heuristic) under a tiny node budget: the
  // telemetry counters must reflect the truncated search exactly.
  const AttackScenario s = make_attack_scenario(16, 16, 101);
  MipAttackOptions opt;
  opt.use_heuristic = false;
  opt.solver.max_nodes = 4;
  opt.solver.time_limit_seconds = 30.0;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_NE(res.status, opt::MipStatus::Heuristic);
  EXPECT_NE(res.status, opt::MipStatus::TimeLimit);
  EXPECT_LE(res.telemetry.counter("mip.bnb.nodes"), 4.0);
  if (!res.found) {
    EXPECT_TRUE(res.status == opt::MipStatus::NodeLimit ||
                res.status == opt::MipStatus::Infeasible);
  }
}

TEST(MipBudget, AttackZeroTimeBudgetReportsTimeLimit) {
  const AttackScenario s = make_attack_scenario(16, 16, 103);
  MipAttackOptions opt;
  opt.use_heuristic = false;
  opt.solver.time_limit_seconds = 0.0;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.status, opt::MipStatus::TimeLimit);
  EXPECT_EQ(res.telemetry.counter("mip.bnb.nodes"), 0.0);
}

TEST(MipBudget, TimeLimitBindsInsideTheRootLp) {
  // Branch and bound alone at d = m = 500: the root LP has 1,001 rows and,
  // unbounded, ran 1,051 pivots in 7.1 s (Release, 4-vCPU x86-64). The
  // search's time limit must stop the simplex itself, not wait for the
  // root node to finish.
  const AttackScenario s = make_attack_scenario(500, 500, 101);
  MipAttackOptions opt;
  opt.use_heuristic = false;
  opt.solver.time_limit_seconds = 0.5;
  Stopwatch watch;
  const MipAttackResult res = run_mip_attack(s.view, 0, s.mu, s.sigma, opt);
  const double seconds = watch.seconds();
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.status, opt::MipStatus::TimeLimit);
  EXPECT_LT(seconds, 3.0);
}

TEST(MipBudget, TruncatedAttackIsThreadCountInvariant) {
  // The B&B path is serial: a truncated run must produce identical status,
  // query bits and counters at 1 and 8 threads.
  const AttackScenario s = make_attack_scenario(18, 18, 107);
  MipAttackOptions opt;
  opt.use_heuristic = false;
  opt.solver.max_nodes = 64;
  opt.solver.time_limit_seconds = 30.0;
  ExecContext serial;
  serial.threads = 1;
  ExecContext wide;
  wide.threads = 8;
  const MipAttackResult a =
      run_mip_attack(s.view, 0, s.mu, s.sigma, opt, serial);
  const MipAttackResult b = run_mip_attack(s.view, 0, s.mu, s.sigma, opt, wide);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.found, b.found);
  ASSERT_EQ(a.query.size(), b.query.size());
  for (std::size_t k = 0; k < a.query.size(); ++k) {
    EXPECT_EQ(a.query[k], b.query[k]) << "bit " << k;
  }
  for (const char* name :
       {"mip.bnb.nodes", "mip.bnb.simplex_iterations", "mip.model_rows"}) {
    EXPECT_EQ(a.telemetry.counter(name), b.telemetry.counter(name)) << name;
  }
}

}  // namespace
}  // namespace aspe::core
