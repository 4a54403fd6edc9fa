// Branch-and-bound solver for mixed binary/continuous linear programs.
//
// Together with the simplex this replaces the Gurobi dependency of the
// paper's Algorithm 2 (the MIP attack). The attack uses it as a feasibility
// search: objective 0, stop at the first integer-feasible point — which makes
// depth-first most-fractional branching with nearest-integer-first child
// ordering behave like an LP diving heuristic with backtracking.
//
// Every node's LP is warm-started from its parent's optimal basis by the
// dual simplex, and a node is pruned on its parent's bound before its LP is
// solved. There are no cuts, no reduced-cost fixing, no pseudo-cost
// branching and no best-first or restart search: on every measured instance
// each of them cost more seconds than it saved (docs/opt.md).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "opt/model.hpp"
#include "opt/simplex.hpp"

namespace aspe::opt {

enum class MipStatus {
  Optimal,        // proved optimal (search exhausted)
  Feasible,       // integer-feasible found, search stopped early
  Infeasible,     // proved infeasible
  NodeLimit,      // node budget exhausted without a feasible point
  TimeLimit,      // wall-clock budget exhausted without a feasible point
  NotRun,         // the branch-and-bound search was never invoked
  Heuristic,      // feasible point from a primal heuristic; search skipped
};

struct MipResult {
  MipStatus status = MipStatus::NotRun;
  Vec x;                   // best integer-feasible point (when found)
  double objective = 0.0;  // objective at x
  std::size_t nodes_explored = 0;
  double seconds = 0.0;
  std::size_t simplex_iterations = 0;  // total LP pivots across all nodes
  std::size_t lp_warm_solves = 0;      // nodes re-optimized by dual simplex
  std::size_t lp_cold_solves = 0;      // nodes solved from the artificial basis

  [[nodiscard]] bool has_solution() const {
    return status == MipStatus::Optimal || status == MipStatus::Feasible;
  }
};

struct MipOptions {
  /// Stop at the first integer-feasible solution (the attack's mode).
  bool first_feasible = false;
  /// Run presolve (bound tightening) on the root model before the search.
  bool use_presolve = true;
  /// Warm-start each node's LP from its parent's basis via the dual simplex
  /// (cold fallback when the dual iteration limit trips). Off reproduces the
  /// historical cold-solve-per-node behaviour.
  bool warm_start = true;
  std::size_t max_nodes = 200000;
  /// Wall-clock budget of the search, from the solve_mip call. It binds
  /// between nodes and, through SimplexSolver::set_deadline, inside each
  /// node's LP; a search it stops without an incumbent ends as TimeLimit.
  double time_limit_seconds = 60.0;
  double int_tol = 1e-6;
  SimplexOptions lp;
};

/// Solve a mixed-integer linear program by LP-based branch and bound.
[[nodiscard]] MipResult solve_mip(Model model, const MipOptions& options = {});

/// In-place variant sharing a caller-owned solver (e.g. the MIP attack's
/// root-LP solver, whose basis then warm-starts the root node). Presolve
/// mutates `model` bounds only; the search restores every bound it changes
/// in `solver` before returning. `solver` must have been built over `model`.
[[nodiscard]] MipResult solve_mip(Model& model, SimplexSolver& solver,
                                  const MipOptions& options = {});

}  // namespace aspe::opt
