#include "opt/mip.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "opt/presolve.hpp"

namespace aspe::opt {

namespace {

/// Index of the integer variable whose LP value is most fractional;
/// model.num_variables() when the point is integral.
std::size_t most_fractional(const Model& model, const Vec& x, double tol) {
  std::size_t best = model.num_variables();
  double best_frac = tol;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).type == VarType::Continuous) continue;
    const double f = x[j] - std::floor(x[j]);
    const double frac = std::min(f, 1.0 - f);
    if (frac > best_frac) {
      best_frac = frac;
      best = j;
    }
  }
  return best;
}

/// One branching bound change on a node's path from the root. Paths are
/// persistent singly linked lists, shared between siblings and with the
/// open stack.
struct PathDelta {
  std::size_t var;
  double lb, ub;
  std::shared_ptr<const PathDelta> parent;
  std::size_t depth;  // deltas on the path including this one
};
using PathPtr = std::shared_ptr<const PathDelta>;

struct Node {
  PathPtr path;                            // nullptr = root
  std::shared_ptr<const BasisState> warm;  // parent's optimal basis
  double parent_bound = -kInfinity;        // parent LP objective
};

/// Mirrors one node's path at a time in the solver's bounds. Switching nodes
/// rewinds the applied suffix past the common prefix and replays the rest;
/// for a depth-first dive that is "rewind the abandoned branch, apply one
/// delta".
class BoundTrail {
 public:
  explicit BoundTrail(SimplexSolver& solver) : solver_(solver) {}

  /// Move the solver's bounds onto `path`. Returns false (leaving the trail
  /// at the offending ancestor) when a delta on the path is an empty
  /// interval.
  bool switch_to(const PathPtr& path) {
    target_.clear();
    for (const PathPtr* d = &path; *d; d = &(*d)->parent) target_.push_back(d);
    std::reverse(target_.begin(), target_.end());
    std::size_t common = 0;
    while (common < applied_.size() && common < target_.size() &&
           applied_[common].delta == *target_[common]) {
      ++common;
    }
    rewind_to(common);
    for (std::size_t i = common; i < target_.size(); ++i) {
      const PathPtr& d = *target_[i];
      if (d->lb > d->ub) return false;  // empty branch interval
      applied_.push_back(
          {d, solver_.lower_bound(d->var), solver_.upper_bound(d->var)});
      solver_.set_bounds(d->var, d->lb, d->ub);
    }
    return true;
  }

  /// Restore every bound the trail changed.
  void rewind_all() { rewind_to(0); }

 private:
  // Each applied delta keeps its node's path alive: the open stack may drop
  // the last other owner while the delta is still on the trail.
  struct Applied {
    PathPtr delta;
    double lb, ub;  // solver bounds before this delta
  };

  void rewind_to(std::size_t size) {
    while (applied_.size() > size) {
      const Applied& a = applied_.back();
      solver_.set_bounds(a.delta->var, a.lb, a.ub);
      applied_.pop_back();
    }
  }

  SimplexSolver& solver_;
  std::vector<Applied> applied_;
  std::vector<const PathPtr*> target_;  // scratch for switch_to
};

/// Warm-started depth-first branch and bound over one model and solver.
class DepthFirstSearch {
 public:
  DepthFirstSearch(Model& model, SimplexSolver& solver,
                   const MipOptions& options)
      : model_(model),
        solver_(solver),
        options_(options),
        entry_stats_(solver.stats()),
        trail_(solver) {
    // The search's time limit also binds inside each LP: one root solve of
    // a large model can otherwise run for minutes past it.
    solver_.set_deadline(options_.time_limit_seconds);
  }
  ~DepthFirstSearch() { solver_.clear_deadline(); }
  DepthFirstSearch(const DepthFirstSearch&) = delete;
  DepthFirstSearch& operator=(const DepthFirstSearch&) = delete;

  MipResult run() {
    obs::Span span("opt/solve_mip");
    if (options_.use_presolve) {
      if (presolve(model_).infeasible) {
        finalize();
        result_.status = MipStatus::Infeasible;
        return std::move(result_);
      }
      solver_.sync_bounds();
    }
    search();
    finalize();
    if (have_incumbent_) {
      result_.status = truncated_ ? MipStatus::Feasible : MipStatus::Optimal;
    } else if (truncated_) {
      result_.status = timed_out_ || watch_.seconds() >
                                         options_.time_limit_seconds
                           ? MipStatus::TimeLimit
                           : MipStatus::NodeLimit;
    } else {
      result_.status = MipStatus::Infeasible;
    }
    return std::move(result_);
  }

 private:
  /// Pop nodes until the stack empties, a budget trips, or (under
  /// first_feasible) an incumbent is found. The last two truncate the search.
  void search() {
    open_.push_back(Node{});
    while (!open_.empty()) {
      if (result_.nodes_explored >= options_.max_nodes ||
          watch_.seconds() > options_.time_limit_seconds) {
        truncated_ = true;
        return;
      }
      Node node = std::move(open_.back());
      open_.pop_back();
      if (expand(node)) {
        truncated_ = true;
        return;
      }
    }
  }

  /// Solve one node and branch on it. Returns true to stop the search at a
  /// first_feasible incumbent or when the node's LP ran into the time limit.
  bool expand(const Node& node) {
    ++result_.nodes_explored;
    max_depth_ = std::max(max_depth_, node.path ? node.path->depth - 1 : 0);
    if (!trail_.switch_to(node.path)) return false;  // empty interval

    // The child LP bound can only be worse than the parent's: prune on the
    // parent objective before paying for the solve.
    if (have_incumbent_ && node.parent_bound >= incumbent_obj_ - 1e-9) {
      ++pruned_parent_bound_;
      return false;
    }

    const LpResult lp = solve_node_lp(node);
    switch (lp.status) {
      case LpStatus::Optimal:
        break;
      case LpStatus::Infeasible:
        ++infeasible_nodes_;
        return false;
      case LpStatus::IterationLimit:
        truncated_ = true;
        // Stopped by the time limit: end the search, like the check in
        // search() would before the next node.
        timed_out_ = solver_.past_deadline();
        return timed_out_;
      case LpStatus::Unbounded:
        throw NumericalError("solve_mip: LP relaxation is unbounded");
    }
    if (have_incumbent_ && lp.objective >= incumbent_obj_ - 1e-9) {
      ++pruned_bound_;
      return false;
    }

    const std::size_t frac = most_fractional(model_, lp.x, options_.int_tol);
    if (frac == model_.num_variables()) {
      if (!have_incumbent_ || lp.objective < incumbent_obj_) {
        record_incumbent(lp);
      }
      return options_.first_feasible;
    }
    branch(node, lp, frac);
    return false;
  }

  LpResult solve_node_lp(const Node& node) {
    LpResult lp;
    if (options_.warm_start) {
      if (node.warm && live_ != node.warm) solver_.restore(*node.warm);
      lp = solver_.solve_warm();  // cold when no basis exists yet
    } else {
      lp = solver_.solve();
    }
    live_.reset();
    result_.simplex_iterations += lp.iterations;
    return lp;
  }

  void record_incumbent(const LpResult& lp) {
    have_incumbent_ = true;
    ++incumbents_found_;
    if (obs::enabled()) obs::instant("mip/incumbent");
    incumbent_obj_ = lp.objective;
    result_.x = lp.x;
    // Snap integer variables exactly.
    for (std::size_t j = 0; j < model_.num_variables(); ++j) {
      if (model_.variable(j).type != VarType::Continuous) {
        result_.x[j] = std::round(result_.x[j]);
      }
    }
    result_.objective = incumbent_obj_;
  }

  /// Push the far child first so the near (nearest-integer) child is
  /// explored next: diving behaviour. Both children share one snapshot of
  /// this node's optimal basis; the near child finds it still live in the
  /// solver and dives without a restore.
  void branch(const Node& node, const LpResult& lp, std::size_t var) {
    const double v = lp.x[var];
    const double floor_v = std::floor(v);
    std::shared_ptr<const BasisState> snap;
    if (options_.warm_start) {
      snap = std::make_shared<const BasisState>(solver_.basis());
      live_ = snap;
    }
    const std::size_t depth = (node.path ? node.path->depth : 0) + 1;
    Node down{std::make_shared<const PathDelta>(PathDelta{
                  var, solver_.lower_bound(var), floor_v, node.path, depth}),
              snap, lp.objective};
    Node up{std::make_shared<const PathDelta>(PathDelta{
                var, floor_v + 1.0, solver_.upper_bound(var), node.path,
                depth}),
            std::move(snap), lp.objective};
    const bool near_is_up = (v - floor_v) >= 0.5;
    open_.push_back(std::move(near_is_up ? down : up));
    open_.push_back(std::move(near_is_up ? up : down));
  }

  /// Restore the solver's bounds and emit the node-event tallies, which are
  /// accumulated locally (the search is serial) at near-zero cost per node.
  void finalize() {
    trail_.rewind_all();
    result_.seconds = watch_.seconds();
    if (have_incumbent_) result_.objective = incumbent_obj_;
    const SolverStats& s = solver_.stats();
    result_.lp_warm_solves = s.warm_solves - entry_stats_.warm_solves;
    result_.lp_cold_solves = s.cold_solves - entry_stats_.cold_solves;
    if (!obs::enabled()) return;
    const auto count = [](const char* name, std::size_t value) {
      obs::counter_add(name, static_cast<double>(value));
    };
    count("mip.bnb.nodes", result_.nodes_explored);
    count("mip.bnb.simplex_iterations", result_.simplex_iterations);
    count("mip.bnb.warm_solves", result_.lp_warm_solves);
    count("mip.bnb.cold_solves", result_.lp_cold_solves);
    count("mip.bnb.dual_fallbacks",
          s.dual_fallbacks - entry_stats_.dual_fallbacks);
    count("mip.bnb.pruned_parent_bound", pruned_parent_bound_);
    count("mip.bnb.pruned_bound", pruned_bound_);
    count("mip.bnb.infeasible_nodes", infeasible_nodes_);
    count("mip.bnb.incumbents", incumbents_found_);
    obs::gauge_set("mip.bnb.max_depth", static_cast<double>(max_depth_));
  }

  Model& model_;
  SimplexSolver& solver_;
  const MipOptions& options_;
  const SolverStats entry_stats_;
  Stopwatch watch_;
  BoundTrail trail_;
  MipResult result_;

  std::vector<Node> open_;  // LIFO: the DFS stack
  // Snapshot the solver's in-memory basis currently corresponds to; when a
  // child's warm pointer matches, the restore is skipped entirely.
  std::shared_ptr<const BasisState> live_;
  double incumbent_obj_ = kInfinity;
  bool have_incumbent_ = false;
  bool truncated_ = false;
  bool timed_out_ = false;  // an LP stopped at the time limit

  std::size_t pruned_parent_bound_ = 0;
  std::size_t pruned_bound_ = 0;
  std::size_t infeasible_nodes_ = 0;
  std::size_t incumbents_found_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace

MipResult solve_mip(Model model, const MipOptions& options) {
  SimplexSolver solver(model, options.lp);
  return solve_mip(model, solver, options);
}

MipResult solve_mip(Model& model, SimplexSolver& solver,
                    const MipOptions& options) {
  return DepthFirstSearch(model, solver, options).run();
}

}  // namespace aspe::opt
