#include "opt/mip.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
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

// ---------------------------------------------------------------------------
// Cut separation
// ---------------------------------------------------------------------------

/// A separated-but-not-yet-appended cut over structural variables. Cuts live
/// in a pool; each round the most violated ones (by efficacy, violation over
/// coefficient norm) are appended as permanent model rows. The public
/// PoolCut carries exactly the fields the loop needs, so WarmCutPool
/// snapshots copy the pool verbatim.
using CandidateCut = PoolCut;

double cut_violation(const CandidateCut& cut, const Vec& x) {
  double lhs = 0.0;
  for (const auto& t : cut.terms) lhs += t.coef * x[t.var];
  return cut.sense == Sense::LessEqual ? lhs - cut.rhs : cut.rhs - lhs;
}

bool same_cut(const CandidateCut& a, const CandidateCut& b) {
  if (a.sense != b.sense || a.terms.size() != b.terms.size()) return false;
  if (std::abs(a.rhs - b.rhs) > 1e-9) return false;
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    if (a.terms[i].var != b.terms[i].var) return false;
    if (std::abs(a.terms[i].coef - b.terms[i].coef) > 1e-9) return false;
  }
  return true;
}

/// Gomory mixed-integer cut from tableau row r of the optimal factorization.
///
/// The basic variable of row r must be a structural integer variable with
/// fractional value beta; write f0 = frac(beta). Shifting every nonbasic
/// column to its bound (t_k = distance from the bound, t_k >= 0) the row
/// reads x_B = beta - sum_k abar_k t_k, and the GMI inequality
///   sum_k g_k t_k >= f0,
///     g_k = frac(abar_k)                       if t_k integral, frac <= f0
///         = f0 (1 - frac(abar_k)) / (1 - f0)   if t_k integral, frac >  f0
///         = abar_k                             if continuous, abar_k >= 0
///         = f0 (-abar_k) / (1 - f0)            if continuous, abar_k <  0
/// is valid for every integer point. Un-shifting maps t_k back to x_k, and
/// slack columns are eliminated through their defining row, so the final cut
/// involves structural variables only.
std::optional<CandidateCut> make_gomory_cut(const Model& model,
                                            const SimplexSolver& solver,
                                            std::size_t r, std::size_t seq) {
  const std::size_t n = model.num_variables();
  const std::size_t jb = solver.basis_column(r);
  if (jb >= n) return std::nullopt;
  if (model.variable(jb).type == VarType::Continuous) return std::nullopt;

  Vec alpha;
  double beta = 0.0;
  solver.tableau_row(r, alpha, beta);
  const double f0 = beta - std::floor(beta);
  if (f0 < 0.01 || f0 > 0.99) return std::nullopt;  // too weak / numerics

  const std::size_t total = solver.num_columns();
  const std::size_t slack_begin = solver.slack_begin();
  const std::size_t art_begin = solver.artificial_begin();

  Vec coef(n, 0.0);
  double rhs = f0;
  for (std::size_t k = 0; k < total; ++k) {
    if (k == jb) continue;
    if (solver.column_status(k) == VarStatus::Basic) continue;
    if (k >= art_begin) continue;  // artificials are pinned to zero
    const bool structural = k < n;
    const double lo = structural ? solver.lower_bound(k) : 0.0;
    const double hi = structural ? solver.upper_bound(k) : kInfinity;
    if (hi - lo < 1e-12) continue;  // fixed column: t == 0
    const bool at_upper = solver.column_status(k) == VarStatus::AtUpper;
    const double s = at_upper ? -1.0 : 1.0;
    const double abar = s * alpha[k];

    // t_k is integral when the column is an integer structural variable
    // shifted by an integral bound.
    bool integral = false;
    if (structural && model.variable(k).type != VarType::Continuous) {
      const double bound = at_upper ? hi : lo;
      integral =
          std::isfinite(bound) && std::abs(bound - std::round(bound)) < 1e-9;
    }
    double g;
    if (integral) {
      const double fk = abar - std::floor(abar);
      g = fk <= f0 + 1e-12 ? fk : f0 * (1.0 - fk) / (1.0 - f0);
    } else {
      g = abar >= 0.0 ? abar : f0 * (-abar) / (1.0 - f0);
    }
    if (g < 1e-13) {
      // Dropping the (nonnegative) term g * t_k from the left of the >= is
      // only valid after charging its worst case g * (hi - lo) to the rhs.
      if (std::isfinite(hi - lo)) rhs -= g * (hi - lo);
      // Unbounded t with truly tiny g: the term is numerically zero anyway.
      continue;
    }
    const double bound = at_upper ? hi : lo;
    if (structural) {
      // g * t = g*s*x - g*s*bound.
      coef[k] += g * s;
      rhs += g * s * bound;
    } else {
      // Slack of row i: slack = sign_i * (rhs_i - A_i x), nonbasic at its
      // lower bound 0 (upper is +inf), so s == +1 and the bound shift is 0.
      const std::size_t si = k - slack_begin;
      const Constraint& c = model.constraint(solver.slack_row(si));
      const double w = g * s * solver.slack_sign(si);
      for (const auto& t : c.terms) coef[t.var] -= w * t.coef;
      rhs -= w * c.rhs;
    }
  }
  if (!std::isfinite(rhs)) return std::nullopt;

  CandidateCut cut;
  cut.sense = Sense::GreaterEqual;
  double norm2 = 0.0;
  double max_abs = 0.0;
  double min_abs = kInfinity;
  for (std::size_t j = 0; j < n; ++j) {
    const double cj = coef[j];
    if (cj == 0.0) continue;
    if (std::abs(cj) < 1e-11) {
      // Drop the tiny term, charging its worst case over the box.
      const double worst =
          cj >= 0.0 ? cj * solver.upper_bound(j) : cj * solver.lower_bound(j);
      if (std::isfinite(worst)) {
        rhs -= worst;
        continue;
      }
    }
    cut.terms.push_back(Term{j, cj});
    norm2 += cj * cj;
    max_abs = std::max(max_abs, std::abs(cj));
    min_abs = std::min(min_abs, std::abs(cj));
  }
  if (cut.terms.empty() || !std::isfinite(rhs)) return std::nullopt;
  if (max_abs / min_abs > 1e7) return std::nullopt;  // ill-scaled
  cut.rhs = rhs;
  cut.norm = std::sqrt(norm2);
  if (cut.norm < 1e-12) return std::nullopt;
  cut.seq = seq;
  return cut;
}

/// Knapsack cover cuts: for each original model row with a binary knapsack
/// relaxation sum w_i z_i <= cap, a greedy minimal cover C (items picked by
/// LP value descending until the capacity is exceeded) yields the cut
/// sum_{C} z_i <= |C| - 1. Complemented items are mapped back to x.
/// Variables the relaxation forces to zero are reported as global fixings.
void separate_cover_cuts(const Model& model, const Vec& x,
                         std::size_t orig_rows,
                         std::vector<CandidateCut>& out, std::size_t& seq,
                         std::vector<GlobalBound>& fixings) {
  for (std::size_t row = 0; row < orig_rows; ++row) {
    const auto ks = binary_knapsack_relaxation(model, row);
    if (!ks) continue;
    for (std::size_t i = 0; i < ks->forced_zero_vars.size(); ++i) {
      const std::size_t v = ks->forced_zero_vars[i];
      const double val = ks->forced_zero_complemented[i] ? 1.0 : 0.0;
      fixings.push_back(GlobalBound{v, val, val});
    }
    const std::size_t items = ks->vars.size();
    if (items < 2) continue;

    // z* value of each item under the LP point.
    Vec z(items);
    for (std::size_t i = 0; i < items; ++i) {
      const double xv = std::clamp(x[ks->vars[i]], 0.0, 1.0);
      z[i] = ks->complemented[i] ? 1.0 - xv : xv;
    }
    std::vector<std::size_t> order(items);
    for (std::size_t i = 0; i < items; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return z[a] > z[b]; });

    std::vector<std::size_t> cover;
    double weight = 0.0;
    for (std::size_t i : order) {
      cover.push_back(i);
      weight += ks->weights[i];
      if (weight > ks->capacity + 1e-9) break;
    }
    if (weight <= ks->capacity + 1e-9) continue;  // no cover exists
    // Minimalize: peel items (lowest z* first) while still a cover.
    for (std::size_t i = cover.size(); i-- > 0;) {
      if (weight - ks->weights[cover[i]] > ks->capacity + 1e-9) {
        weight -= ks->weights[cover[i]];
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (cover.size() < 2) continue;

    // sum_{C} z_i <= |C| - 1, un-complemented onto x.
    double zsum = 0.0;
    for (std::size_t i : cover) zsum += z[i];
    if (zsum <= static_cast<double>(cover.size()) - 1.0 + 1e-9) continue;

    CandidateCut cut;
    cut.sense = Sense::LessEqual;
    cut.rhs = static_cast<double>(cover.size()) - 1.0;
    std::sort(cover.begin(), cover.end(), [&](std::size_t a, std::size_t b) {
      return ks->vars[a] < ks->vars[b];
    });
    for (std::size_t i : cover) {
      if (ks->complemented[i]) {
        cut.terms.push_back(Term{ks->vars[i], -1.0});
        cut.rhs -= 1.0;
      } else {
        cut.terms.push_back(Term{ks->vars[i], 1.0});
      }
    }
    cut.norm = std::sqrt(static_cast<double>(cover.size()));
    cut.seq = seq++;
    out.push_back(std::move(cut));
  }
}

}  // namespace

MipResult solve_mip(Model model, const MipOptions& options) {
  SimplexSolver solver(model, options.lp);
  return solve_mip(model, solver, options);
}

MipResult solve_mip(Model& model, SimplexSolver& solver,
                    const MipOptions& options) {
  return solve_mip(model, solver, options, nullptr);
}

MipResult solve_mip(Model& model, SimplexSolver& solver,
                    const MipOptions& options, WarmCutPool* warm) {
  MipResult result;
  Stopwatch watch;
  obs::Span search_span("opt/solve_mip");
  const SolverStats entry_stats = solver.stats();

  // Warm root-state bookkeeping: rows/trail watermarks delimit what this
  // run's first cut loop contributes (and therefore what gets exported).
  const std::size_t rows_at_entry = model.num_constraints();
  const std::size_t trail_at_entry = model.global_bound_trail().size();
  const bool attach_warm = warm != nullptr && warm->has_basis;

  // B&B node-event tallies, accumulated locally (the search is serial) and
  // emitted as counters once at exit — near-zero cost per node.
  std::size_t pruned_parent_bound = 0;
  std::size_t pruned_bound = 0;
  std::size_t infeasible_nodes = 0;
  std::size_t incumbents_found = 0;
  std::size_t max_depth = 0;

  // A node's bound changes relative to the root are a persistent singly
  // linked path (shared between siblings and with the open list). The solver
  // mirrors one node's path at a time: switching nodes rewinds the applied
  // suffix past the common prefix and replays the rest — for a depth-first
  // dive this degenerates to "rewind abandoned branch, apply one delta",
  // exactly the historical trail behaviour.
  struct PathDelta {
    std::size_t var;
    double lb, ub;
    std::shared_ptr<const PathDelta> parent;
    std::size_t depth;  // deltas on the path including this one
  };
  using PathPtr = std::shared_ptr<const PathDelta>;
  // Each applied delta keeps its node alive: the open list may drop the
  // last other owner while the delta is still on the solver's trail.
  struct Applied {
    PathPtr delta;
    double lb, ub;  // solver bounds before this delta
  };
  std::vector<Applied> applied;
  std::vector<const PathPtr*> target;  // scratch for switch_to

  const auto rewind_all = [&]() {
    while (!applied.empty()) {
      const Applied& a = applied.back();
      solver.set_bounds(a.delta->var, a.lb, a.ub);
      applied.pop_back();
    }
  };
  // Move the solver's bounds from the currently applied path to `path`.
  // Returns false (leaving the trail at the offending ancestor) when a delta
  // on the path is an empty interval.
  const auto switch_to = [&](const PathPtr& path) -> bool {
    target.clear();
    for (const PathPtr* d = &path; *d; d = &(*d)->parent) {
      target.push_back(d);
    }
    std::reverse(target.begin(), target.end());
    std::size_t common = 0;
    while (common < applied.size() && common < target.size() &&
           applied[common].delta == *target[common]) {
      ++common;
    }
    while (applied.size() > common) {
      const Applied& a = applied.back();
      solver.set_bounds(a.delta->var, a.lb, a.ub);
      applied.pop_back();
    }
    for (std::size_t i = common; i < target.size(); ++i) {
      const PathPtr& d = *target[i];
      if (d->lb > d->ub) return false;  // empty branch interval
      applied.push_back(
          {d, solver.lower_bound(d->var), solver.upper_bound(d->var)});
      solver.set_bounds(d->var, d->lb, d->ub);
    }
    return true;
  };

  const auto finalize = [&](MipResult& r) {
    rewind_all();
    r.seconds = watch.seconds();
    const SolverStats& s = solver.stats();
    r.lp_warm_solves = s.warm_solves - entry_stats.warm_solves;
    r.lp_cold_solves = s.cold_solves - entry_stats.cold_solves;
    if (obs::enabled()) {
      obs::counter_add("mip.bnb.nodes",
                       static_cast<double>(r.nodes_explored));
      obs::counter_add("mip.bnb.simplex_iterations",
                       static_cast<double>(r.simplex_iterations));
      obs::counter_add("mip.bnb.warm_solves",
                       static_cast<double>(r.lp_warm_solves));
      obs::counter_add("mip.bnb.cold_solves",
                       static_cast<double>(r.lp_cold_solves));
      obs::counter_add("mip.bnb.dual_fallbacks",
                       static_cast<double>(s.dual_fallbacks -
                                           entry_stats.dual_fallbacks));
      obs::counter_add("mip.bnb.pruned_parent_bound",
                       static_cast<double>(pruned_parent_bound));
      obs::counter_add("mip.bnb.pruned_bound",
                       static_cast<double>(pruned_bound));
      obs::counter_add("mip.bnb.infeasible_nodes",
                       static_cast<double>(infeasible_nodes));
      obs::counter_add("mip.bnb.incumbents",
                       static_cast<double>(incumbents_found));
      obs::gauge_set("mip.bnb.max_depth", static_cast<double>(max_depth));
      obs::counter_add("mip.cuts_added", static_cast<double>(r.cuts_added));
      obs::counter_add("mip.rc_fixings", static_cast<double>(r.rc_fixings));
      obs::counter_add("mip.strong_branches",
                       static_cast<double>(r.strong_branches));
      obs::counter_add("mip.restarts", static_cast<double>(r.restarts));
    }
  };

  if (options.use_presolve) {
    const PresolveResult pre = presolve(model);
    if (pre.infeasible) {
      result.status = MipStatus::Infeasible;
      finalize(result);
      return result;
    }
    solver.sync_bounds();
  }

  // ---- warm root-state replay --------------------------------------------
  // Re-apply the exporting run's first-cut-loop outcome to this (freshly
  // built, structurally identical) model: appended cut rows, global bound
  // tightenings, and the root basis. The counters the exporting run accrued
  // for that loop are credited too, so warm and cold telemetry agree on
  // everything except the skipped LP pivots.
  if (attach_warm) {
    for (const PoolCut& c : warm->applied) {
      model.add_cut_row(c.terms, c.sense, c.rhs);
      ++result.cuts_added;
    }
    if (!warm->applied.empty()) solver.append_model_rows();
    for (const GlobalBound& g : warm->tightenings) {
      model.record_global_tightening(g.var, g.lb, g.ub);
      ++result.rc_fixings;
    }
    if (!warm->tightenings.empty()) solver.sync_bounds();
    solver.warm_attach(warm->basis);
  }

  const std::size_t n = model.num_variables();
  double incumbent_obj = kInfinity;
  bool have_incumbent = false;
  bool search_truncated = false;

  // ---- root cut loop -----------------------------------------------------
  // Separate / select / append / re-optimize until no pool cut is violated
  // (or the round budget runs out). Appended cuts are permanent model rows,
  // mirrored into the solver with the warm basis kept.
  std::vector<CandidateCut> pool;
  std::size_t cut_seq = 0;
  if (attach_warm) {
    pool = warm->pool;
    cut_seq = warm->cut_seq;
  }
  const std::size_t orig_rows = model.num_constraints() - model.num_cut_rows();
  const bool cuts_enabled =
      (options.gomory_cuts || options.cover_cuts) &&
      model.has_integer_variables();

  // Returns true when the root LP proves the model infeasible.
  const auto run_cut_loop = [&]() -> bool {
    if (!cuts_enabled) return false;
    obs::Span cut_span("opt/mip_cut_loop");
    double prev_obj = -kInfinity;
    double prev_frac = kInfinity;
    for (std::size_t round = 0; round < options.max_cut_rounds; ++round) {
      if (watch.seconds() > options.time_limit_seconds) {
        search_truncated = true;
        return false;
      }
      LpResult lp = options.warm_start ? solver.solve_warm() : solver.solve();
      result.simplex_iterations += lp.iterations;
      if (lp.status == LpStatus::Infeasible) return true;
      if (lp.status == LpStatus::IterationLimit) {
        search_truncated = true;
        return false;
      }
      if (lp.status == LpStatus::Unbounded) {
        throw NumericalError("solve_mip: LP relaxation is unbounded");
      }
      if (most_fractional(model, lp.x, options.int_tol) == n) return false;

      // Stall detection: appending rows makes every later LP more expensive,
      // so stop once a round moved neither the bound (minimization: cuts can
      // only raise it) nor the total integer infeasibility. Under a zero
      // objective (pure feasibility) only the fractionality signal is live.
      double frac_total = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (model.variable(j).type == VarType::Continuous) continue;
        const double f = lp.x[j] - std::floor(lp.x[j]);
        frac_total += std::min(f, 1.0 - f);
      }
      if (round > 0) {
        const double obj_gain = lp.objective - prev_obj;
        const double frac_drop = prev_frac - frac_total;
        if (obj_gain < 1e-7 * std::max(1.0, std::fabs(lp.objective)) &&
            frac_drop < 1e-3) {
          return false;
        }
      }
      prev_obj = lp.objective;
      prev_frac = frac_total;

      // Separate fresh candidates into the pool.
      const std::size_t pool_before = pool.size();
      if (options.gomory_cuts && solver.factor_valid()) {
        for (std::size_t r = 0; r < solver.num_rows(); ++r) {
          const std::size_t jb = solver.basis_column(r);
          if (jb >= n) continue;
          if (model.variable(jb).type == VarType::Continuous) continue;
          const double v = lp.x[jb];
          const double f = v - std::floor(v);
          if (std::min(f, 1.0 - f) <= options.int_tol) continue;
          auto cut = make_gomory_cut(model, solver, r, cut_seq);
          if (cut) {
            pool.push_back(std::move(*cut));
            ++cut_seq;
          }
        }
      }
      std::vector<GlobalBound> fixings;
      if (options.cover_cuts) {
        separate_cover_cuts(model, lp.x, orig_rows, pool, cut_seq, fixings);
      }
      // Deduplicate fresh candidates against the existing pool.
      for (std::size_t i = pool.size(); i-- > pool_before;) {
        bool dup = false;
        for (std::size_t k = 0; k < i && !dup; ++k) {
          dup = same_cut(pool[i], pool[k]);
        }
        if (dup) pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      }
      // Knapsack-forced fixings are valid for every integer point: apply
      // them globally (replayed by restarts via the model's bound trail).
      bool fixed_any = false;
      for (const GlobalBound& g : fixings) {
        const Variable& v = model.variable(g.var);
        if (v.ub - v.lb < 0.5) continue;  // already fixed
        model.record_global_tightening(g.var, g.lb, g.ub);
        ++result.rc_fixings;
        fixed_any = true;
      }
      if (fixed_any) solver.sync_bounds();

      // Violation-ranked selection from the pool.
      struct Scored {
        double eff;
        std::size_t idx;
      };
      std::vector<Scored> scored;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double eff = cut_violation(pool[i], lp.x) / pool[i].norm;
        if (eff >= options.cut_min_violation) scored.push_back({eff, i});
      }
      if (scored.empty() && !fixed_any) return false;
      std::sort(scored.begin(), scored.end(),
                [&](const Scored& a, const Scored& b) {
                  if (a.eff != b.eff) return a.eff > b.eff;
                  return pool[a.idx].seq < pool[b.idx].seq;
                });
      if (scored.size() > options.max_cuts_per_round) {
        scored.resize(options.max_cuts_per_round);
      }
      std::vector<std::size_t> picked;
      for (const Scored& s : scored) picked.push_back(s.idx);
      std::sort(picked.begin(), picked.end());
      for (std::size_t i = picked.size(); i-- > 0;) {
        CandidateCut& cut = pool[picked[i]];
        model.add_cut_row(cut.terms, cut.sense, cut.rhs);
        ++result.cuts_added;
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(picked[i]));
      }
      if (!picked.empty()) solver.append_model_rows();
    }
    return false;
  };

  if (!attach_warm) {
    if (run_cut_loop()) {
      result.status = MipStatus::Infeasible;
      finalize(result);
      return result;
    }
    if (warm != nullptr) {
      // Export the first loop's outcome, then canonicalize the solver: a
      // later attach refactorizes B^{-1} from the restored basis, so this
      // run must enter the search from exactly that state or the two pivot
      // sequences (and results) could drift apart by ulps.
      warm->applied.clear();
      for (std::size_t i = rows_at_entry; i < model.num_constraints(); ++i) {
        const Constraint& c = model.constraint(i);
        warm->applied.push_back(PoolCut{c.terms, c.sense, c.rhs, 1.0, 0});
      }
      warm->pool = pool;
      warm->cut_seq = cut_seq;
      const auto& trail = model.global_bound_trail();
      warm->tightenings.assign(trail.begin() +
                                   static_cast<std::ptrdiff_t>(trail_at_entry),
                               trail.end());
      if (solver.has_basis()) {
        warm->basis = solver.basis();
        solver.restore(warm->basis);
        warm->has_basis = true;
      }
    }
  }
  // attach_warm: the first cut loop was replayed from the snapshot above;
  // restart-triggered cut loops still run live (with the replayed pool).

  // ---- pseudo-cost state ---------------------------------------------------
  Vec pc_sum_dn, pc_sum_up;
  std::vector<std::size_t> pc_cnt_dn, pc_cnt_up;
  if (options.pseudo_cost_branching) {
    pc_sum_dn.assign(n, 0.0);
    pc_sum_up.assign(n, 0.0);
    pc_cnt_dn.assign(n, 0);
    pc_cnt_up.assign(n, 0);
  }

  // ---- search ----------------------------------------------------------------
  constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);
  struct Node {
    PathPtr path;                            // nullptr = root
    std::shared_ptr<const BasisState> warm;  // parent's optimal basis
    double parent_bound = -kInfinity;        // parent LP objective
    std::size_t branch_depth = 0;            // branchings above this node
    std::size_t branch_var = kNoVar;         // delta that created this node
    int branch_dir = 0;                      // -1 down child, +1 up child
    double branch_frac = 0.0;  // |child bound - parent LP value|
    std::size_t seq = 0;       // creation order (best-first FIFO ties)
  };
  struct NodeCompare {
    bool operator()(const Node& a, const Node& b) const {
      if (a.parent_bound != b.parent_bound) {
        return a.parent_bound > b.parent_bound;  // min-heap on the bound
      }
      return a.seq > b.seq;  // FIFO tie-break
    }
  };

  std::vector<Node> dive;  // LIFO: the DFS stack / best-first plunge stack
  std::priority_queue<Node, std::vector<Node>, NodeCompare> open;
  std::size_t node_seq = 0;
  std::size_t plunge_budget = options.plunge_depth;
  std::size_t nodes_since_improve = 0;
  const std::size_t restart_interval = options.restart_interval > 0
                                           ? options.restart_interval
                                           : 1000 + 10 * n;

  dive.push_back(Node{});
  // Snapshot the solver's in-memory basis currently corresponds to; when a
  // dive child's warm pointer matches, the restore is skipped entirely.
  std::shared_ptr<const BasisState> live;

  while (!dive.empty() || !open.empty()) {
    if (result.nodes_explored >= options.max_nodes) {
      search_truncated = true;
      break;
    }
    if (watch.seconds() > options.time_limit_seconds) {
      search_truncated = true;
      break;
    }
    if (options.restarts && result.restarts < options.max_restarts &&
        nodes_since_improve >= restart_interval) {
      // Abandon the open tree, replay the learned global tightenings and the
      // cut loop at the root, and start over (pseudo-costs are kept).
      ++result.restarts;
      nodes_since_improve = 0;
      dive.clear();
      open = decltype(open)();
      rewind_all();
      solver.sync_bounds();  // global trail fixings recorded in the model
      live.reset();
      if (obs::enabled()) obs::instant("mip/restart");
      if (run_cut_loop()) {
        result.status = MipStatus::Infeasible;
        finalize(result);
        return result;
      }
      dive.push_back(Node{});
      continue;
    }

    Node node;
    if (!dive.empty()) {
      node = std::move(dive.back());
      dive.pop_back();
    } else {
      node = open.top();
      open.pop();
      plunge_budget = options.plunge_depth;
    }
    ++result.nodes_explored;
    ++nodes_since_improve;
    const std::size_t prior_depth = node.path ? node.path->depth - 1 : 0;
    max_depth = std::max(max_depth, prior_depth);

    // Move the solver onto this node's path (rewind + replay).
    if (!switch_to(node.path)) continue;  // empty branch interval
    PathPtr path = node.path;

    // The child LP bound can only be worse than the parent's: prune on the
    // parent objective before paying for the solve.
    if (have_incumbent && node.parent_bound >= incumbent_obj - 1e-9) {
      ++pruned_parent_bound;
      continue;
    }

    LpResult lp;
    if (options.warm_start) {
      if (node.warm && live != node.warm) solver.restore(*node.warm);
      lp = solver.solve_warm();  // cold when no basis exists yet
    } else {
      lp = solver.solve();
    }
    live.reset();
    result.simplex_iterations += lp.iterations;

    if (lp.status == LpStatus::Infeasible) {
      ++infeasible_nodes;
      continue;
    }
    if (lp.status == LpStatus::IterationLimit) {
      search_truncated = true;
      continue;
    }
    if (lp.status == LpStatus::Unbounded) {
      // Unbounded relaxation at the root of a minimization with integer
      // variables: treat as unbounded problem -> report via exception.
      throw NumericalError("solve_mip: LP relaxation is unbounded");
    }

    // Pseudo-cost update from the branching that created this node.
    if (options.pseudo_cost_branching && node.branch_var != kNoVar &&
        node.branch_frac > 1e-9) {
      const double gain =
          std::max(lp.objective - node.parent_bound, 0.0) / node.branch_frac;
      if (node.branch_dir < 0) {
        pc_sum_dn[node.branch_var] += gain;
        ++pc_cnt_dn[node.branch_var];
      } else {
        pc_sum_up[node.branch_var] += gain;
        ++pc_cnt_up[node.branch_var];
      }
    }

    // Bound pruning.
    if (have_incumbent && lp.objective >= incumbent_obj - 1e-9) {
      ++pruned_bound;
      continue;
    }

    const std::size_t frac = most_fractional(model, lp.x, options.int_tol);
    if (frac == n) {
      // Integer feasible.
      if (!have_incumbent || lp.objective < incumbent_obj) {
        have_incumbent = true;
        ++incumbents_found;
        nodes_since_improve = 0;
        if (obs::enabled()) obs::instant("mip/incumbent");
        incumbent_obj = lp.objective;
        result.x = lp.x;
        // Snap integer variables exactly.
        for (std::size_t j = 0; j < n; ++j) {
          if (model.variable(j).type != VarType::Continuous) {
            result.x[j] = std::round(result.x[j]);
          }
        }
        result.objective = incumbent_obj;
      }
      if (options.first_feasible) {
        result.status = MipStatus::Feasible;
        finalize(result);
        return result;
      }
      continue;
    }

    // Reduced-cost bound propagation: under an incumbent, a nonbasic integer
    // variable with reduced cost rc can move at most gap/rc from its bound
    // before the LP bound passes the incumbent — tighten the opposite bound.
    // The tightenings extend this node's path, so the whole subtree inherits
    // them and the trail rewinds them on backtrack.
    if (options.reduced_cost_fixing && have_incumbent &&
        solver.factor_valid()) {
      const double gap = (incumbent_obj - 1e-9) - lp.objective;
      if (gap > 0.0) {
        const Vec rc = solver.reduced_costs();
        for (std::size_t j = 0; j < n; ++j) {
          if (model.variable(j).type == VarType::Continuous) continue;
          const VarStatus st = solver.column_status(j);
          if (st == VarStatus::Basic) continue;
          const double lo = solver.lower_bound(j);
          const double hi = solver.upper_bound(j);
          if (hi - lo < 0.5) continue;  // already fixed
          double new_lo = lo;
          double new_hi = hi;
          if (st == VarStatus::AtLower && rc[j] > 1e-9) {
            new_hi = lo + std::floor(gap / rc[j] + options.int_tol);
          } else if (st == VarStatus::AtUpper && rc[j] < -1e-9) {
            new_lo = hi - std::floor(gap / (-rc[j]) + options.int_tol);
          } else {
            continue;
          }
          new_hi = std::min(new_hi, hi);
          new_lo = std::max(new_lo, lo);
          if (new_hi >= hi - 0.5 && new_lo <= lo + 0.5) continue;
          path = std::make_shared<const PathDelta>(PathDelta{
              j, new_lo, new_hi, path, (path ? path->depth : 0) + 1});
          applied.push_back({path, lo, hi});
          solver.set_bounds(j, new_lo, new_hi);
          ++result.rc_fixings;
        }
      }
    }

    // ---- branching variable selection ------------------------------------
    std::size_t bvar = frac;
    bool node_pruned = false;
    if (options.pseudo_cost_branching) {
      struct BranchCand {
        std::size_t var;
        double frac;  // min-fractionality
      };
      std::vector<BranchCand> cands;
      for (std::size_t j = 0; j < n; ++j) {
        if (model.variable(j).type == VarType::Continuous) continue;
        const double f = lp.x[j] - std::floor(lp.x[j]);
        const double mf = std::min(f, 1.0 - f);
        if (mf > options.int_tol) cands.push_back({j, mf});
      }

      // Strong-branching probes seed unreliable pseudo-costs at shallow
      // depth: both bound directions are test-solved from this node's basis.
      if (node.branch_depth < options.strong_branch_depth &&
          options.strong_branch_candidates > 0) {
        std::vector<std::size_t> probe;  // indices into cands
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const std::size_t j = cands[i].var;
          if (std::min(pc_cnt_dn[j], pc_cnt_up[j]) < options.reliability) {
            probe.push_back(i);
          }
        }
        std::stable_sort(probe.begin(), probe.end(),
                         [&](std::size_t a, std::size_t b) {
                           return cands[a].frac > cands[b].frac;
                         });
        if (probe.size() > options.strong_branch_candidates) {
          probe.resize(options.strong_branch_candidates);
        }
        if (!probe.empty()) {
          const BasisState probe_base = solver.basis();
          for (std::size_t pi : probe) {
            if (watch.seconds() > options.time_limit_seconds) break;
            BranchCand& cand = cands[pi];
            const std::size_t v = cand.var;
            const double xv = lp.x[v];
            const double fl = std::floor(xv);
            const double ce = fl + 1.0;
            const double lo = solver.lower_bound(v);
            const double hi = solver.upper_bound(v);
            bool down_inf = fl < lo - 1e-9;
            bool up_inf = ce > hi + 1e-9;
            if (!down_inf) {
              solver.set_bounds(v, lo, fl);
              const LpResult pd = solver.solve_warm();
              ++result.strong_branches;
              result.simplex_iterations += pd.iterations;
              if (pd.status == LpStatus::Optimal) {
                pc_sum_dn[v] +=
                    std::max(pd.objective - lp.objective, 0.0) / (xv - fl);
                ++pc_cnt_dn[v];
              } else if (pd.status == LpStatus::Infeasible) {
                down_inf = true;
              }
              solver.set_bounds(v, lo, hi);
              solver.restore(probe_base);
            }
            if (!up_inf) {
              solver.set_bounds(v, ce, hi);
              const LpResult pu = solver.solve_warm();
              ++result.strong_branches;
              result.simplex_iterations += pu.iterations;
              if (pu.status == LpStatus::Optimal) {
                pc_sum_up[v] +=
                    std::max(pu.objective - lp.objective, 0.0) / (ce - xv);
                ++pc_cnt_up[v];
              } else if (pu.status == LpStatus::Infeasible) {
                up_inf = true;
              }
              solver.set_bounds(v, lo, hi);
              solver.restore(probe_base);
            }
            if (down_inf && up_inf) {
              // Neither side admits a feasible LP: the subtree is dead.
              ++infeasible_nodes;
              node_pruned = true;
              break;
            }
            if (down_inf || up_inf) {
              // One side is infeasible — a domain reduction, not a branch.
              const double forced_lo = down_inf ? ce : lo;
              const double forced_hi = up_inf ? fl : hi;
              if (node.path == nullptr && applied.empty()) {
                // Root-level probe fixing: globally valid, goes on the
                // model's replayable trail.
                model.record_global_tightening(v, forced_lo, forced_hi);
                solver.set_bounds(v, forced_lo, forced_hi);
              } else {
                path = std::make_shared<const PathDelta>(PathDelta{
                    v, forced_lo, forced_hi, path,
                    (path ? path->depth : 0) + 1});
                applied.push_back({path, lo, hi});
                solver.set_bounds(v, forced_lo, forced_hi);
              }
              ++result.rc_fixings;
              cand.frac = -1.0;  // exclude from selection
            }
          }
        }
      }
      if (node_pruned) continue;

      // Score: product of estimated objective gains per direction, falling
      // back to the average pseudo-cost for unobserved directions. Ties break
      // on larger fractionality, then the smaller variable index (ascending
      // scan keeps the first, i.e. smallest, index).
      double avg_dn = 0.0, avg_up = 0.0;
      std::size_t k_dn = 0, k_up = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (pc_cnt_dn.size() <= j) break;
        if (pc_cnt_dn[j] > 0) {
          avg_dn += pc_sum_dn[j] / static_cast<double>(pc_cnt_dn[j]);
          ++k_dn;
        }
        if (pc_cnt_up[j] > 0) {
          avg_up += pc_sum_up[j] / static_cast<double>(pc_cnt_up[j]);
          ++k_up;
        }
      }
      avg_dn = k_dn > 0 ? avg_dn / static_cast<double>(k_dn) : 0.0;
      avg_up = k_up > 0 ? avg_up / static_cast<double>(k_up) : 0.0;

      double best_score = -1.0;
      double best_frac = -1.0;
      std::size_t best_var = kNoVar;
      for (const BranchCand& cand : cands) {
        if (cand.frac < 0.0) continue;  // excluded by a probe fixing
        const std::size_t j = cand.var;
        const double f_dn = lp.x[j] - std::floor(lp.x[j]);
        const double f_up = 1.0 - f_dn;
        const double pc_dn = pc_cnt_dn[j] > 0
                                 ? pc_sum_dn[j] /
                                       static_cast<double>(pc_cnt_dn[j])
                                 : avg_dn;
        const double pc_up = pc_cnt_up[j] > 0
                                 ? pc_sum_up[j] /
                                       static_cast<double>(pc_cnt_up[j])
                                 : avg_up;
        const double score = std::max(pc_dn * f_dn, 1e-12) *
                             std::max(pc_up * f_up, 1e-12);
        if (score > best_score ||
            (score == best_score && cand.frac > best_frac)) {
          best_score = score;
          best_frac = cand.frac;
          best_var = j;
        }
      }
      if (best_var == kNoVar) {
        // Every candidate was fixed away by probes; the LP point is stale.
        // Re-queue the node (path now carries the fixings) and re-solve.
        dive.push_back(Node{path, options.warm_start
                                      ? std::make_shared<const BasisState>(
                                            solver.basis())
                                      : nullptr,
                            lp.objective, node.branch_depth, kNoVar, 0, 0.0,
                            node_seq++});
        continue;
      }
      bvar = best_var;
    }

    // Branch. Push the far child first so the near (nearest-integer) child is
    // explored next -> diving behaviour. Both children share one snapshot of
    // this node's optimal basis; the near child finds it still live in the
    // solver and dives without a restore.
    const double v = lp.x[bvar];
    const double floor_v = std::floor(v);
    const double ceil_v = floor_v + 1.0;
    const double eff_lb = solver.lower_bound(bvar);
    const double eff_ub = solver.upper_bound(bvar);
    std::shared_ptr<const BasisState> snap;
    if (options.warm_start) {
      snap = std::make_shared<const BasisState>(solver.basis());
      live = snap;
    }
    const std::size_t child_path_depth = (path ? path->depth : 0) + 1;
    auto down_path = std::make_shared<const PathDelta>(
        PathDelta{bvar, eff_lb, floor_v, path, child_path_depth});
    auto up_path = std::make_shared<const PathDelta>(
        PathDelta{bvar, ceil_v, eff_ub, path, child_path_depth});
    Node down{std::move(down_path), snap,           lp.objective,
              node.branch_depth + 1, bvar,          -1,
              v - floor_v,           0};
    Node up{std::move(up_path),    std::move(snap), lp.objective,
            node.branch_depth + 1, bvar,            +1,
            ceil_v - v,            0};

    const bool near_is_up = (v - floor_v) >= 0.5;
    Node& near = near_is_up ? up : down;
    Node& far = near_is_up ? down : up;
    near.seq = node_seq++;
    far.seq = node_seq++;
    if (options.node_selection == NodeSelection::DepthFirst) {
      dive.push_back(std::move(far));
      dive.push_back(std::move(near));
    } else {
      if (plunge_budget > 0) {
        --plunge_budget;
        open.push(std::move(far));
        dive.push_back(std::move(near));
      } else {
        open.push(std::move(near));
        open.push(std::move(far));
      }
    }
  }

  finalize(result);
  if (have_incumbent) {
    result.status = search_truncated ? MipStatus::Feasible : MipStatus::Optimal;
  } else if (search_truncated) {
    result.status = watch.seconds() > options.time_limit_seconds
                        ? MipStatus::TimeLimit
                        : MipStatus::NodeLimit;
  } else {
    result.status = MipStatus::Infeasible;
  }
  if (have_incumbent) result.objective = incumbent_obj;
  return result;
}

}  // namespace aspe::opt
