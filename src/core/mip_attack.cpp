#include "core/mip_attack.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "opt/simplex.hpp"
#include "par/parallel.hpp"

namespace aspe::core {

using opt::LinExpr;
using opt::Model;
using opt::Sense;
using scheme::cipher_score;

Model build_mip_attack_model(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options) {
  require(!known_pairs.empty(), "MIP attack: no known pairs");
  require(sigma > 0.0, "MIP attack: sigma must be positive");
  const std::size_t d = known_pairs[0].record.size();

  Model model;
  const std::size_t rhat = model.add_variable(options.rhat_min,
                                              options.rhat_max,
                                              opt::VarType::Continuous, "rhat");
  const std::size_t that = model.add_variable(options.that_min,
                                              options.that_max,
                                              opt::VarType::Continuous, "that");
  std::vector<std::size_t> q(d);
  for (std::size_t k = 0; k < d; ++k) q[k] = model.add_binary();

  // Constraint 4: the query has at least one keyword.
  LinExpr at_least_one;
  for (std::size_t k = 0; k < d; ++k) at_least_one.push_back({q[k], 1.0});
  model.add_constraint(at_least_one, Sense::GreaterEqual, 1.0);

  // Constraint 5, one band per known pair:
  //   mu - l sigma <= rhat*c_i - that - P_i.Q <= mu + l sigma
  const double lo = mu - options.l * sigma;
  const double hi = mu + options.l * sigma;
  for (const auto& pair : known_pairs) {
    require(pair.record.size() == d, "MIP attack: inconsistent record length");
    const double c = cipher_score(pair.cipher, cipher_trapdoor);
    LinExpr expr;
    expr.push_back({rhat, c});
    expr.push_back({that, -1.0});
    for (std::size_t k = 0; k < d; ++k) {
      if (pair.record[k] != 0) expr.push_back({q[k], -1.0});
    }
    model.add_constraint(expr, Sense::GreaterEqual, lo);
    model.add_constraint(std::move(expr), Sense::LessEqual, hi);
  }
  return model;
}

namespace detail {

RecordIncidence::RecordIncidence(
    const std::vector<sse::KnownBinaryPair>& known_pairs) {
  const std::size_t m = known_pairs.size();
  const std::size_t d = m > 0 ? known_pairs[0].record.size() : 0;
  keyword_start_.assign(m + 1, 0);
  row_start_.assign(d + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const BitVec& p = known_pairs[i].record;
    for (std::size_t k = 0; k < d; ++k) {
      if (p[k] == 0) continue;
      keywords_.push_back(static_cast<std::uint32_t>(k));
      ++row_start_[k + 1];
    }
    keyword_start_[i + 1] = keywords_.size();
  }
  for (std::size_t k = 0; k < d; ++k) row_start_[k + 1] += row_start_[k];
  rows_.resize(keywords_.size());
  std::vector<std::size_t> fill(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    for (const std::uint32_t k : keywords_in(i)) {
      rows_[fill[k]++] = static_cast<std::uint32_t>(i);
    }
  }
}

FlipScorer::FlipScorer(const RecordIncidence& incidence, const Vec& c,
                       double mu, const MipAttackOptions& options)
    : incidence_(incidence),
      mu_(mu),
      rhat_min_(options.rhat_min),
      rhat_max_(options.rhat_max),
      that_min_(options.that_min),
      that_max_(options.that_max) {
  const std::size_t m = c.size();
  for (std::size_t i = 0; i < m; ++i) cbar_ += c[i];
  cbar_ /= static_cast<double>(m);
  ctilde_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    ctilde_[i] = c[i] - cbar_;
    sxx_ += ctilde_[i] * ctilde_[i];
  }
  const std::size_t d = incidence.num_keywords();
  col_size_.resize(d);
  ptc_.assign(d, 0.0);
  for (std::size_t k = 0; k < d; ++k) {
    const auto rows = incidence.rows_with(k);
    col_size_[k] = static_cast<std::int64_t>(rows.size());
    for (const std::uint32_t i : rows) ptc_[k] += ctilde_[i];
  }
}

void FlipScorer::reset(const BitVec& q) {
  const std::size_t m = ctilde_.size();
  q_ = q;
  ones_ = popcount(q_);
  a_.assign(m, 0);
  for (std::size_t k = 0; k < q_.size(); ++k) {
    if (q_[k] == 0) continue;
    for (const std::uint32_t i : incidence_.rows_with(k)) ++a_[i];
  }
  pta_.assign(q_.size(), 0);
  sum_a_ = 0;
  sum_a2_ = 0;
  sxy_ = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (const std::uint32_t k : incidence_.keywords_in(i)) pta_[k] += a_[i];
    sum_a_ += a_[i];
    sum_a2_ += a_[i] * a_[i];
    sxy_ += ctilde_[i] * static_cast<double>(a_[i]);
  }
}

void FlipScorer::flip(std::size_t k) {
  const std::int64_t delta = q_[k] != 0 ? -1 : 1;
  sum_a2_ += 2 * delta * pta_[k] + col_size_[k];
  sum_a_ += delta * col_size_[k];
  for (const std::uint32_t i : incidence_.rows_with(k)) {
    a_[i] += delta;
    for (const std::uint32_t j : incidence_.keywords_in(i)) pta_[j] += delta;
  }
  q_[k] ^= 1;
  ones_ = delta > 0 ? ones_ + 1 : ones_ - 1;
  sxy_ = 0.0;
  for (std::size_t i = 0; i < a_.size(); ++i) {
    sxy_ += ctilde_[i] * static_cast<double>(a_[i]);
  }
}

double FlipScorer::score(std::int64_t sum_a, std::int64_t sum_a2,
                         double sxy) const {
  // Same clamps as the three-pass regression: rhat from the slope, that from
  // the intercept; r0 is the residual mean that's clamp leaves behind.
  const std::int64_t m = static_cast<std::int64_t>(ctilde_.size());
  const double n = static_cast<double>(m);
  const double rhat = std::clamp(sxx_ > 0.0 ? sxy / sxx_ : rhat_min_,
                                 rhat_min_, rhat_max_);
  const double u = rhat * cbar_ - (static_cast<double>(sum_a) / n + mu_);
  const double r0 = u - std::clamp(u, that_min_, that_max_);
  // m * sum a^2 - (sum a)^2 is an exact integer: one rounding in Syy.
  const double syy = static_cast<double>(m * sum_a2 - sum_a * sum_a) / n;
  return rhat * rhat * sxx_ - 2.0 * rhat * sxy + syy + n * r0 * r0;
}

}  // namespace detail

namespace {

/// Result of fitting the two continuous variables for a *fixed* binary Q.
struct RtFit {
  bool feasible = false;
  double rhat = 0.0;
  double that = 0.0;
  /// max(0, -g(rhat*)): how far the best (rhat, that) is from satisfying all
  /// bands; 0 exactly when feasible.
  double violation = 0.0;
};

/// With Q fixed, constraint i pins  that in
/// [rhat*c_i - a_i - (mu + l sigma), rhat*c_i - a_i - (mu - l sigma)].
/// g(rhat) = min_i hi_i - max_i lo_i (clipped by the that bounds) is concave
/// piecewise-linear in rhat; maximize it by ternary search.
RtFit fit_rt(const Vec& c, const Vec& a, double mu, double lsigma,
             const MipAttackOptions& options) {
  const auto gap = [&](double rhat, double* mid) {
    double hi = options.that_max;
    double lo = options.that_min;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double center = rhat * c[i] - a[i] - mu;
      hi = std::min(hi, center + lsigma);
      lo = std::max(lo, center - lsigma);
    }
    if (mid != nullptr) *mid = 0.5 * (lo + hi);
    return hi - lo;
  };
  double lo = options.rhat_min;
  double hi = options.rhat_max;
  for (int it = 0; it < 200; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    const double prev_lo = lo;
    const double prev_hi = hi;
    if (gap(m1, nullptr) < gap(m2, nullptr)) {
      lo = m1;
    } else {
      hi = m2;
    }
    // Fixpoint: every later iteration would recompute the same m1, m2 and
    // branch, so stopping here returns the bits 200 iterations would.
    if (lo == prev_lo && hi == prev_hi) break;
  }
  RtFit fit;
  const double rhat = 0.5 * (lo + hi);
  double mid = 0.0;
  const double g = gap(rhat, &mid);
  fit.rhat = rhat;
  fit.that = std::clamp(mid, options.that_min, options.that_max);
  fit.feasible = g >= 0.0 && fit.that > 0.0;
  fit.violation = std::max(0.0, -g);
  return fit;
}

/// Choose a chunk grain so each chunk carries enough work to amortize the
/// dispatch cost. Depends only on the per-item work estimate, never on the
/// thread count, so chunk boundaries (and results) stay deterministic.
std::size_t grain_for(std::size_t work_per_item) {
  constexpr std::size_t kGrainWork = std::size_t{1} << 14;
  return std::max<std::size_t>(
      1, kGrainWork / std::max<std::size_t>(work_per_item, 1));
}

/// Work tallies of one primal-heuristic run.
struct HeuristicCounters {
  std::size_t fit_probes = 0;    // fit_rt calls
  std::size_t flip_scores = 0;   // polish flips scored
  std::size_t polish_flips = 0;  // polish flips applied
};

/// Root-ordering rounding (correlation, or the LP relaxation on request) +
/// exact (rhat, that) refit + greedy bit-flip repair.
/// Returns a feasible point when it finds one. fit_rt probes fan out over
/// `threads`; every selection scan stays in ascending keyword order, so the
/// result is bit-identical to the serial implementation (all candidate
/// inputs are small-integer vectors — exact in doubles under any grouping).
std::optional<MipAttackResult> primal_heuristic(
    const std::vector<sse::KnownBinaryPair>& known_pairs, const Vec& c,
    double mu, double sigma, const MipAttackOptions& options,
    const Model& model, std::optional<opt::SimplexSolver>& solver,
    std::size_t threads, HeuristicCounters& counters) {
  const std::size_t d = known_pairs[0].record.size();
  const std::size_t m = known_pairs.size();
  const double lsigma = options.l * sigma;
  const detail::RecordIncidence incidence(known_pairs);

  // a +/- delta on the rows whose record contains keyword k — the
  // incremental form of inner_products after flipping bit k.
  const auto add_column = [&](Vec& a, std::size_t k, double delta) {
    for (const std::uint32_t i : incidence.rows_with(k)) a[i] += delta;
  };

  Vec relaxed_q(d, 0.0);
  if (options.root_ordering == RootOrdering::LpRelaxation) {
    obs::Span span("mip/root_relaxation");
    // The solver outlives the heuristic: when rounding/repair fails, branch
    // and bound reuses both the built tableau and the root-LP basis.
    solver.emplace(model, options.solver.lp);
    const opt::LpResult root = solver->solve();
    if (root.status == opt::LpStatus::Infeasible) return std::nullopt;
    if (root.status == opt::LpStatus::Optimal) {
      for (std::size_t k = 0; k < d; ++k) relaxed_q[k] = root.x[2 + k];
    }
  } else {
    obs::Span span("mip/correlation_ordering");
    // Correlation ordering: corr(P_.k , c) per keyword, shifted into [0, 1]
    // so the grow phase's LP-support preference still works.
    double cbar = 0.0;
    for (std::size_t i = 0; i < m; ++i) cbar += c[i];
    cbar /= static_cast<double>(m);
    double cvar = 0.0;
    for (std::size_t i = 0; i < m; ++i) cvar += (c[i] - cbar) * (c[i] - cbar);
    // Each keyword's correlation writes one disjoint slot of relaxed_q.
    par::parallel_for(
        0, d, grain_for(3 * m),
        [&](std::size_t k) {
          double pbar = 0.0;
          for (std::size_t i = 0; i < m; ++i) pbar += known_pairs[i].record[k];
          pbar /= static_cast<double>(m);
          double cov = 0.0, pvar = 0.0;
          for (std::size_t i = 0; i < m; ++i) {
            const double pk = known_pairs[i].record[k] - pbar;
            cov += pk * (c[i] - cbar);
            pvar += pk * pk;
          }
          const double denom = std::sqrt(std::max(pvar * cvar, 1e-30));
          relaxed_q[k] = 0.5 + 0.5 * (cov / denom);  // corr in [-1,1] -> [0,1]
        },
        threads);
  }

  const auto inner_products = [&](const BitVec& q) {
    Vec a(m, 0.0);
    for (std::size_t k = 0; k < d; ++k) {
      if (q[k] != 0) add_column(a, k, 1.0);
    }
    return a;
  };

  // Grow phase: a first feasible point is often a *subset* of the true query
  // (dropping a keyword only shifts the few constraints whose record
  // contains it). Greedily add keywords that keep the point feasible,
  // preferring high LP-relaxation values, so the returned point is maximal —
  // empirically much closer to the true Q (recall) at no precision cost.
  auto grow = [&](BitVec q, RtFit fit) {
    Vec a = inner_products(q);
    std::vector<RtFit> fits(d);
    for (std::size_t round = 0; round < d; ++round) {
      counters.fit_probes += d;
      // Evaluate every candidate addition in parallel (each probe refits the
      // two continuous variables against a + column_k — exact integers, so
      // identical to the serial recomputation)...
      par::parallel_for(
          0, d, grain_for(200 * m),
          [&](std::size_t k) {
            if (q[k] != 0) {
              fits[k] = RtFit{};
              return;
            }
            Vec a2 = a;
            add_column(a2, k, 1.0);
            fits[k] = fit_rt(c, a2, mu, lsigma, options);
          },
          threads);
      // ...then select in ascending keyword order, exactly like the serial
      // scan did.
      std::size_t arg = d;
      double best_score = -opt::kInfinity;
      for (std::size_t k = 0; k < d; ++k) {
        if (q[k] != 0 || !fits[k].feasible) continue;
        // Prefer LP-supported coordinates; break ties toward additions that
        // leave the most slack in the noise bands.
        const double score = relaxed_q[k] - 0.01 * fits[k].violation;
        if (score > best_score) {
          best_score = score;
          arg = k;
        }
      }
      if (arg == d) break;
      q[arg] = 1;
      add_column(a, arg, 1.0);
      fit = fits[arg];
    }
    return std::make_pair(std::move(q), fit);
  };

  // Maximum-likelihood polish. Every point in the Eq. (14) feasible set is a
  // valid output of Algorithm 2, but the set can be loose at small m; the
  // true query is the feasible point whose implied noise terms
  // rhat*c_i - that - a_i look most like N(mu, sigma^2). Coordinate descent
  // on the residual sum of squares of the (rhat, that) regression of
  // a_i + mu on c_i pulls an arbitrary point toward the true one.
  //
  // Unconstrained descent: the feasibility requirement is dropped while
  // walking (the SSE valley between a shrunk feasible point and the true
  // query passes through infeasible intermediates); only the *final* point
  // must satisfy Eq. (14). Returns the local minimum and its SSE.
  detail::FlipScorer scorer(incidence, c, mu, options);
  auto polish = [&](const BitVec& q0) {
    scorer.reset(q0);
    double cur = scorer.sse();
    for (std::size_t round = 0; round < 6 * d; ++round) {
      const BitVec& q = scorer.query();
      const bool last_keyword = scorer.ones() == 1;
      double best_sse = cur;
      std::size_t arg = d;
      for (std::size_t k = 0; k < d; ++k) {
        if (q[k] != 0 && last_keyword) continue;  // keep >= 1 keyword
        const double sse = scorer.flip_sse(k);
        if (sse < best_sse - 1e-9) {
          best_sse = sse;
          arg = k;
        }
      }
      counters.flip_scores += last_keyword ? d - 1 : d;
      if (arg == d) break;  // local minimum
      scorer.flip(arg);
      ++counters.polish_flips;
      cur = best_sse;
    }
    return std::make_pair(scorer.query(), scorer.sse());
  };

  auto package = [&](BitVec q, RtFit fit) {
    MipAttackResult res;
    res.found = true;
    // The point came from the primal heuristic; branch and bound never ran.
    res.status = opt::MipStatus::Heuristic;
    res.query = std::move(q);
    res.rhat = fit.rhat;
    res.that = fit.that;
    return res;
  };

  const std::size_t max_flips =
      options.max_repair_flips > 0 ? options.max_repair_flips : 3 * d;

  // Prefix scan: order coordinates by LP value and test every prefix
  // {top-1, top-2, ..., top-d} as a rounding candidate. This subsumes any
  // fixed threshold and finds a feasible support size directly.
  std::vector<std::size_t> order(d);
  for (std::size_t k = 0; k < d; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return relaxed_q[a] > relaxed_q[b];
  });

  // Fit every prefix in parallel. A chunk rebuilds the prefix inner products
  // at its start (a_s is a 0/1 column sum — exact in doubles under any
  // grouping) and then extends incrementally, so fits[s] is bit-identical to
  // the serial one-prefix-at-a-time recomputation. The grain is a function
  // of d alone; 16-ish chunks keep the rebuild cost a small fraction of the
  // fit_rt work.
  std::vector<RtFit> prefix_fits(d);
  counters.fit_probes += d;
  {
    obs::Span span("mip/prefix_scan");
    par::default_pool().run_chunked(
        0, d, std::max<std::size_t>(1, (d + 15) / 16),
        [&](std::size_t lo, std::size_t hi) {
          Vec a(m, 0.0);
          for (std::size_t s = 0; s < lo; ++s) add_column(a, order[s], 1.0);
          for (std::size_t s = lo; s < hi; ++s) {
            add_column(a, order[s], 1.0);
            prefix_fits[s] = fit_rt(c, a, mu, lsigma, options);
          }
        },
        threads);
  }

  BitVec first_feasible;
  RtFit first_feasible_fit;
  bool have_feasible = false;
  BitVec best_q;
  double best_violation = opt::kInfinity;
  BitVec q_prefix(d, 0);
  for (std::size_t s = 0; s < d; ++s) {
    q_prefix[order[s]] = 1;
    const RtFit& fit = prefix_fits[s];
    if (fit.feasible && !have_feasible) {
      first_feasible = q_prefix;
      first_feasible_fit = fit;
      have_feasible = true;
    }
    if (fit.violation < best_violation) {
      best_violation = fit.violation;
      best_q = q_prefix;
    }
  }

  // Multi-start maximum-likelihood descent: the SSE landscape has scale
  // local minima (a shrunk-support point with a proportionally shrunk rhat
  // fits well), so descend from a ladder of support sizes and keep the
  // global minimum.
  {
    obs::Span span("mip/ml_descent");
    BitVec best_ml;
    double best_sse = opt::kInfinity;
    std::size_t s = 1;
    while (s <= d) {
      BitVec q0(d, 0);
      for (std::size_t i = 0; i < s; ++i) q0[order[i]] = 1;
      auto [qd, sse] = polish(q0);
      if (sse < best_sse) {
        best_sse = sse;
        best_ml = std::move(qd);
      }
      s = std::max(s + 1, s + s / 3);  // geometric-ish ladder
    }
    if (!best_ml.empty()) {
      counters.fit_probes += 1;
      const RtFit fit = fit_rt(c, inner_products(best_ml), mu, lsigma, options);
      if (fit.feasible) return package(std::move(best_ml), fit);
    }
  }

  if (have_feasible) {
    obs::Span span("mip/grow");
    auto [q, fit] = grow(std::move(first_feasible), first_feasible_fit);
    return package(std::move(q), fit);
  }

  // Greedy repair from the best rounding: flip the single bit that most
  // reduces the violation; stop at feasibility or a local minimum. Candidate
  // flips are probed in parallel, selected in ascending keyword order.
  obs::Span repair_span("mip/repair");
  BitVec q = std::move(best_q);
  Vec a = inner_products(q);
  std::vector<RtFit> flip_fits(d);
  for (std::size_t flip = 0; flip < max_flips; ++flip) {
    const std::size_t ones = popcount(q);
    counters.fit_probes += d;
    par::parallel_for(
        0, d, grain_for(200 * m),
        [&](std::size_t k) {
          const std::size_t flipped = q[k] != 0 ? ones - 1 : ones + 1;
          if (flipped < 1) {
            flip_fits[k] = RtFit{};
            flip_fits[k].violation = opt::kInfinity;
            return;
          }
          Vec a2 = a;
          add_column(a2, k, q[k] != 0 ? -1.0 : 1.0);
          flip_fits[k] = fit_rt(c, a2, mu, lsigma, options);
        },
        threads);
    double cur = best_violation;
    std::size_t arg = d;
    for (std::size_t k = 0; k < d; ++k) {
      if (flip_fits[k].violation < cur - 1e-12) {
        cur = flip_fits[k].violation;
        arg = k;
      }
    }
    if (arg == d) break;  // local minimum
    add_column(a, arg, q[arg] != 0 ? -1.0 : 1.0);
    q[arg] ^= 1;
    best_violation = cur;
    if (flip_fits[arg].feasible) return package(q, flip_fits[arg]);
  }
  return std::nullopt;
}

}  // namespace

MipAttackResult run_mip_attack(
    const std::vector<sse::KnownBinaryPair>& known_pairs,
    const scheme::CipherPair& cipher_trapdoor, double mu, double sigma,
    const MipAttackOptions& options, const ExecContext& ctx) {
  Stopwatch watch;
  obs::ScopedRecording rec(ctx.sink);
  // Root span only when this overload owns the recording, so the trace has
  // exactly one "mip/attack" root regardless of the entry point.
  std::optional<obs::Span> root;
  if (rec.active()) root.emplace("mip/attack");

  Model model;
  {
    obs::Span span("mip/build_model");
    model = build_mip_attack_model(known_pairs, cipher_trapdoor, mu, sigma,
                                   options);
  }

  // One solver for the whole attack: the LP root ordering builds the
  // tableau and leaves an optimal basis, which then warm-starts the root of
  // branch and bound. Constructed lazily — the default correlation ordering
  // never touches the simplex unless the heuristic fails.
  std::optional<opt::SimplexSolver> solver;

  MipAttackResult result;
  HeuristicCounters heuristic_counters;
  bool answered = false;
  if (options.use_heuristic) {
    obs::Span span("mip/heuristic");
    Vec c(known_pairs.size());
    for (std::size_t i = 0; i < known_pairs.size(); ++i) {
      c[i] = cipher_score(known_pairs[i].cipher, cipher_trapdoor);
    }
    auto heuristic =
        primal_heuristic(known_pairs, c, mu, sigma, options, model, solver,
                         ctx.resolved_threads(), heuristic_counters);
    if (heuristic.has_value()) {
      result = *std::move(heuristic);
      answered = true;
      obs::instant("mip/heuristic_feasible");
    }
  }

  std::size_t bnb_nodes = 0;
  std::size_t bnb_pivots = 0;
  if (!answered) {
    obs::Span span("mip/branch_and_bound");
    if (!solver.has_value()) solver.emplace(model, options.solver.lp);
    const opt::MipResult mip = opt::solve_mip(model, *solver, options.solver);
    result.status = mip.status;
    bnb_nodes = mip.nodes_explored;
    bnb_pivots = mip.simplex_iterations;
    if (mip.has_solution()) {
      result.found = true;
      result.rhat = mip.x[0];
      result.that = mip.x[1];
      const std::size_t d = known_pairs[0].record.size();
      result.query.resize(d);
      for (std::size_t k = 0; k < d; ++k) {
        result.query[k] = mip.x[2 + k] > 0.5 ? 1 : 0;
      }
    }
  }

  result.telemetry.counters["mip.model_rows"] =
      static_cast<double>(model.num_constraints());
  result.telemetry.counters["mip.model_cols"] =
      static_cast<double>(model.num_variables());
  result.telemetry.counters["mip.heuristic.fit_probes"] =
      static_cast<double>(heuristic_counters.fit_probes);
  result.telemetry.counters["mip.heuristic.flip_scores"] =
      static_cast<double>(heuristic_counters.flip_scores);
  result.telemetry.counters["mip.heuristic.polish_flips"] =
      static_cast<double>(heuristic_counters.polish_flips);
  result.telemetry.counters["mip.bnb.nodes"] = static_cast<double>(bnb_nodes);
  result.telemetry.counters["mip.bnb.simplex_iterations"] =
      static_cast<double>(bnb_pivots);

  root.reset();
  result.telemetry.wall_seconds = watch.seconds();
  result.telemetry.absorb(rec.finish());
  return result;
}

MipAttackResult run_mip_attack(const sse::MrseKpaView& view,
                               std::size_t trapdoor_id, double mu, double sigma,
                               const MipAttackOptions& options,
                               const ExecContext& ctx) {
  require(trapdoor_id < view.observed.cipher_trapdoors.size(),
          "MIP attack: no such trapdoor");
  return run_mip_attack(view.known_pairs,
                        view.observed.cipher_trapdoors[trapdoor_id], mu, sigma,
                        options, ctx);
}

}  // namespace aspe::core
