#include "nmf/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

namespace aspe::nmf {

using linalg::ConstVecView;
using linalg::Matrix;
using linalg::VecView;

namespace {

using namespace linalg::simd;

// Rows of one factor column summed together: four two-lane chains.
constexpr std::size_t kFactorTile = 8;
// Spare entries per factor row and in Scratch::acc, so a column tile or a
// forward update starting at any live row stays inside the buffer.
constexpr std::size_t kFactorSlack = kFactorTile;

// Dual entries computed together: four two-lane chains.
constexpr std::size_t kDualTile = 8;

/// w = f - sum_t x[t] rows[t] over n entries: entry j is the chain
/// f[j] - rows[0][j] x[0] - rows[1][j] x[1] - ..., in list order, with
/// kDualTile entries held in registers while the rows stream past.
void dual_residual(std::size_t n, const double* f, const double* const* rows,
                   const double* x, std::size_t count, double* w) {
  std::size_t j0 = 0;
  for (; j0 + kDualTile <= n; j0 += kDualTile) {
    D2 acc[kDualTile / 2] = {};
    for (std::size_t u = 0; u < kDualTile / 2; ++u) {
      acc[u] = d2_load(f + j0 + 2 * u);
    }
    for (std::size_t t = 0; t < count; ++t) {
      const double* row = rows[t] + j0;
      const D2 xt{x[t], x[t]};
      for (std::size_t u = 0; u < kDualTile / 2; ++u) {
        acc[u] = acc[u] - d2_load(row + 2 * u) * xt;
      }
    }
    for (std::size_t u = 0; u < kDualTile / 2; ++u) {
      d2_store(w + j0 + 2 * u, acc[u]);
    }
  }
  for (std::size_t j = j0; j < n; ++j) {
    double s = f[j];
    for (std::size_t t = 0; t < count; ++t) s -= rows[t][j] * x[t];
    w[j] = s;
  }
}

/// The buffers one nnls_gram call works in. Nothing in them outlives the
/// call (a warm call refactors its inherited set from the new G), so the
/// workspaces on one thread share a single set through thread_scratch().
struct Scratch {
  // Factor of the passive Gram block, stored by columns: row j holds
  // column j of L, entries [j, k) in use. Each row carries kFactorSlack
  // spare entries so the two-lane column updates may read past the last
  // live row.
  Matrix l;
  Vec acc;  // per-column sums of the factor and the forward solve
  Vec z;    // passive-block solution, aligned with the passive set
  Vec x;    // current iterate on the passive set, aligned with it
  Vec f;    // contiguous copy of the right-hand side
  Vec w;    // dual
  std::vector<std::size_t> next;       // inner-loop survivors
  std::vector<std::size_t> inherited;  // passive set on entry, copied lazily
  std::vector<const double*> dual_rows;  // Gram rows of nonzero x
  Vec dual_x;                            // and their x values

  /// Size every buffer for a dimension-n problem. A no-op once this thread
  /// has solved at this size: a solve then allocates only when its support
  /// outgrows the factor buffer.
  void reserve(std::size_t n) {
    for (Vec* v : {&z, &x, &f, &w, &dual_x}) v->reserve(n);
    next.reserve(n);
    inherited.reserve(n);
    dual_rows.reserve(n);
  }

  void ensure_capacity(std::size_t k, std::size_t n) {
    if (l.rows() >= k) return;
    // Geometric growth, clamped to the Gram dimension (the support can
    // never exceed it). Valid columns are preserved for a partial
    // refactor that follows; refactor_from recomputes the rest.
    const std::size_t cap =
        std::min(std::max({k, 2 * l.rows(), std::size_t{8}}), n);
    Matrix grown(cap, cap + kFactorSlack, 0.0);
    for (std::size_t j = 0; j < l.rows(); ++j) {
      std::copy_n(l.row_ptr(j), l.cols(), grown.row_ptr(j));
    }
    l = std::move(grown);
    acc.assign(l.cols(), 0.0);
  }
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Recompute factor rows [from, k) of the passive set P against g and
/// return how many that was. Rows < from stay valid: Cholesky row i
/// depends only on rows < i, so inserting or removing the variable at
/// sorted position p invalidates rows >= p and nothing else. Throws
/// NumericalError when a pivot is not positive.
///
/// Left-looking: column j of L (row j of s.l) from the columns before it,
///   l(i, j) = (g(P_i, P_j) - sum_{p<j} l(i, p) l(j, p)) / l(j, j),
///   l(j, j) = sqrt(g(P_j, P_j) - sum_{p<j} l(j, p)^2),
/// each sum one chain in ascending p from 0.0: the per-entry arithmetic of
/// linalg::Cholesky, so a partial pass is exactly the suffix of a full
/// one. The chains of one column share l(j, p) and are independent, so
/// they advance kFactorTile rows at a time. Only rows >= from are
/// recomputed: columns < from from row `from` down, later columns whole.
std::size_t refactor_from(const Matrix& g,
                          const std::vector<std::size_t>& passive,
                          std::size_t from, Scratch& s) {
  const std::size_t k = passive.size();
  s.ensure_capacity(k, g.rows());
  Matrix& l = s.l;
  double* acc = s.acc.data();
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t r0 = std::max(j, from);
    for (std::size_t i0 = r0; i0 < k; i0 += kFactorTile) {
      D2 sum[kFactorTile / 2] = {};
      for (std::size_t p = 0; p < j; ++p) {
        const double* col = l.row_ptr(p) + i0;
        const double v = l(p, j);
        const D2 ljp{v, v};
        for (std::size_t u = 0; u < kFactorTile / 2; ++u) {
          sum[u] = sum[u] + d2_load(col + 2 * u) * ljp;
        }
      }
      for (std::size_t u = 0; u < kFactorTile / 2; ++u) {
        d2_store(acc + (i0 - r0) + 2 * u, sum[u]);
      }
    }
    double* lj = l.row_ptr(j);
    const std::size_t gj = passive[j];
    std::size_t i = r0;
    if (i == j) {
      const double diag = g(gj, gj) - acc[0];
      if (!(diag > 0.0) || !std::isfinite(diag)) {
        throw NumericalError(
            "nnls_gram: passive Gram block is not positive definite");
      }
      lj[j] = std::sqrt(diag);
      ++i;
    }
    // The column's divisions are independent: two per instruction.
    const double ljj = lj[j];
    const D2 ljj2{ljj, ljj};
    for (; i + 2 <= k; i += 2) {
      const D2 gij{g(passive[i], gj), g(passive[i + 1], gj)};
      d2_store(lj + i, (gij - d2_load(acc + (i - r0))) / ljj2);
    }
    if (i < k) lj[i] = (g(passive[i], gj) - acc[i - r0]) / ljj;
  }
  return k - from;
}

/// s.z <- G_PP^{-1} f_P via the current factor (forward + back subst), with
/// f_P read from s.f.
void solve_passive(const std::vector<std::size_t>& passive, Scratch& s) {
  const std::size_t k = passive.size();
  s.z.resize(k);
  double* z = s.z.data();
  double* acc = s.acc.data();
  // L y = f_P, right-looking: once y_p is known, column p of L adds its
  // term to every later row's sum, so each sum still runs in ascending p
  // from 0.0 while the rows advance two at a time.
  std::fill(acc, acc + k, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    const double* lp = s.l.row_ptr(p);
    const double yp = (s.f[passive[p]] - acc[p]) / lp[p];
    z[p] = yp;
    const D2 yv{yp, yp};
    for (std::size_t i = p + 1; i < k; i += 2) {
      d2_store(acc + i, d2_load(acc + i) + d2_load(lp + i) * yv);
    }
  }
  // L^T z = y: row ii of L^T is column ii of L, contiguous in s.l.
  for (std::size_t ii = k; ii-- > 0;) {
    const double* li = s.l.row_ptr(ii);
    double sum = 0.0;
    for (std::size_t p = ii + 1; p < k; ++p) sum += li[p] * z[p];
    z[ii] = (z[ii] - sum) / li[ii];
  }
}

}  // namespace

void NnlsWorkspace::clear() { passive_.clear(); }

void NnlsWorkspace::seed_from_support(ConstVecView x) {
  passive_.clear();
  dim_ = x.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0) passive_.push_back(i);
  }
}

void nnls_gram(const Matrix& g, ConstVecView f, VecView x, NnlsWorkspace& ws,
               const NnlsOptions& options) {
  require(g.rows() == g.cols(), "nnls_gram: Gram matrix must be square");
  require(f.size() == g.rows() && x.size() == g.rows(),
          "nnls_gram: dimension mismatch");
  const std::size_t n = g.rows();
  const std::size_t max_outer = options.max_outer_iterations > 0
                                    ? options.max_outer_iterations
                                    : 3 * n + 30;
  ws.outer_iterations_ = 0;
  ws.factor_rows_ = 0;
  ws.set_reused_ = false;

  // A workspace carried over from a different problem size starts cold.
  if (!ws.passive_.empty() && (ws.dim_ != n || ws.passive_.back() >= n)) {
    ws.passive_.clear();
  }
  ws.dim_ = n;
  ws.passive_.reserve(n);
  Scratch& s = thread_scratch();
  s.reserve(n);

  // The solve works on contiguous copies: s.f holds f, and s.x holds x on
  // the passive set (x is zero everywhere else until the final write).
  s.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.f[i] = f[i];
  // Scale-aware dual tolerance: max(1, max_i |f_i|), NaN entries ignored
  // as std::max ignores them. A maximum does not depend on the order it is
  // taken in, so four running maxima break the serial chain.
  double scales[4] = {1.0, 1.0, 1.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) {
    scales[i % 4] = std::max(scales[i % 4], std::abs(s.f[i]));
  }
  const double tol = options.tol * std::max(std::max(scales[0], scales[1]),
                                            std::max(scales[2], scales[3]));

  bool warm = !ws.passive_.empty();
  bool have_z = false;
  if (warm) {
    // The Gram matrix changed since the set was recorded (ANLS updates the
    // other factor between half-steps): refactor the inherited passive
    // block against the new G before trusting it. A non-SPD block (possible
    // when the new G shrank the well-conditioned cone) abandons the warm
    // start instead of failing the solve.
    try {
      ws.factor_rows_ += refactor_from(g, ws.passive_, 0, s);
      solve_passive(ws.passive_, s);
      have_z = true;
    } catch (const NumericalError&) {
      ws.clear();
      warm = false;
    }
  }
  ws.warm_started_ = warm;
  // The support keeps the caller's previous values as the feasible start
  // of the inner loop; off-support entries are written as zero at the end.
  s.x.clear();
  for (std::size_t j : ws.passive_) s.x.push_back(x[j]);

  // The inherited set is copied only when the solve first changes it, so a
  // warm hit never copies.
  bool changed = false;
  auto about_to_change = [&] {
    if (!changed && warm) {
      s.inherited.assign(ws.passive_.begin(), ws.passive_.end());
    }
    changed = true;
  };

  // Inner loop: restore primal feasibility of the passive LS solution.
  // Returns with s.x holding the (feasible) passive solution.
  auto run_inner = [&](bool z_ready) {
    for (std::size_t inner = 0; inner < 4 * n + 40; ++inner) {
      if (!z_ready) solve_passive(ws.passive_, s);
      z_ready = false;
      const std::size_t k = ws.passive_.size();
      double* xs = s.x.data();
      const double* z = s.z.data();
      double alpha = 1.0;
      bool all_positive = true;
      for (std::size_t a = 0; a < k; ++a) {
        if (z[a] > 0.0) continue;
        all_positive = false;
        const double denom = xs[a] - z[a];
        if (denom > 0.0) alpha = std::min(alpha, xs[a] / denom);
      }
      if (all_positive) {
        std::copy_n(z, k, xs);
        return;
      }
      // Step toward z until the first passive variable hits zero, then
      // drop passive variables that became (numerically) zero; the factor
      // stays valid above the lowest removed position.
      s.next.clear();
      std::size_t lowest_removed = k;
      std::size_t kept = 0;
      for (std::size_t a = 0; a < k; ++a) {
        const double step = xs[a] + alpha * (z[a] - xs[a]);
        if (step > 1e-12) {
          s.next.push_back(ws.passive_[a]);
          xs[kept++] = step;
        } else {
          lowest_removed = std::min(lowest_removed, s.next.size());
        }
      }
      s.x.resize(kept);
      if (lowest_removed < k) {
        about_to_change();
        ws.passive_.assign(s.next.begin(), s.next.end());
        ws.factor_rows_ += refactor_from(g, ws.passive_, lowest_removed, s);
      }
      if (ws.passive_.empty()) return;
    }
  };

  if (have_z) {
    bool feasible = true;
    for (double z : s.z) feasible = feasible && z > 0.0;
    if (feasible) {
      s.x.assign(s.z.begin(), s.z.end());
    } else {
      run_inner(true);
    }
  }

  s.w.resize(n);
  for (std::size_t outer = 0; outer < max_outer; ++outer) {
    ws.outer_iterations_ = outer + 1;
    // Dual w = f - G x, summed over the rows where x is nonzero.
    s.dual_rows.clear();
    s.dual_x.clear();
    for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
      if (s.x[a] == 0.0) continue;
      s.dual_rows.push_back(g.row_ptr(ws.passive_[a]));
      s.dual_x.push_back(s.x[a]);
    }
    dual_residual(n, s.f.data(), s.dual_rows.data(), s.dual_x.data(),
                  s.dual_x.size(), s.w.data());
    // Most positive dual among active (zero) variables: passive entries
    // are masked with -inf, which never beats the tolerance.
    for (std::size_t j : ws.passive_) {
      s.w[j] = -std::numeric_limits<double>::infinity();
    }
    std::size_t enter = n;
    double best = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (s.w[j] > best) {
        best = s.w[j];
        enter = j;
      }
    }
    if (enter == n) break;  // KKT satisfied
    // Sorted insertion keeps the factor canonical; only rows from the
    // insertion position down need recomputing.
    const auto pos =
        std::lower_bound(ws.passive_.begin(), ws.passive_.end(), enter);
    const std::size_t p =
        static_cast<std::size_t>(pos - ws.passive_.begin());
    about_to_change();
    ws.passive_.insert(pos, enter);
    s.x.insert(s.x.begin() + static_cast<std::ptrdiff_t>(p), 0.0);
    ws.factor_rows_ += refactor_from(g, ws.passive_, p, s);
    run_inner(false);
  }
  ws.set_reused_ = warm && (!changed || ws.passive_ == s.inherited);

  // Write the solution: s.x on the passive set, zero everywhere else.
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.0;
  for (std::size_t a = 0; a < ws.passive_.size(); ++a) {
    x[ws.passive_[a]] = s.x[a];
  }
}

void nnls_gram(const Matrix& g, ConstVecView f, VecView x,
               const NnlsOptions& options) {
  NnlsWorkspace ws;
  nnls_gram(g, f, x, ws, options);
}

Vec nnls_gram(const Matrix& g, const Vec& f, const NnlsOptions& options) {
  Vec x(g.rows(), 0.0);
  nnls_gram(g, ConstVecView(f), VecView(x), options);
  return x;
}

Vec nnls(const Matrix& a, const Vec& b, const NnlsOptions& options) {
  require(a.rows() == b.size(), "nnls: dimension mismatch");
  const std::size_t n = a.cols();
  Matrix g(n, n, 0.0);
  linalg::gemm(1.0, a.cview(), linalg::Op::Transpose, a.cview(),
               linalg::Op::None, 0.0, g.view());
  const Vec f = a.apply_transposed(b);
  Vec x(n, 0.0);
  nnls_gram(g, ConstVecView(f), VecView(x), options);
  return x;
}

}  // namespace aspe::nmf
