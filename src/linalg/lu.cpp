#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.hpp"

namespace aspe::linalg {

namespace {
constexpr double kPivotTolerance = 1e-12;

/// acc[c] += coef[j] * y(j, c) for the rows j in [j0, j1), in ascending j:
/// every lane runs the same chain of rounded multiplies and adds as the
/// scalar dot in solve_into, four rows per pass over acc.
void accumulate_rows(const double* coef, const Matrix& y, std::size_t j0,
                     std::size_t j1, double* __restrict acc) {
  const std::size_t n = y.cols();
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const double c0 = coef[j], c1 = coef[j + 1], c2 = coef[j + 2],
                 c3 = coef[j + 3];
    const double* __restrict y0 = y.row_ptr(j);
    const double* __restrict y1 = y.row_ptr(j + 1);
    const double* __restrict y2 = y.row_ptr(j + 2);
    const double* __restrict y3 = y.row_ptr(j + 3);
    for (std::size_t c = 0; c < n; ++c) {
      acc[c] = (((acc[c] + c0 * y0[c]) + c1 * y1[c]) + c2 * y2[c]) +
               c3 * y3[c];
    }
  }
  for (; j < j1; ++j) {
    const double cj = coef[j];
    const double* __restrict yj = y.row_ptr(j);
    for (std::size_t c = 0; c < n; ++c) acc[c] += cj * yj[c];
  }
}

}  // namespace

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  require(lu_.rows() == lu_.cols(), "LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  const double scale = std::max(lu_.max_abs(), 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest remaining entry in column k.
    std::size_t pivot_row = k;
    double pivot_val = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > pivot_val) {
        pivot_val = v;
        pivot_row = r;
      }
    }
    if (pivot_val <= kPivotTolerance * scale) {
      singular_ = true;
      continue;  // keep factoring remaining columns for rank queries
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      sign_ = -sign_;
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    // Rank-1 trailing update, row by row: U_r[k+1:] -= factor * U_k[k+1:].
    const ConstVecView pivot_tail =
        lu_.row_view(k).subvec(k + 1, n - k - 1);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      axpy(-factor, pivot_tail, lu_.row_view(r).subvec(k + 1, n - k - 1));
    }
  }
}

Vec LuDecomposition::solve(const Vec& b) const {
  const std::size_t n = dim();
  require(b.size() == n, "LuDecomposition::solve: dimension mismatch");
  Vec y(n);
  solve_into(ConstVecView(b), VecView(y));
  return y;
}

void LuDecomposition::solve_into(ConstVecView b, VecView x) const {
  const std::size_t n = dim();
  require(b.size() == n && x.size() == n,
          "LuDecomposition::solve_into: dimension mismatch");
  if (singular_) {
    throw NumericalError("LuDecomposition::solve: matrix is singular");
  }
  // Forward substitution on the permuted RHS (L has unit diagonal).
  Vec y(n);
  const ConstVecView yv(y);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = b[perm_[i]] - dot(lu_.row_view(i).subvec(0, i), yv.subvec(0, i));
  }
  // Back substitution on U.
  for (std::size_t ii = n; ii-- > 0;) {
    const double s =
        y[ii] - dot(lu_.row_view(ii).subvec(ii + 1, n - ii - 1),
                    yv.subvec(ii + 1, n - ii - 1));
    y[ii] = s / lu_(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = y[i];
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  const std::size_t n = dim();
  require(b.rows() == n, "LuDecomposition::solve: dimension mismatch");
  if (singular_) {
    throw NumericalError("LuDecomposition::solve: matrix is singular");
  }
  // All right-hand sides at once: row i of y holds entry i of every
  // column, so each substitution step runs down contiguous rows. Entry
  // (i, c) gets solve_into's arithmetic for column c of b: the sum starts
  // at 0.0 and runs in ascending j, then one subtraction (and, going back,
  // one division) — bit-identical to solving column by column.
  const std::size_t k = b.cols();
  Matrix y(n, k);
  Vec acc(k);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    accumulate_rows(lu_.row_ptr(i), y, 0, i, acc.data());
    const double* bi = b.row_ptr(perm_[i]);
    double* yi = y.row_ptr(i);
    for (std::size_t c = 0; c < k; ++c) yi[c] = bi[c] - acc[c];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    std::fill(acc.begin(), acc.end(), 0.0);
    accumulate_rows(lu_.row_ptr(ii), y, ii + 1, n, acc.data());
    double* yi = y.row_ptr(ii);
    const double pivot = lu_(ii, ii);
    for (std::size_t c = 0; c < k; ++c) yi[c] = (yi[c] - acc[c]) / pivot;
  }
  return y;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(dim()));
}

double LuDecomposition::determinant() const {
  if (singular_) return 0.0;
  double det = sign_;
  for (std::size_t i = 0; i < dim(); ++i) det *= lu_(i, i);
  return det;
}

double LuDecomposition::pivot_ratio() const {
  if (singular_ || dim() == 0) return 0.0;
  double lo = std::abs(lu_(0, 0));
  double hi = lo;
  for (std::size_t i = 1; i < dim(); ++i) {
    const double p = std::abs(lu_(i, i));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi == 0.0 ? 0.0 : lo / hi;
}

}  // namespace aspe::linalg
