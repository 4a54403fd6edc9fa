// Bitwise oracles for the register-tiled small kernels and the left-looking
// NNLS factor.
//
// The plain loops below are the implementations those kernels replaced.
// Each tiled kernel keeps the per-entry arithmetic of its loop (the same
// products, added one at a time in ascending order from the same starting
// value, with the same zero skip), so its output must equal the loop's
// byte for byte, not merely to a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "nmf/nnls.hpp"
#include "rng/rng.hpp"

namespace aspe {
namespace {

using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;
using linalg::Op;

// ------------------------------------------------------------------ oracles

/// The former small-product gemm: the i-k-j loop with a zero skip for
/// op(B) = B, row dots for op(B) = B^T. C is scaled by beta first, as
/// gemm does.
void gemm_oracle(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                 Op opb, double beta, MatrixView c) {
  for (std::size_t r = 0; r < c.rows(); ++r) {
    double* cr = c.row_ptr(r);
    if (beta == 0.0) {
      std::fill(cr, cr + c.cols(), 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < c.cols(); ++j) cr[j] *= beta;
    }
  }
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = op_cols(a, opa);
  if (opb == Op::None) {
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = c.row_ptr(i);
      for (std::size_t p = 0; p < k; ++p) {
        const double av = alpha * op_at(a, opa, i, p);
        if (av == 0.0) continue;
        const double* bp = b.row_ptr(p);
        for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b.row_ptr(j);
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += op_at(a, opa, i, p) * bj[p];
      ci[j] += alpha * s;
    }
  }
}

/// Ascending-order inner product, the former out-of-line dot.
double dot_oracle(const double* x, std::size_t sx, const double* y,
                  std::size_t sy, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i * sx] * y[i * sy];
  return s;
}

/// The former gram: upper-triangle row dots, mirrored.
void gram_oracle(ConstMatrixView a, MatrixView g) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i; j < a.rows(); ++j) {
      const double s =
          dot_oracle(a.row_ptr(i), 1, a.row_ptr(j), 1, a.cols());
      g(i, j) = s;
      g(j, i) = s;
    }
  }
}

/// The former Op::None gemv: one row dot per output entry.
void gemv_oracle(double alpha, ConstMatrixView a, const Vec& x, double beta,
                 Vec& y) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double s = dot_oracle(a.row_ptr(r), 1, x.data(), 1, a.cols());
    y[r] = beta == 0.0 ? alpha * s : beta * y[r] + alpha * s;
  }
}

/// The former row-wise NnlsWorkspace::refactor_from over a whole support,
/// followed by its solve_passive: z = G_PP^{-1} f_P.
Vec row_wise_passive_solve(const Matrix& g, const Vec& f,
                           const std::vector<std::size_t>& support) {
  const std::size_t k = support.size();
  Matrix l(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t gi = support[i];
    for (std::size_t j = 0; j < i; ++j) {
      const double s = g(gi, support[j]) -
                       dot_oracle(l.row_ptr(i), 1, l.row_ptr(j), 1, j);
      l(i, j) = s / l(j, j);
    }
    const double diag =
        g(gi, gi) - dot_oracle(l.row_ptr(i), 1, l.row_ptr(i), 1, i);
    EXPECT_GT(diag, 0.0);
    l(i, i) = std::sqrt(diag);
  }
  Vec z(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double s =
        f[support[i]] - dot_oracle(l.row_ptr(i), 1, z.data(), 1, i);
    z[i] = s / l(i, i);
  }
  for (std::size_t ii = k; ii-- > 0;) {
    const std::size_t tail = k - ii - 1;
    const double* col = l.data().data() + (ii + 1) * k + ii;
    const double s = z[ii] - dot_oracle(col, k, z.data() + ii + 1, 1, tail);
    z[ii] = s / l(ii, ii);
  }
  return z;
}

// ------------------------------------------------------------------ inputs

/// Uniform(-1, 1) entries; with `zeros`, about a third are exact zeros and
/// a sixth are -0.0, the values the zero skip and the sign of a zero sum
/// tell apart.
Matrix random_with_zeros(std::size_t rows, std::size_t cols, rng::Rng& rng,
                         bool zeros) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    const double u = rng.uniform(0.0, 1.0);
    if (zeros && u < 1.0 / 6.0) {
      v = -0.0;
    } else if (zeros && u < 0.5) {
      v = 0.0;
    } else {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  return m;
}

bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size() * sizeof(double)) == 0;
}

/// One gemm against the oracle for every op pair, alpha and beta. Returns
/// the number of mismatching configurations.
int gemm_mismatches(std::size_t m, std::size_t n, std::size_t k,
                    rng::Rng& rng) {
  int bad = 0;
  for (const Op opa : {Op::None, Op::Transpose}) {
    for (const Op opb : {Op::None, Op::Transpose}) {
      const Matrix a = opa == Op::None ? random_with_zeros(m, k, rng, true)
                                       : random_with_zeros(k, m, rng, true);
      const Matrix b = opb == Op::None ? random_with_zeros(k, n, rng, false)
                                       : random_with_zeros(n, k, rng, false);
      // C holds -0.0 entries too: a skipped term must leave them negative.
      const Matrix c0 = random_with_zeros(m, n, rng, true);
      for (const double alpha : {1.0, 0.75}) {
        for (const double beta : {0.0, 0.25}) {
          Matrix got = c0;
          Matrix want = c0;
          linalg::gemm(alpha, a.cview(), opa, b.cview(), opb, beta,
                       got.view(), 1);
          gemm_oracle(alpha, a.cview(), opa, b.cview(), opb, beta,
                      want.view());
          if (!same_bytes(got, want)) {
            ++bad;
            ADD_FAILURE() << m << "x" << n << "x" << k << " opa "
                          << (opa == Op::None ? "N" : "T") << " opb "
                          << (opb == Op::None ? "N" : "T") << " alpha "
                          << alpha << " beta " << beta;
          }
        }
      }
    }
  }
  return bad;
}

// ------------------------------------------------------------------ tests

TEST(Gemm, SmallPathMatchesNaiveOracleBitwise) {
  rng::Rng rng(1501);
  int bad = 0;
  for (std::size_t m = 1; m <= 13; ++m) {
    for (std::size_t n = 1; n <= 13; ++n) {
      for (std::size_t k = 1; k <= 13; ++k) {
        bad += gemm_mismatches(m, n, k, rng);
        if (bad > 8) return;  // the failures above already say enough
      }
    }
  }
}

TEST(Gemm, SnmfShapesMatchNaiveOracleBitwise) {
  // 40x80x80 is the F = W R / H R^T product of the snmf-quest workload.
  // 41x77x83 is the most ragged shape below the 2^18 multiply-add gate;
  // 41x79x83 would be above it and run the packed kernel instead.
  rng::Rng rng(1502);
  EXPECT_EQ(gemm_mismatches(40, 80, 80, rng), 0);
  EXPECT_EQ(gemm_mismatches(41, 77, 83, rng), 0);
}

TEST(Gram, MatchesRowDotOracleBitwise) {
  rng::Rng rng(1503);
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {40, 80}, {41, 83}, {79, 83}};
  for (std::size_t d = 1; d <= 13; ++d) {
    for (std::size_t k = 1; k <= 13; ++k) shapes.emplace_back(d, k);
  }
  for (const auto& [d, k] : shapes) {
    const Matrix a = random_with_zeros(d, k, rng, true);
    Matrix got(d, d, -1.0);
    Matrix want(d, d, -1.0);
    linalg::gram(a.cview(), got.view(), 1);
    gram_oracle(a.cview(), want.view());
    EXPECT_TRUE(same_bytes(got, want)) << d << "x" << k;
  }
}

TEST(Gram, ParallelTilesMatchSerialBitwise) {
  // Large enough that the tile rows fan out over the pool.
  rng::Rng rng(1504);
  const Matrix a = random_with_zeros(150, 83, rng, true);
  Matrix serial(150, 150), parallel(150, 150), want(150, 150);
  linalg::gram(a.cview(), serial.view(), 1);
  linalg::gram(a.cview(), parallel.view(), 4);
  gram_oracle(a.cview(), want.view());
  EXPECT_TRUE(same_bytes(serial, want));
  EXPECT_TRUE(same_bytes(parallel, want));
}

TEST(Gemv, MatchesRowDotOracleBitwise) {
  rng::Rng rng(1505);
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {40, 80}, {41, 83}, {79, 83}, {500, 500}, {700, 400}};
  for (std::size_t r = 1; r <= 13; ++r) {
    for (std::size_t c = 1; c <= 13; ++c) shapes.emplace_back(r, c);
  }
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = random_with_zeros(rows, cols, rng, true);
    Vec x(cols);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    Vec y0(rows);
    for (auto& v : y0) v = rng.uniform(-1.0, 1.0);
    for (const double alpha : {1.0, 0.75}) {
      for (const double beta : {0.0, 0.25}) {
        Vec got = y0, want = y0;
        linalg::gemv(alpha, a.cview(), Op::None, x, beta, got, 4);
        gemv_oracle(alpha, a.cview(), x, beta, want);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              rows * sizeof(double)),
                  0)
            << rows << "x" << cols << " alpha " << alpha << " beta " << beta;
      }
    }
  }
}

TEST(GemmDots, EveryRowMatchesGemvBitwiseAtOneAndFourThreads) {
  // gemm_dots is the batched form of gemv(1, b, x_i): below and above the
  // parallel threshold, with edge tiles in both dimensions and signed zeros
  // in the batch.
  rng::Rng rng(1507);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {3, 5}, {4, 4}, {13, 7}, {64, 41}, {70, 309}, {66, 509}};
  for (const auto& [rows, dim] : shapes) {
    const Matrix a = random_with_zeros(rows, dim, rng, true);
    const Matrix b = random_with_zeros(dim, dim, rng, false);
    Matrix want(rows, dim);
    for (std::size_t i = 0; i < rows; ++i) {
      const Vec x(a.row_ptr(i), a.row_ptr(i) + dim);
      const Vec y = b.apply(x);
      std::copy(y.begin(), y.end(), want.row_ptr(i));
    }
    for (const std::size_t threads : {1, 4}) {
      Matrix got(rows, dim, 7.0);
      linalg::gemm_dots(a.cview(), b.cview(), got.view(), threads);
      EXPECT_TRUE(same_bytes(got, want))
          << rows << "x" << dim << " at " << threads << " threads";
    }
  }
}

TEST(Nnls, PartialRefactorAtEveryInsertionMatchesRowWiseOracle) {
  // A warm solve seeded with the optimal support minus its p-th variable
  // refactors the seeded set, lets the missing variable re-enter at sorted
  // position p (a partial refactor of rows p..k-1) and stops there. Its
  // solution must equal the row-wise factor of the whole support, bit for
  // bit, at every p. Support sizes are not multiples of the factor tile.
  rng::Rng rng(1506);
  const std::size_t n = 37, rows = 60;
  for (const std::size_t k : {11u, 13u, 17u}) {
    Matrix a(rows, n);
    for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
    Matrix g(n, n);
    linalg::gemm(1.0, a.cview(), Op::Transpose, a.cview(), Op::None, 0.0,
                 g.view(), 1);
    std::vector<std::size_t> support;
    for (std::size_t i = 0; i < n && support.size() < k; i += 2) {
      support.push_back(i);
    }
    Vec x_true(n, 0.0);
    for (std::size_t j : support) x_true[j] = rng.uniform(0.5, 1.5);
    const Vec f = a.apply_transposed(a.apply(x_true));
    const Vec z = row_wise_passive_solve(g, f, support);

    for (std::size_t p = 0; p < k; ++p) {
      Vec x = x_true;
      x[support[p]] = 0.0;
      nmf::NnlsWorkspace ws;
      ws.seed_from_support(linalg::ConstVecView(x));
      nmf::nnls_gram(g, f, linalg::VecView(x), ws);
      ASSERT_TRUE(ws.warm_started()) << "k " << k << " p " << p;
      ASSERT_EQ(ws.passive_set(), support) << "k " << k << " p " << p;
      // k - 1 rows for the seeded set, then rows p..k-1 after the insert.
      EXPECT_EQ(ws.factor_rows_computed(), (k - 1) + (k - p))
          << "k " << k << " p " << p;
      for (std::size_t a_idx = 0; a_idx < k; ++a_idx) {
        const double got = x[support[a_idx]];
        EXPECT_EQ(std::memcmp(&got, &z[a_idx], sizeof(double)), 0)
            << "k " << k << " p " << p << " variable " << support[a_idx];
      }
    }
  }
}

}  // namespace
}  // namespace aspe
