#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "linalg/random_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/rng.hpp"

namespace aspe::linalg {
namespace {

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.is_singular());
  const Vec x = lu.solve(Vec{5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), InvalidArgument);
}

TEST(Lu, DetectsSingular) {
  const Matrix a{{1, 2}, {2, 4}};
  const LuDecomposition lu(a);
  EXPECT_TRUE(lu.is_singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_THROW(lu.solve(Vec{1, 2}), NumericalError);
}

TEST(Lu, DeterminantOfKnownMatrices) {
  EXPECT_NEAR(LuDecomposition(Matrix{{3}}).determinant(), 3.0, 1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix{{1, 2}, {3, 4}}).determinant(), -2.0,
              1e-12);
  // Permutation matrix: determinant -1.
  EXPECT_NEAR(LuDecomposition(Matrix{{0, 1}, {1, 0}}).determinant(), -1.0,
              1e-12);
  // Triangular: product of diagonal.
  EXPECT_NEAR(
      LuDecomposition(Matrix{{2, 5, 1}, {0, 3, 7}, {0, 0, 4}}).determinant(),
      24.0, 1e-9);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0, 1}, {1, 0}};
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.is_singular());
  const Vec x = lu.solve(Vec{3, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  rng::Rng rng(5);
  const Matrix a = random_invertible(6, rng);
  const Matrix inv = LuDecomposition(a).inverse();
  EXPECT_TRUE((a * inv).approx_equal(Matrix::identity(6), 1e-8));
  EXPECT_TRUE((inv * a).approx_equal(Matrix::identity(6), 1e-8));
}

/// The column-by-column solve that solve(Matrix) replaced: one solve_into
/// per column of b.
Matrix column_by_column_solve(const LuDecomposition& lu, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    lu.solve_into(b.col_view(c), x.col_view(c));
  }
  return x;
}

void expect_solve_matches_oracle_bitwise(const LuDecomposition& lu,
                                         const Matrix& b) {
  const Matrix fast = lu.solve(b);
  const Matrix oracle = column_by_column_solve(lu, b);
  ASSERT_EQ(fast.rows(), oracle.rows());
  ASSERT_EQ(fast.cols(), oracle.cols());
  EXPECT_EQ(std::memcmp(fast.data().data(), oracle.data().data(),
                        oracle.data().size() * sizeof(double)),
            0)
      << "n=" << b.rows() << " k=" << b.cols();
}

void expect_solves_match_oracle_bitwise(const Matrix& a, rng::Rng& rng) {
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.is_singular());
  const std::size_t n = a.rows();
  // The identity (inverse() is solve(identity)), a dense random B and a
  // three-column B holding exact zeros and -0.0.
  expect_solve_matches_oracle_bitwise(lu, Matrix::identity(n));
  expect_solve_matches_oracle_bitwise(lu, random_matrix(n, rng));
  Matrix narrow(n, 3, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    narrow(i, i % 3) = i % 2 ? -0.0 : 1.5 + static_cast<double>(i);
    narrow(i, (i + 1) % 3) = 0.25 * static_cast<double>(i % 7);
  }
  expect_solve_matches_oracle_bitwise(lu, narrow);
}

TEST(Lu, SolveMatrixMatchesColumnByColumnSolveBitwise) {
  rng::Rng rng(2017);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 13; ++n) sizes.push_back(n);
  for (const std::size_t n : {100, 201, 509}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    expect_solves_match_oracle_bitwise(random_invertible(n, rng), rng);
    // Exact zeros and a pivot search on every column: a scaled permutation
    // plus a sparse lower band.
    Matrix sparse(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      sparse(i, (i * 7 + 3) % n) = 1.0 + static_cast<double>(i % 5);
      if (i >= 2) sparse(i, i - 2) -= 0.5;
    }
    if (!LuDecomposition(sparse).is_singular()) {
      expect_solves_match_oracle_bitwise(sparse, rng);
    }
  }
}

TEST(Lu, SolveMatrixColumnwise) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_TRUE(x.approx_equal(Matrix{{1, 2}, {2, 3}}, 1e-12));
}

TEST(Lu, PivotRatioPositiveForWellConditioned) {
  const LuDecomposition lu(Matrix::identity(4));
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 1.0);
}

TEST(Lu, PivotRatioZeroForSingular) {
  const LuDecomposition lu(Matrix{{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 0.0);
}

TEST(Lu, ResidualSmallOnRandomSystems) {
  rng::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 30));
    const Matrix a = random_invertible(n, rng);
    const Vec b = rng.uniform_vec(n, -10.0, 10.0);
    const Vec x = LuDecomposition(a).solve(b);
    const Vec residual = sub(a.apply(x), b);
    EXPECT_LT(norm(residual), 1e-7 * (1.0 + norm(b))) << "n=" << n;
  }
}

TEST(Lu, SolveDimensionChecked) {
  const LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW(lu.solve(Vec{1, 2}), InvalidArgument);
}

}  // namespace
}  // namespace aspe::linalg
