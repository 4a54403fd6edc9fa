// Free-function linear-algebra kernels over views (the BLAS-shaped layer).
//
// Every dense product in the library funnels through these entry points:
// `Matrix::operator*`, `apply`, `apply_transposed` and the NMF / simplex /
// attack hot loops all call gemm / gemv / gram / dot / axpy on views, so
// transposition is an `Op` flag and sub-blocks are strides — never copies.
//
// Determinism contract (same as aspe::par): for a fixed problem size the
// result is bit-identical at any thread count. gemm achieves this with a
// fixed block decomposition — each output tile is accumulated by exactly one
// task, and the k-panel order is a serial outer loop — so only the wall
// clock moves with the thread count.
//
// Aliasing: input views may alias each other (gemm(A, A) is how gram works);
// output views must not alias any input.
#pragma once

#include "linalg/matrix_view.hpp"

namespace aspe::linalg {

/// Products (and scans) smaller than this many scalar multiply-adds run
/// serially: the measured pool-dispatch crossover is a few hundred thousand.
inline constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

/// Inner product sum_i x[i] * y[i], accumulated in ascending index order.
/// Inline: the NNLS factor updates call it once per Cholesky entry, on
/// vectors short enough that a call costs as much as the loop.
[[nodiscard]] inline double dot(ConstVecView x, ConstVecView y) {
  require(x.size() == y.size(), "dot: length mismatch");
  double s = 0.0;
  if (x.contiguous() && y.contiguous()) {
    const double* xp = x.data();
    const double* yp = y.data();
    for (std::size_t i = 0; i < x.size(); ++i) s += xp[i] * yp[i];
    return s;
  }
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

/// y += alpha * x.
void axpy(double alpha, ConstVecView x, VecView y);

/// x *= alpha.
void scal(double alpha, VecView x);

/// Plane rotation: (x[i], y[i]) <- (c x[i] - s y[i], s x[i] + c y[i]).
/// The Givens/Jacobi workhorse; column views make it strided.
void rot(VecView x, VecView y, double c, double s);

/// y = alpha * op(a) x + beta * y. Deterministic at any thread count
/// (`threads` caps the fan-out; 0 = process default). For Op::None each
/// y[r] is the ascending dot of row r with x, four rows per tile.
void gemv(double alpha, ConstMatrixView a, Op opa, ConstVecView x, double beta,
          VecView y, std::size_t threads = 0);

/// c = alpha * op(a) op(b) + beta * c.
///
/// Large products run a cache-blocked packed kernel: A and B panels are
/// packed into contiguous tiles and multiplied by an MR x NR register
/// micro-kernel, parallel over row blocks of C. Small products (< 2^18
/// multiply-adds) run serial register tiles that keep each entry's plain
/// loop arithmetic: for op(B) = B, c(i, j) += (alpha op(A)(i, p)) B(p, j)
/// in ascending p, skipping zero coefficients; for op(B) = B^T, one
/// ascending dot per entry, then c(i, j) += alpha * dot (docs/linalg.md).
void gemm(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b, Op opb,
          double beta, MatrixView c, std::size_t threads = 0);

/// c = a b^T with every entry one ascending dot: c(i, j) = sum_p a(i, p)
/// b(j, p) from 0.0, a rounded multiply then a rounded add per term, the
/// arithmetic of dot() and of the Op::None gemv at every size (gemm leaves
/// it for the packed FMA kernel above kParallelFlopThreshold). Parallel over
/// 4-row tiles of c above that threshold, bit-identical at any thread count.
/// The batched form of `n` gemv calls b x_i: row i of c equals b.apply(row
/// i of a) bit for bit.
void gemm_dots(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               std::size_t threads = 0);

/// g = a a^T (row Gram matrix, g must be a.rows() x a.rows()). Computes the
/// upper triangle on 4 x 4 tiles of contiguous row dots, each entry one
/// ascending dot as in dot(), and mirrors it — the symmetric half-cost path
/// the NMF updates rely on.
void gram(ConstMatrixView a, MatrixView g, std::size_t threads = 0);

/// out = op(a) elementwise (cache-blocked copy; out must not alias a).
void transpose_copy(ConstMatrixView a, MatrixView out);

/// The micro-architecture level the multiversioned GEMM micro-kernel
/// dispatches to on this machine: 0 = baseline x86-64 (or clones compiled
/// out, e.g. under sanitizers / non-GCC), 1 = x86-64-v3 (AVX2+FMA),
/// 2 = x86-64-v4 (AVX-512). Exposed for telemetry ("linalg.gemm.arch_level"
/// gauge) and bench provenance.
[[nodiscard]] int gemm_dispatch_arch_level();

}  // namespace aspe::linalg
