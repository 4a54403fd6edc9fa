#include "linalg/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace aspe::linalg {

namespace {

// Products smaller than this many scalar multiply-adds are not worth the
// pool dispatch; measured crossover is a few hundred thousand flops. The
// same bound gates the packed-GEMM path, so small fixtures keep the exact
// arithmetic order of the pre-view triple loop.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

// Packed-GEMM blocking. The micro-kernel computes an MR x NR tile of C from
// panels packed k-major; MC/KC size the A block to L2 and the B panel rows
// to L1 reuse, NC caps the packed-B footprint. Fixed for a given problem
// size, so the block decomposition (and with it the floating-point
// accumulation order) never depends on the thread count.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
constexpr std::size_t kMc = 96;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 2048;

std::size_t row_grain(std::size_t rows, std::size_t flops_per_row) {
  const std::size_t grain =
      kParallelFlopThreshold / std::max<std::size_t>(flops_per_row, 1);
  return std::clamp<std::size_t>(grain, 1, std::max<std::size_t>(rows, 1));
}

void scale_output(double beta, MatrixView c) {
  for (std::size_t r = 0; r < c.rows(); ++r) {
    double* cr = c.row_ptr(r);
    if (beta == 0.0) {
      std::fill(cr, cr + c.cols(), 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < c.cols(); ++j) cr[j] *= beta;
    }
  }
}

/// Plain i-k-j product for small shapes: identical inner order to the
/// historical Matrix::operator* (alpha = 1, Op::None) so small fixtures stay
/// bit-for-bit. Assumes C was already scaled by beta.
void gemm_naive(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                Op opb, MatrixView c) {
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
  // op(B) = B^T: rows of op(B) are columns of B, so the j loop runs over
  // contiguous rows of B and each (i, j) entry is a dot product.
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b.row_ptr(j);
      double s = 0.0;
      if (opa == Op::None) {
        const double* ai = a.row_ptr(i);
        for (std::size_t p = 0; p < k; ++p) s += ai[p] * bj[p];
      } else {
        for (std::size_t p = 0; p < k; ++p) s += a(p, i) * bj[p];
      }
      ci[j] += alpha * s;
    }
  }
}

/// Pack rows [i0, i0+mb) x [k0, k0+kb) of op(A) into MR-tall k-major panels:
/// panel p holds logical rows i0 + p*MR .., element (r, k) at [k*MR + r].
/// Short panels are zero-padded so the micro-kernel runs fixed-trip loops.
void pack_a(ConstMatrixView a, Op opa, std::size_t i0, std::size_t mb,
            std::size_t k0, std::size_t kb, double* ap) {
  const std::size_t panels = (mb + kMr - 1) / kMr;
  for (std::size_t p = 0; p < panels; ++p) {
    double* dst = ap + p * kMr * kb;
    const std::size_t base = i0 + p * kMr;
    const std::size_t mr = std::min(kMr, i0 + mb - base);
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t r = 0; r < kMr; ++r) {
        dst[k * kMr + r] =
            r < mr ? op_at(a, opa, base + r, k0 + k) : 0.0;
      }
    }
  }
}

/// Pack rows [k0, k0+kb) x cols [j0, j0+nb) of op(B) into NR-wide k-major
/// panels: panel q holds logical cols j0 + q*NR .., element (k, j) at
/// [k*NR + j], zero-padded on the right edge.
void pack_b(ConstMatrixView b, Op opb, std::size_t k0, std::size_t kb,
            std::size_t j0, std::size_t nb, double* bp) {
  const std::size_t panels = (nb + kNr - 1) / kNr;
  for (std::size_t q = 0; q < panels; ++q) {
    double* dst = bp + q * kNr * kb;
    const std::size_t base = j0 + q * kNr;
    const std::size_t nr = std::min(kNr, j0 + nb - base);
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t j = 0; j < kNr; ++j) {
        dst[k * kNr + j] =
            j < nr ? op_at(b, opb, k0 + k, base + j) : 0.0;
      }
    }
  }
}

// The build stays baseline x86-64 (SSE2); the micro-kernel alone is
// multiversioned so the loader picks an AVX2+FMA or AVX-512 clone when the
// CPU has one. Clone choice is per-machine, never per-thread-count, so the
// determinism contract is unaffected. Disabled under sanitizers: the ifunc
// resolver target_clones emits runs at relocation time, before the TSan
// runtime initializes, and crashes the instrumented binary at load.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) &&        \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define ASPE_KERNEL_CLONES                                                    \
  __attribute__((noinline,                                                    \
                 target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define ASPE_KERNEL_CLONES_ACTIVE 1
#else
#define ASPE_KERNEL_CLONES
#endif

/// C[0..mr) x [0..nr) += alpha * Ap Bp for one packed MR x NR tile. The
/// accumulators cover the full padded tile (fixed trip counts vectorize);
/// only the live mr x nr corner is written back.
ASPE_KERNEL_CLONES
void micro_kernel(std::size_t kb, const double* ap, const double* bp,
                  double alpha, double* c, std::size_t ldc, std::size_t mr,
                  std::size_t nr) {
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kb; ++k) {
    const double* arow = ap + k * kMr;
    const double* brow = bp + k * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const double av = arow[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] += alpha * acc[r][j];
  }
}

/// Cache-blocked packed GEMM. Loop order jc -> kc -> ic: B panels are packed
/// once per (jc, kc) and shared by every row block; row blocks fan out over
/// the pool. Each C tile is owned by one task and the kc panels accumulate
/// in serial outer-loop order, so results are thread-count invariant.
void gemm_blocked(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                  Op opb, MatrixView c, std::size_t threads) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kdim = op_cols(a, opa);
  // pack_b zero-pads the right edge to a whole NR panel, so the buffer must
  // round the column block up to a kNr multiple (nb = 300, kNr = 8 would
  // otherwise overrun by (304 - 300) * kb doubles).
  const std::size_t nc = std::min(n, kNc);
  std::vector<double> bpack(kKc * ((nc + kNr - 1) / kNr) * kNr);
  const std::size_t ic_blocks = (m + kMc - 1) / kMc;

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nb = std::min(kNc, n - jc);
    for (std::size_t kc = 0; kc < kdim; kc += kKc) {
      const std::size_t kb = std::min(kKc, kdim - kc);
      pack_b(b, opb, kc, kb, jc, nb, bpack.data());
      const std::size_t b_panels = (nb + kNr - 1) / kNr;

      par::parallel_for(
          0, ic_blocks, 1,
          [&](std::size_t blk) {
            const std::size_t i0 = blk * kMc;
            const std::size_t mb = std::min(kMc, m - i0);
            std::vector<double> apack(((mb + kMr - 1) / kMr) * kMr * kb);
            pack_a(a, opa, i0, mb, kc, kb, apack.data());
            for (std::size_t q = 0; q < b_panels; ++q) {
              const std::size_t j0 = jc + q * kNr;
              const std::size_t nr = std::min(kNr, jc + nb - j0);
              const double* bq = bpack.data() + q * kNr * kb;
              const std::size_t a_panels = (mb + kMr - 1) / kMr;
              for (std::size_t p = 0; p < a_panels; ++p) {
                const std::size_t r0 = i0 + p * kMr;
                const std::size_t mr = std::min(kMr, i0 + mb - r0);
                micro_kernel(kb, apack.data() + p * kMr * kb, bq, alpha,
                             c.row_ptr(r0) + j0, c.row_stride(), mr, nr);
              }
            }
          },
          threads);
    }
  }
}

}  // namespace

void axpy(double alpha, ConstVecView x, VecView y) {
  require(x.size() == y.size(), "axpy: length mismatch");
  if (alpha == 0.0) return;
  if (x.contiguous() && y.contiguous()) {
    const double* xp = x.data();
    double* yp = y.data();
    for (std::size_t i = 0; i < x.size(); ++i) yp[i] += alpha * xp[i];
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, VecView x) {
  if (x.contiguous()) {
    double* xp = x.data();
    for (std::size_t i = 0; i < x.size(); ++i) xp[i] *= alpha;
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= alpha;
}

void rot(VecView x, VecView y, double c, double s) {
  require(x.size() == y.size(), "rot: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void gemv(double alpha, ConstMatrixView a, Op opa, ConstVecView x, double beta,
          VecView y, std::size_t threads) {
  require(x.size() == op_cols(a, opa), "gemv: dimension mismatch");
  require(y.size() == op_rows(a, opa), "gemv: output size mismatch");
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();

  if (opa == Op::None) {
    const auto compute_row = [&](std::size_t r) {
      const double s = dot(a.row(r), x);
      y[r] = beta == 0.0 ? alpha * s : beta * y[r] + alpha * s;
    };
    if (rows * cols >= kParallelFlopThreshold && rows > 1) {
      par::parallel_for(0, rows, row_grain(rows, cols), compute_row, threads);
    } else {
      for (std::size_t r = 0; r < rows; ++r) compute_row(r);
    }
    return;
  }

  // op(A) = A^T: stream A row-major once, each task owning a disjoint block
  // of output columns so accumulation per element is thread-count invariant.
  const auto compute_col_block = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      y[c] = beta == 0.0 ? 0.0 : beta * y[c];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double xa = alpha * x[r];
      if (xa == 0.0) continue;
      const double* ar = a.row_ptr(r);
      for (std::size_t c = c0; c < c1; ++c) y[c] += xa * ar[c];
    }
  };
  constexpr std::size_t kColBlock = 1024;
  if (rows * cols >= kParallelFlopThreshold && cols > kColBlock) {
    const std::size_t blocks = (cols + kColBlock - 1) / kColBlock;
    par::parallel_for(
        0, blocks, 1,
        [&](std::size_t blk) {
          const std::size_t c0 = blk * kColBlock;
          compute_col_block(c0, std::min(c0 + kColBlock, cols));
        },
        threads);
  } else {
    compute_col_block(0, cols);
  }
}

int gemm_dispatch_arch_level() {
#ifdef ASPE_KERNEL_CLONES_ACTIVE
  // Mirror the loader's clone choice: the v4 clone needs the AVX-512
  // x86-64-v4 feature set, the v3 clone AVX2+FMA. Feature probes are listed
  // individually so this compiles on GCC versions without the
  // "x86-64-v4" __builtin_cpu_supports alias.
  static const int level = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw")) {
      return 2;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return 1;
    }
    return 0;
  }();
  return level;
#else
  return 0;
#endif
}

void gemm(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b, Op opb,
          double beta, MatrixView c, std::size_t threads) {
  const std::size_t m = op_rows(a, opa);
  const std::size_t n = op_cols(b, opb);
  const std::size_t kdim = op_cols(a, opa);
  require(kdim == op_rows(b, opb), "gemm: inner dimension mismatch");
  require(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");

  scale_output(beta, c);
  if (m == 0 || n == 0 || kdim == 0 || alpha == 0.0) return;

  const std::size_t flops = m * n * kdim;
  if (obs::enabled()) {
    obs::counter_add("linalg.gemm.calls", 1.0);
    // 2 mnk: one multiply + one add per inner-product term.
    obs::counter_add("linalg.gemm.flops", 2.0 * static_cast<double>(flops));
    obs::gauge_set("linalg.gemm.arch_level",
                   static_cast<double>(gemm_dispatch_arch_level()));
  }
  if (flops < kParallelFlopThreshold) {
    gemm_naive(alpha, a, opa, b, opb, c);
  } else {
    gemm_blocked(alpha, a, opa, b, opb, c, threads);
  }
}

void gram(ConstMatrixView a, MatrixView g, std::size_t threads) {
  const std::size_t d = a.rows();
  require(g.rows() == d && g.cols() == d, "gram: output shape mismatch");
  const auto compute_row = [&](std::size_t i) {
    for (std::size_t j = i; j < d; ++j) {
      const double s = dot(a.row(i), a.row(j));
      g(i, j) = s;
      g(j, i) = s;
    }
  };
  const std::size_t flops_per_row = d * a.cols() / 2 + 1;
  if (d > 1 && d * flops_per_row >= kParallelFlopThreshold) {
    par::parallel_for(0, d, row_grain(d, flops_per_row), compute_row, threads);
  } else {
    for (std::size_t i = 0; i < d; ++i) compute_row(i);
  }
}

void transpose_copy(ConstMatrixView a, MatrixView out) {
  require(out.rows() == a.cols() && out.cols() == a.rows(),
          "transpose_copy: output shape mismatch");
  // Square tiles keep one side of the exchange cache-resident.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, a.rows());
    for (std::size_t c0 = 0; c0 < a.cols(); c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, a.cols());
      for (std::size_t r = r0; r < r1; ++r) {
        const double* ar = a.row_ptr(r);
        for (std::size_t c = c0; c < c1; ++c) out(c, r) = ar[c];
      }
    }
  }
}

}  // namespace aspe::linalg
