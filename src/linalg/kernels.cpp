#include "linalg/kernels.hpp"

#include <algorithm>
#include <memory>

#include "linalg/simd.hpp"
#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace aspe::linalg {

namespace {

using namespace simd;

// kParallelFlopThreshold (kernels.hpp) also gates the packed-GEMM path, so
// small fixtures keep the exact arithmetic order of the pre-view triple loop.

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

// ---- Small-product kernels ------------------------------------------------
//
// Products below kParallelFlopThreshold, every gram and the Op::None gemv
// run on the register tiles below. Tiling only changes how many output
// entries are in flight at once; each entry keeps the arithmetic of the
// plain loops it replaced (tests/test_kernels_oracle.cpp keeps those loops
// as oracles): one product, then one add, per inner index, in ascending
// order from the same starting value, with the same zero skip. They are
// written with the two-lane D2 arithmetic of linalg/simd.hpp, compiled for
// baseline x86-64 and never cloned, so their results are bit-identical to
// the plain loops.

/// Dot tile edge: kDotTile rows of op(A) against kDotTile rows of op(B).
constexpr std::size_t kDotTile = 4;

/// s[r][c] = sum_p a[r][p * sa] * b[c][p] for a 4 x 4 tile of dot products,
/// each entry one chain from 0.0 in ascending p. Rows of op(B) are
/// contiguous; rows of op(A) are contiguous when sa == 1 and strided by sa
/// otherwise. Column pairs of the tile share one SSE2 register: two p steps
/// of four B rows are transposed in registers into {b0, b1} / {b2, b3}
/// pairs, so the 16 chains run as 8 vector chains.
void dot_tile(std::size_t k, const double* const* a, std::size_t sa,
              const double* const* b, double s[kDotTile][kDotTile]) {
  D2 acc[kDotTile][2] = {};
  std::size_t p = 0;
  for (; p + 2 <= k; p += 2) {
    const D2 b0 = d2_load(b[0] + p);
    const D2 b1 = d2_load(b[1] + p);
    const D2 b2 = d2_load(b[2] + p);
    const D2 b3 = d2_load(b[3] + p);
    const D2 b01p = d2_lo(b0, b1), b01q = d2_hi(b0, b1);
    const D2 b23p = d2_lo(b2, b3), b23q = d2_hi(b2, b3);
    for (std::size_t r = 0; r < kDotTile; ++r) {
      const D2 ar = sa == 1 ? d2_load(a[r] + p)
                            : D2{a[r][p * sa], a[r][(p + 1) * sa]};
      const D2 ap = d2_lo(ar, ar), aq = d2_hi(ar, ar);
      acc[r][0] = acc[r][0] + ap * b01p + aq * b01q;
      acc[r][1] = acc[r][1] + ap * b23p + aq * b23q;
    }
  }
  if (p < k) {
    const D2 b01{b[0][p], b[1][p]};
    const D2 b23{b[2][p], b[3][p]};
    for (std::size_t r = 0; r < kDotTile; ++r) {
      const double av = a[r][p * sa];
      const D2 ap{av, av};
      acc[r][0] = acc[r][0] + ap * b01;
      acc[r][1] = acc[r][1] + ap * b23;
    }
  }
  for (std::size_t r = 0; r < kDotTile; ++r) {
    d2_store(s[r], acc[r][0]);
    d2_store(s[r] + 2, acc[r][1]);
  }
}

/// Row pointers of a tile starting at row i0 with `live` valid rows. Rows
/// past the edge repeat the last valid one, so dot_tile always runs a full
/// tile; their results are never written.
void tile_rows(const double* base, std::size_t stride, std::size_t i0,
               std::size_t live, const double* rows[kDotTile]) {
  for (std::size_t r = 0; r < kDotTile; ++r) {
    rows[r] = base + (i0 + std::min(r, live - 1)) * stride;
  }
}

/// Rows [i0, i0 + kDotTile) of C += alpha * op(A) B^T on dot tiles (fewer
/// at the bottom edge): entry (i, j) is the chain s = sum_p op(A)(i, p) *
/// B(j, p), then c(i, j) += alpha * s.
void dot_tile_row(double alpha, ConstMatrixView a, Op opa, ConstMatrixView b,
                  MatrixView c, std::size_t i0) {
  const std::size_t n = c.cols();
  const std::size_t k = op_cols(a, opa);
  // Row i of op(A) starts at a.row_ptr(i) with unit step, or (transposed)
  // at column i of A with a row_stride step.
  const bool a_rows = opa == Op::None;
  const std::size_t a_step = a_rows ? a.row_stride() : 1;
  const std::size_t sa = a_rows ? 1 : a.row_stride();
  const std::size_t mr = std::min(kDotTile, c.rows() - i0);
  const double* arows[kDotTile] = {};
  tile_rows(a.data(), a_step, i0, mr, arows);
  double s[kDotTile][kDotTile] = {};
  for (std::size_t j0 = 0; j0 < n; j0 += kDotTile) {
    const std::size_t nr = std::min(kDotTile, n - j0);
    const double* brows[kDotTile] = {};
    tile_rows(b.data(), b.row_stride(), j0, nr, brows);
    dot_tile(k, arows, sa, brows, s);
    for (std::size_t r = 0; r < mr; ++r) {
      double* ci = c.row_ptr(i0 + r) + j0;
      for (std::size_t q = 0; q < nr; ++q) ci[q] += alpha * s[r][q];
    }
  }
}

/// C += alpha * op(A) B^T, serially, one dot-tile row at a time.
void gemm_small_dots(double alpha, ConstMatrixView a, Op opa,
                     ConstMatrixView b, MatrixView c) {
  for (std::size_t i0 = 0; i0 < c.rows(); i0 += kDotTile) {
    dot_tile_row(alpha, a, opa, b, c, i0);
  }
}

/// Columns of C held in registers by the row kernel.
constexpr std::size_t kRowTile = 16;
/// Inner indices gathered per pass of the row kernel.
constexpr std::size_t kRowChunk = 128;

/// C += alpha * op(A) B, one row of C at a time: entry (i, j) receives
/// c(i, j) += av * B(p, j) with av = alpha * op(A)(i, p), for every p in
/// ascending order except where av == 0. The nonzero (av, B row p) pairs of
/// a row are gathered first, so the skip costs no branch in the tile loop;
/// each kRowTile-column stretch of the row then stays in registers while
/// the pairs stream past.
void gemm_small_rows(double alpha, ConstMatrixView a, Op opa,
                     ConstMatrixView b, MatrixView c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = op_cols(a, opa);
  const bool a_rows = opa == Op::None;
  const std::size_t a_step = a_rows ? a.row_stride() : 1;
  const std::size_t sa = a_rows ? 1 : a.row_stride();
  double av[kRowChunk] = {};
  const double* brow[kRowChunk] = {};
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a.data() + i * a_step;
    double* ci = c.row_ptr(i);
    for (std::size_t p0 = 0; p0 < k; p0 += kRowChunk) {
      const std::size_t p1 = std::min(k, p0 + kRowChunk);
      std::size_t count = 0;
      for (std::size_t p = p0; p < p1; ++p) {
        const double v = alpha * ai[p * sa];
        av[count] = v;
        brow[count] = b.row_ptr(p);
        count += v != 0.0 ? 1 : 0;
      }
      std::size_t j0 = 0;
      for (; j0 + kRowTile <= n; j0 += kRowTile) {
        D2 acc[kRowTile / 2] = {};
        for (std::size_t u = 0; u < kRowTile / 2; ++u) {
          acc[u] = d2_load(ci + j0 + 2 * u);
        }
        for (std::size_t t = 0; t < count; ++t) {
          const double* bp = brow[t] + j0;
          const D2 v{av[t], av[t]};
          for (std::size_t u = 0; u < kRowTile / 2; ++u) {
            acc[u] = acc[u] + v * d2_load(bp + 2 * u);
          }
        }
        for (std::size_t u = 0; u < kRowTile / 2; ++u) {
          d2_store(ci + j0 + 2 * u, acc[u]);
        }
      }
      for (std::size_t t = 0; t < count; ++t) {
        const double* bp = brow[t];
        for (std::size_t j = j0; j < n; ++j) ci[j] += av[t] * bp[j];
      }
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
  // otherwise overrun by (304 - 300) * kb doubles). Both buffers are sized
  // from the deepest k panel this call packs and allocated once, without
  // value-initialisation: the packers write every element they read. Each
  // row block owns one A slab, so the parallel tasks never share one.
  const std::size_t nc = std::min(n, kNc);
  const std::size_t kb_max = std::min(kKc, kdim);
  const std::size_t ic_blocks = (m + kMc - 1) / kMc;
  const std::size_t a_slab = kMc * kb_max;
  const auto bpack = std::make_unique_for_overwrite<double[]>(
      kb_max * ((nc + kNr - 1) / kNr) * kNr);
  const auto apack =
      std::make_unique_for_overwrite<double[]>(ic_blocks * a_slab);

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nb = std::min(kNc, n - jc);
    for (std::size_t kc = 0; kc < kdim; kc += kKc) {
      const std::size_t kb = std::min(kKc, kdim - kc);
      pack_b(b, opb, kc, kb, jc, nb, bpack.get());
      const std::size_t b_panels = (nb + kNr - 1) / kNr;

      par::parallel_for(
          0, ic_blocks, 1,
          [&](std::size_t blk) {
            const std::size_t i0 = blk * kMc;
            const std::size_t mb = std::min(kMc, m - i0);
            double* ap = apack.get() + blk * a_slab;
            pack_a(a, opa, i0, mb, kc, kb, ap);
            for (std::size_t q = 0; q < b_panels; ++q) {
              const std::size_t j0 = jc + q * kNr;
              const std::size_t nr = std::min(kNr, jc + nb - j0);
              const double* bq = bpack.get() + q * kNr * kb;
              const std::size_t a_panels = (mb + kMr - 1) / kMr;
              for (std::size_t p = 0; p < a_panels; ++p) {
                const std::size_t r0 = i0 + p * kMr;
                const std::size_t mr = std::min(kMr, i0 + mb - r0);
                micro_kernel(kb, ap + p * kMr * kb, bq, alpha,
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
    // Four rows per tile share each x[p]; every row is its own dot chain
    // sum_p a(r, p) * x[p] from 0.0 in ascending p, as in dot().
    const std::size_t tiles = (rows + kDotTile - 1) / kDotTile;
    const auto compute_tile = [&](std::size_t t) {
      const std::size_t r0 = t * kDotTile;
      const std::size_t live = std::min(kDotTile, rows - r0);
      const double* ar[kDotTile] = {};
      tile_rows(a.data(), a.row_stride(), r0, live, ar);
      double s[kDotTile] = {};
      for (std::size_t p = 0; p < cols; ++p) {
        const double xp = x[p];
        for (std::size_t r = 0; r < kDotTile; ++r) s[r] += ar[r][p] * xp;
      }
      for (std::size_t r = 0; r < live; ++r) {
        double& yr = y[r0 + r];
        yr = beta == 0.0 ? alpha * s[r] : beta * yr + alpha * s[r];
      }
    };
    if (rows * cols >= kParallelFlopThreshold && tiles > 1) {
      par::parallel_for(0, tiles, row_grain(tiles, kDotTile * cols),
                        compute_tile, threads);
    } else {
      for (std::size_t t = 0; t < tiles; ++t) compute_tile(t);
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
  if (flops >= kParallelFlopThreshold) {
    gemm_blocked(alpha, a, opa, b, opb, c, threads);
  } else if (opb == Op::None) {
    gemm_small_rows(alpha, a, opa, b, c);
  } else {
    gemm_small_dots(alpha, a, opa, b, c);
  }
}

void gemm_dots(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               std::size_t threads) {
  require(a.cols() == b.cols(), "gemm_dots: inner dimension mismatch");
  require(c.rows() == a.rows() && c.cols() == b.rows(),
          "gemm_dots: output shape mismatch");
  // c starts at +0.0 and receives 1.0 * s once: the dot itself, bit for bit
  // (a chain from +0.0 never rounds to -0.0).
  scale_output(0.0, c);
  const std::size_t tiles = (c.rows() + kDotTile - 1) / kDotTile;
  const std::size_t flops_per_tile = kDotTile * c.cols() * a.cols();
  const auto compute_tile = [&](std::size_t t) {
    dot_tile_row(1.0, a, Op::None, b, c, t * kDotTile);
  };
  if (tiles > 1 && tiles * flops_per_tile >= kParallelFlopThreshold) {
    par::parallel_for(0, tiles, row_grain(tiles, flops_per_tile),
                      compute_tile, threads);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) compute_tile(t);
  }
}

void gram(ConstMatrixView a, MatrixView g, std::size_t threads) {
  const std::size_t d = a.rows();
  require(g.rows() == d && g.cols() == d, "gram: output shape mismatch");
  if (d == 0) return;
  // Upper-triangle dot tiles, mirrored. Entry (i, j) is the chain
  // sum_p a(i, p) * a(j, p); a diagonal tile also computes a few entries
  // below the diagonal, which are the same products and are not written.
  const std::size_t k = a.cols();
  const std::size_t tiles = (d + kDotTile - 1) / kDotTile;
  const auto compute_tile_row = [&](std::size_t ti) {
    const std::size_t i0 = ti * kDotTile;
    const std::size_t mr = std::min(kDotTile, d - i0);
    const double* arows[kDotTile] = {};
    tile_rows(a.data(), a.row_stride(), i0, mr, arows);
    double s[kDotTile][kDotTile] = {};
    for (std::size_t j0 = i0; j0 < d; j0 += kDotTile) {
      const std::size_t nr = std::min(kDotTile, d - j0);
      const double* brows[kDotTile] = {};
      tile_rows(a.data(), a.row_stride(), j0, nr, brows);
      dot_tile(k, arows, 1, brows, s);
      for (std::size_t r = 0; r < mr; ++r) {
        for (std::size_t q = 0; q < nr; ++q) {
          const std::size_t i = i0 + r, j = j0 + q;
          if (j < i) continue;
          g(i, j) = s[r][q];
          g(j, i) = s[r][q];
        }
      }
    }
  };
  const std::size_t flops_per_tile_row = kDotTile * (d * k / 2 + 1);
  if (tiles > 1 && tiles * flops_per_tile_row >= kParallelFlopThreshold) {
    par::parallel_for(0, tiles, row_grain(tiles, flops_per_tile_row),
                      compute_tile_row, threads);
  } else {
    for (std::size_t ti = 0; ti < tiles; ++ti) compute_tile_row(ti);
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
