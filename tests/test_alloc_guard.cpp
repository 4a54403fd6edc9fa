// Zero-allocation guard for the checked view/kernel layer and warm NNLS.
//
// This file replaces the global operator new to count heap allocations, so
// it builds into its own executable (aspe_alloc_tests) and leaves the main
// suite's allocator, and its sanitizer runs, untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "nmf/nnls.hpp"
#include "rng/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aspe {
namespace {

using linalg::ConstVecView;
using linalg::Matrix;

/// Heap allocations performed while running fn.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

volatile double g_sink = 0.0;

TEST(AllocGuard, CountsHeapAllocations) {
  // The counter itself works: a vector that must allocate is seen.
  EXPECT_GE(allocations_during([] {
              std::vector<double> v(64, 1.0);
              g_sink = v[63];
            }),
            1u);
}

TEST(AllocGuard, PassingRequireDoesNotAllocate) {
  EXPECT_EQ(allocations_during([] {
              for (int i = 0; i < 100; ++i) {
                require(g_sink >= -1.0 || i < 100,
                        "a message longer than any small-string buffer");
              }
            }),
            0u);
}

TEST(AllocGuard, CheckedViewsAndDotDoNotAllocate) {
  const Matrix m(8, 8, 0.5);
  std::size_t count = allocations_during([&] {
    double s = 0.0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const ConstVecView row = m.row_view(i);
      for (std::size_t j = 0; j <= i; ++j) {
        s += linalg::dot(row.subvec(0, j), m.row_view(j).subvec(0, j));
      }
      s += linalg::dot(m.col_view(i), row);
    }
    g_sink = s;
  });
  EXPECT_EQ(count, 0u);
}

TEST(AllocGuard, SmallGemmGramAndGemvDoNotAllocate) {
  // The register-tiled small kernels keep their tiles and gathered rows on
  // the stack: the SNMF-shaped products (below the packed-GEMM gate), a
  // Gram matrix and a row gemv allocate nothing.
  rng::Rng rng(44);
  Matrix w(40, 80), r(80, 80), f(40, 80), g(40, 40), big(400, 400);
  for (auto* m : {&w, &r, &big}) {
    for (auto& v : m->data()) v = rng.uniform(-1.0, 1.0) > 0.0 ? 0.5 : 0.0;
  }
  Vec x(400, 0.25), y(400, 0.0);
  std::size_t count = allocations_during([&] {
    linalg::gemm(1.0, w.cview(), linalg::Op::None, r.cview(),
                 linalg::Op::None, 0.0, f.view(), 1);
    linalg::gemm(0.75, w.cview(), linalg::Op::None, r.cview(),
                 linalg::Op::Transpose, 0.25, f.view(), 1);
    linalg::gram(w.cview(), g.view(), 1);
    linalg::gemv(1.0, big.cview(), linalg::Op::None, x, 0.0,
                 linalg::VecView(y), 1);
    g_sink = f(3, 7) + g(5, 9) + y[11];
  });
  EXPECT_EQ(count, 0u);
}

TEST(AllocGuard, WarmNnlsSolveDoesNotAllocate) {
  // An 8-variable problem: the first non-empty factorization already sizes
  // the factor buffer for every possible support, so each later warm solve
  // on this workspace, whatever its support moves, must allocate nothing.
  rng::Rng rng(43);
  const std::size_t k = 8, rows = k + 4;
  Matrix a(rows, k);
  for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix g = a.transpose() * a;
  std::vector<Vec> rhs;
  for (int t = 0; t < 30; ++t) {
    rhs.push_back(a.apply_transposed(rng.uniform_vec(rows, -1.0, 1.0)));
  }
  nmf::NnlsWorkspace ws;
  Vec x(k, 0.0);
  nmf::nnls_gram(g, rhs[0], linalg::VecView(x), ws);  // warm-up
  ASSERT_FALSE(ws.passive_set().empty());

  // A warm hit: same problem, inherited set kept.
  EXPECT_EQ(allocations_during(
                [&] { nmf::nnls_gram(g, rhs[0], linalg::VecView(x), ws); }),
            0u);
  EXPECT_TRUE(ws.passive_set_reused());

  // Warm solves whose passive sets move (variables enter and leave).
  std::size_t moved = 0;
  for (std::size_t t = 1; t < rhs.size(); ++t) {
    EXPECT_EQ(allocations_during([&] {
                nmf::nnls_gram(g, rhs[t], linalg::VecView(x), ws);
              }),
              0u)
        << "solve " << t;
    EXPECT_TRUE(ws.warm_started());
    moved += ws.passive_set_reused() ? 0 : 1;
  }
  EXPECT_GT(moved, 10u);
}

}  // namespace
}  // namespace aspe
