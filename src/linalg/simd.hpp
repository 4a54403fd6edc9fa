// Two-lane double arithmetic for the register-tiled kernels.
//
// `D2` holds two doubles in a GCC/Clang vector type: one SSE2 register on
// x86-64, lowered to scalar pairs on targets without 128-bit vectors. Its
// operators act lane by lane with ordinary IEEE rounding, so `acc + a * b`
// is one rounded multiply then one rounded add in each lane, exactly the
// scalar expression. The files that use it are compiled for baseline
// x86-64, where there is no fused multiply-add for the compiler to contract
// the pair into, so a tile written with D2 reproduces its scalar loop bit
// for bit.
#pragma once

#include <cstring>

namespace aspe::linalg::simd {

using D2 = double __attribute__((vector_size(16)));

/// Two doubles from p (no alignment needed) / into p.
inline D2 d2_load(const double* p) {
  D2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void d2_store(double* p, D2 v) { std::memcpy(p, &v, sizeof v); }

/// {a.lo, b.lo} and {a.hi, b.hi}.
inline D2 d2_lo(D2 a, D2 b) { return D2{a[0], b[0]}; }
inline D2 d2_hi(D2 a, D2 b) { return D2{a[1], b[1]}; }

}  // namespace aspe::linalg::simd
