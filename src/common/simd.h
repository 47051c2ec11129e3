// Guarded SIMD helpers for the element-wise placement kernels, and the
// vector-width dispatch of the lane-batched spectral transforms
// (fft/dct_lanes.h).
//
// Only operations that are bit-identical to the scalar loop are offered:
// per-lane IEEE add/sub/mul/div/min/max on independent elements (no
// fused multiply-add, no reassociated reductions). That keeps the
// determinism contract symmetric in PUFFER_SIMD: toggling the option --
// or the PUFFER_SIMD=0/1 env override -- never changes a single bit of
// any kernel's output, so the SIMD path needs no separate golden data.
//
// Fusion is kept out by the build, not by the language mode: GCC
// contracts a*b+c into an FMA even under -std=c++20 whenever the target
// has FMA (-mavx2 -mfma, -mavx512f), and vector intrinsics such as
// _mm512_mul_pd are plain vector arithmetic it may contract as well. So
// src/CMakeLists.txt compiles every puffer target with
// -ffp-contract=off.
//
// Dispatch is runtime. The element-wise helpers below use SSE2 (always
// present on x86-64) when simd::enabled(); the spectral transforms use
// the widest width the CPU supports (dispatch_isa()). The CMake option
// PUFFER_SIMD picks the compile-time default; the PUFFER_SIMD env var
// overrides at startup and simd::set_enabled() overrides from tests.
#pragma once

#include <algorithm>
#include <cstddef>

#if defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define PUFFER_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace puffer::simd {

// Runtime switch: compile-time default (PUFFER_SIMD CMake option),
// overridden once by the PUFFER_SIMD env var, then by set_enabled().
bool enabled();
void set_enabled(bool on);

// Vector instruction sets, narrowest first. The lane-batched transforms
// run 1, 2, 4 or 8 lines at once on kScalar, kSse2, kAvx2, kAvx512.
enum class Isa { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

// Widest ISA that is both compiled in and supported by this CPU
// (__builtin_cpu_supports; never -march=native).
Isa host_isa();

// ISA the kernels dispatch to: host_isa() capped by set_isa_limit(), or
// kScalar when SIMD is disabled.
Isa dispatch_isa();

// Test hook: caps dispatch_isa() at `cap` (kAvx512 lifts the cap), so
// tests can force every width the host supports. Every width is
// bit-identical, so the cap only changes speed.
void set_isa_limit(Isa cap);

// "avx512", "avx2", "sse2" or "scalar".
const char* isa_name(Isa isa);

// isa_name(dispatch_isa()).
const char* active_isa();

// out[i] = a[i] - s * b[i]  (the Nesterov position update).
inline void sub_scaled(const double* a, const double* b, double s, double* out,
                       std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    const __m128d vs = _mm_set1_pd(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d va = _mm_loadu_pd(a + i);
      const __m128d vb = _mm_loadu_pd(b + i);
      _mm_storeu_pd(out + i, _mm_sub_pd(va, _mm_mul_pd(vs, vb)));
    }
    for (; i < n; ++i) out[i] = a[i] - s * b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - s * b[i];
}

// out[i] = a[i] + s * (a[i] - b[i])  (the Nesterov extrapolation).
inline void extrapolate(const double* a, const double* b, double s,
                        double* out, std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    const __m128d vs = _mm_set1_pd(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d va = _mm_loadu_pd(a + i);
      const __m128d vb = _mm_loadu_pd(b + i);
      _mm_storeu_pd(out + i,
                    _mm_add_pd(va, _mm_mul_pd(vs, _mm_sub_pd(va, vb))));
    }
    for (; i < n; ++i) out[i] = a[i] + s * (a[i] - b[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + s * (a[i] - b[i]);
}

// out[i] = a[i] + b[i]  (density-map accumulation).
inline void add(const double* a, const double* b, double* out,
                std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      _mm_storeu_pd(out + i,
                    _mm_add_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] + b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

// x[i] = clamp(x[i], lo[i], hi[i]); lo/hi are per-element (per-cell half
// extents). The scalar path mirrors MAXPD/MINPD operand semantics
// ((a > b) ? a : b, second operand on ties) so on/off stays bit-equal
// even in the +-0 corner.
inline void clamp_to(double* x, const double* lo, const double* hi,
                     std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      __m128d v = _mm_loadu_pd(x + i);
      v = _mm_max_pd(v, _mm_loadu_pd(lo + i));
      v = _mm_min_pd(v, _mm_loadu_pd(hi + i));
      _mm_storeu_pd(x + i, v);
    }
    for (; i < n; ++i) {
      double v = x[i];
      v = v > lo[i] ? v : lo[i];
      v = v < hi[i] ? v : hi[i];
      x[i] = v;
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    v = v > lo[i] ? v : lo[i];
    v = v < hi[i] ? v : hi[i];
    x[i] = v;
  }
}

}  // namespace puffer::simd
