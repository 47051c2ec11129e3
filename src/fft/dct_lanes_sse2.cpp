// Two lanes: SSE2, the x86-64 baseline.
#include "fft/dct_lanes_impl.h"

#if defined(__SSE2__)
#include <emmintrin.h>

namespace puffer::dct_lanes {
namespace {

struct V2 {
  using T = __m128d;
  static constexpr std::size_t kLanes = 2;
  static T load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, T v) { _mm_storeu_pd(p, v); }
  static T set1(double x) { return _mm_set1_pd(x); }
  static T add(T a, T b) { return _mm_add_pd(a, b); }
  static T sub(T a, T b) { return _mm_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm_mul_pd(a, b); }
  static T neg(T a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
};

}  // namespace

constinit const Kernel kSse2Kernel{2, &Lanes<V2>::cols,
                                   &Lanes<V2>::rows};

}  // namespace puffer::dct_lanes
#else
namespace puffer::dct_lanes {
constinit const Kernel kSse2Kernel{};
}  // namespace puffer::dct_lanes
#endif
