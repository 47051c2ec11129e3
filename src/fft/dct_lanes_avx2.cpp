// Four lanes: AVX2 (this file alone is built with -mavx2).
#include "fft/dct_lanes_impl.h"

#if defined(__AVX2__)
#include <immintrin.h>

namespace puffer::dct_lanes {
namespace {

struct V4 {
  using T = __m256d;
  static constexpr std::size_t kLanes = 4;
  static T load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, T v) { _mm256_storeu_pd(p, v); }
  static T set1(double x) { return _mm256_set1_pd(x); }
  static T add(T a, T b) { return _mm256_add_pd(a, b); }
  static T sub(T a, T b) { return _mm256_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm256_mul_pd(a, b); }
  static T neg(T a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
};

}  // namespace

constinit const Kernel kAvx2Kernel{4, &Lanes<V4>::cols,
                                   &Lanes<V4>::rows};

}  // namespace puffer::dct_lanes
#else
namespace puffer::dct_lanes {
constinit const Kernel kAvx2Kernel{};
}  // namespace puffer::dct_lanes
#endif
