// Eight lanes: AVX-512F (this file alone is built with -mavx512f).
#include "fft/dct_lanes_impl.h"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace puffer::dct_lanes {
namespace {

struct V8 {
  using T = __m512d;
  static constexpr std::size_t kLanes = 8;
  static T load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, T v) { _mm512_storeu_pd(p, v); }
  static T set1(double x) { return _mm512_set1_pd(x); }
  static T add(T a, T b) { return _mm512_add_pd(a, b); }
  static T sub(T a, T b) { return _mm512_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm512_mul_pd(a, b); }
  // _mm512_xor_pd needs AVX-512DQ; flip the sign bit as integers.
  static T neg(T a) {
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a), _mm512_set1_epi64(INT64_MIN)));
  }
};

}  // namespace

constinit const Kernel kAvx512Kernel{8, &Lanes<V8>::cols,
                                     &Lanes<V8>::rows};

}  // namespace puffer::dct_lanes
#else
namespace puffer::dct_lanes {
constinit const Kernel kAvx512Kernel{};
}  // namespace puffer::dct_lanes
#endif
