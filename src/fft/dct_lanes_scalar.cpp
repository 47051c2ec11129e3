// One lane: the scalar path (PUFFER_SIMD=0, or hosts without SSE2).
#include "fft/dct_lanes_impl.h"

namespace puffer::dct_lanes {
namespace {

struct V1 {
  using T = double;
  static constexpr std::size_t kLanes = 1;
  static T load(const double* p) { return *p; }
  static void store(double* p, T v) { *p = v; }
  static T set1(double x) { return x; }
  static T add(T a, T b) { return a + b; }
  static T sub(T a, T b) { return a - b; }
  static T mul(T a, T b) { return a * b; }
  static T neg(T a) { return -a; }
};

}  // namespace

constinit const Kernel kScalarKernel{1, &Lanes<V1>::cols,
                                     &Lanes<V1>::rows};

}  // namespace puffer::dct_lanes
