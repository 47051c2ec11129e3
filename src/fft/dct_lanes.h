// Lane-batched line transforms behind DctPlan2D (internal header).
//
// A kernel transforms B independent lines at once, one line per vector
// lane: element j of lane l lives at buf[j * ld + l], so element j of all
// B lines is one contiguous vector. Every lane performs exactly the
// scalar sequence of the free functions in dct.h -- the same butterflies,
// rotations and scales, in the same order, with no fused multiply-add --
// so every width is bit-identical to the scalar path and to dct.h.
//
//  * Column passes of a row-major grid need no copy: B adjacent columns
//    starting at column m0 are the lane-interleaved array data + m0 with
//    ld = nx, transformed in place.
//  * Row passes gather B rows into per-chunk scratch (ld = B), optionally
//    applying spectral weights on the way in, and scatter the result.
//
// Widths: 8 lanes (AVX-512F), 4 (AVX2), 2 (SSE2), 1 (scalar). Each width
// is compiled in its own translation unit with its own -m flag
// (src/fft/CMakeLists.txt), and DctPlan2D picks the widest one compiled
// in and allowed by simd::dispatch_isa(). This header and
// dct_lanes_impl.h include nothing with inline functions, so the -m
// flags of one width cannot leak into code another width links against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace puffer::dct_lanes {

enum class Op { kDct2, kDct3, kIdxst };

// Read-only tables for one line length n (see DctPlan2D::make_line_plan).
struct LineTables {
  std::size_t n = 0;
  // FFT input position p holds v[bitrev[p]] (the bit-reversal is folded
  // into the load).
  const std::uint32_t* bitrev = nullptr;
  // DCT-II load: FFT input position p holds x[dct2_src[p]] (the even/odd
  // reordering composed with the bit-reversal).
  const std::uint32_t* dct2_src = nullptr;
  // Per-stage butterfly twiddles, concatenated in stage order.
  const double* tw_fwd_re = nullptr;
  const double* tw_fwd_im = nullptr;
  const double* tw_inv_re = nullptr;
  const double* tw_inv_im = nullptr;
  // Boundary rotations exp(-i*pi*k/(2N)) (DCT-II) and exp(+i*pi*k/(2N)).
  const double* rot_fwd_re = nullptr;
  const double* rot_fwd_im = nullptr;
  const double* rot_inv_re = nullptr;
  const double* rot_inv_im = nullptr;
};

// Input of a row pass: rows of a row-major grid with row stride `stride`.
// With `weight` set, element (r, j) enters the transform as
// weight[i] * a[i] (i = r * stride + j), then times col_scale[j] or
// row_scale[r] when one of those is set.
struct RowSource {
  const double* a = nullptr;
  const double* weight = nullptr;
  const double* col_scale = nullptr;
  const double* row_scale = nullptr;
  std::size_t stride = 0;
};

// Transforms B adjacent columns in place: element j of lane l is
// data[j * ld + l]. work: 2 * n * B doubles.
using ColsFn = void (*)(Op op, const LineTables& t, double* data,
                        std::size_t ld, double* work);

// Transforms rows r0 .. r0+B-1 of `src` into the same rows of `out`
// (row stride src.stride; `out` may alias src.a). work: 3 * n * B doubles.
using RowsFn = void (*)(Op op, const LineTables& t, const RowSource& src,
                        std::size_t r0, double* out, double* work);

struct Kernel {
  int lanes = 0;  // 0: width not compiled in
  ColsFn cols = nullptr;
  RowsFn rows = nullptr;
};

// One kernel per width, each defined in its own translation unit;
// lanes == 0 when that width is not compiled in. They are constant-
// initialized data, so no instruction of a width runs unless dispatch
// picks it (a function returning them could itself use AVX encodings).
extern const Kernel kScalarKernel;
extern const Kernel kSse2Kernel;
extern const Kernel kAvx2Kernel;
extern const Kernel kAvx512Kernel;

}  // namespace puffer::dct_lanes
