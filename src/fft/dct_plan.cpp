#include "fft/dct_plan.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "common/parallel.h"
#include "common/simd.h"
#include "fft/fft.h"

namespace puffer {

namespace {
// Lines per chunk: B-line blocks are claimed kLineGrain / B at a time,
// so the chunk count is ceil(lines / kLineGrain) at every width. Wide
// chunks keep neighbouring column blocks -- which share cache lines at
// their edges -- on the same worker.
constexpr std::int64_t kLineGrain = 32;
constexpr int kMaxLineChunks = 64;
constexpr std::size_t kMaxLanes = 8;

// Kernels by simd::Isa, narrowest first.
const dct_lanes::Kernel* const kKernels[] = {
    &dct_lanes::kScalarKernel, &dct_lanes::kSse2Kernel,
    &dct_lanes::kAvx2Kernel, &dct_lanes::kAvx512Kernel};

// Widest compiled-in kernel at or below `isa` with at most n_lines lanes
// (the scalar kernel is always there).
dct_lanes::Kernel kernel_at_most(simd::Isa isa, std::size_t n_lines) {
  for (int i = static_cast<int>(isa); i > 0; --i) {
    const dct_lanes::Kernel& k = *kKernels[i];
    if (k.lanes > 0 && static_cast<std::size_t>(k.lanes) <= n_lines) return k;
  }
  return *kKernels[0];
}

}  // namespace

dct_lanes::LineTables DctPlan2D::LinePlan::tables() const {
  dct_lanes::LineTables t;
  t.n = bitrev.size();
  t.bitrev = bitrev.data();
  t.dct2_src = dct2_src.data();
  t.tw_fwd_re = tw_fwd_re.data();
  t.tw_fwd_im = tw_fwd_im.data();
  t.tw_inv_re = tw_inv_re.data();
  t.tw_inv_im = tw_inv_im.data();
  t.rot_fwd_re = rot_fwd_re.data();
  t.rot_fwd_im = rot_fwd_im.data();
  t.rot_inv_re = rot_inv_re.data();
  t.rot_inv_im = rot_inv_im.data();
  return t;
}

DctPlan2D::LinePlan DctPlan2D::make_line_plan(std::size_t n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("DctPlan2D: sizes must be powers of 2");
  }
  using cd = std::complex<double>;
  LinePlan p;

  // Bit-reversal permutation (the fixed point of fft()'s in-place swap
  // pass: swap a[i], a[bitrev[i]] for i < bitrev[i]).
  p.bitrev.resize(n);
  std::size_t j = 0;
  p.bitrev[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    p.bitrev[i] = static_cast<std::uint32_t>(j);
  }
  // DCT-II input: v[q] = x[2q] (q < n/2), v[n-1-q] = x[2q+1], read in
  // bit-reversed order.
  p.dct2_src.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = p.bitrev[i];
    p.dct2_src[i] = static_cast<std::uint32_t>(
        n == 1 ? 0 : (q < n / 2 ? 2 * q : 2 * (n - 1 - q) + 1));
  }

  // Per-stage twiddles, concatenated in stage order. Built with the same
  // w *= wlen recurrence fft() runs per block, so butterfly inputs -- and
  // therefore outputs -- are bit-identical to the free functions.
  for (int dir = 0; dir < 2; ++dir) {
    const bool invert = dir == 1;
    std::vector<double>& tre = invert ? p.tw_inv_re : p.tw_fwd_re;
    std::vector<double>& tim = invert ? p.tw_inv_im : p.tw_fwd_im;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (invert ? 1.0 : -1.0);
      const cd wlen(std::cos(ang), std::sin(ang));
      cd w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tre.push_back(w.real());
        tim.push_back(w.imag());
        w *= wlen;
      }
    }
  }

  p.rot_fwd_re.resize(n);
  p.rot_fwd_im.resize(n);
  p.rot_inv_re.resize(n);
  p.rot_inv_im.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = std::numbers::pi * static_cast<double>(k) /
                       (2.0 * static_cast<double>(n));
    p.rot_fwd_re[k] = std::cos(-ang);
    p.rot_fwd_im[k] = std::sin(-ang);
    p.rot_inv_re[k] = std::cos(ang);
    p.rot_inv_im[k] = std::sin(ang);
  }
  return p;
}

DctPlan2D::DctPlan2D(std::size_t nx, std::size_t ny)
    : nx_(nx), ny_(ny), px_(make_line_plan(nx)), py_(make_line_plan(ny)) {
  const std::size_t longest = std::max(nx_, ny_);
  const int chunks = par::chunk_count(static_cast<std::int64_t>(longest),
                                      kLineGrain, kMaxLineChunks);
  const std::size_t lanes = static_cast<std::size_t>(
      kernel_at_most(simd::host_isa(), kMaxLanes).lanes);
  // Row passes: 2*n*B for the FFT re/im plus n*B of gathered rows.
  scratch_per_chunk_ = 3 * longest * lanes;
  scratch_.resize(static_cast<std::size_t>(chunks) * scratch_per_chunk_);
}

double* DctPlan2D::chunk_scratch(int chunk) const {
  return scratch_.data() + static_cast<std::size_t>(chunk) * scratch_per_chunk_;
}

void DctPlan2D::row_pass(std::initializer_list<RowJob> jobs) const {
  const dct_lanes::Kernel k = kernel_at_most(simd::dispatch_isa(), ny_);
  const std::size_t lanes = static_cast<std::size_t>(k.lanes);
  const dct_lanes::LineTables t = px_.tables();
  const std::int64_t blocks = static_cast<std::int64_t>(ny_ / lanes);
  par::parallel_for(
      0, blocks, std::max<std::int64_t>(1, kLineGrain / k.lanes),
      [&](std::int64_t b, std::int64_t e, int c) {
        double* work = chunk_scratch(c);
        for (const RowJob& job : jobs) {
          const dct_lanes::RowSource src{job.in, job.weight, job.col_scale,
                                         job.row_scale, nx_};
          for (std::int64_t blk = b; blk < e; ++blk) {
            k.rows(job.op, t, src, static_cast<std::size_t>(blk) * lanes,
                   job.out, work);
          }
        }
      },
      kMaxLineChunks);
}

void DctPlan2D::col_pass(std::initializer_list<ColJob> jobs) const {
  const dct_lanes::Kernel k = kernel_at_most(simd::dispatch_isa(), nx_);
  const std::size_t lanes = static_cast<std::size_t>(k.lanes);
  const dct_lanes::LineTables t = py_.tables();
  const std::int64_t blocks = static_cast<std::int64_t>(nx_ / lanes);
  par::parallel_for(
      0, blocks, std::max<std::int64_t>(1, kLineGrain / k.lanes),
      [&](std::int64_t b, std::int64_t e, int c) {
        double* work = chunk_scratch(c);
        for (const ColJob& job : jobs) {
          for (std::int64_t blk = b; blk < e; ++blk) {
            k.cols(job.op, t,
                   job.data + static_cast<std::size_t>(blk) * lanes, nx_,
                   work);
          }
        }
      },
      kMaxLineChunks);
}

void DctPlan2D::apply(const std::vector<double>& in, std::vector<double>& out,
                      LineOp op_x, LineOp op_y) const {
  if (in.size() != nx_ * ny_) {
    throw std::invalid_argument("2d transform: size mismatch");
  }
  out.resize(nx_ * ny_);  // no reallocation when `out` aliases `in`
  row_pass({{op_x, in.data(), out.data()}});
  col_pass({{op_y, out.data()}});
}

void DctPlan2D::dct2_2d(const std::vector<double>& in,
                        std::vector<double>& out) const {
  apply(in, out, LineOp::kDct2, LineOp::kDct2);
}

void DctPlan2D::dct3_raw_2d(const std::vector<double>& in,
                            std::vector<double>& out) const {
  apply(in, out, LineOp::kDct3, LineOp::kDct3);
}

void DctPlan2D::idxst_dct3_2d(const std::vector<double>& in,
                              std::vector<double>& out) const {
  apply(in, out, LineOp::kIdxst, LineOp::kDct3);
}

void DctPlan2D::dct3_idxst_2d(const std::vector<double>& in,
                              std::vector<double>& out) const {
  apply(in, out, LineOp::kDct3, LineOp::kIdxst);
}

}  // namespace puffer
