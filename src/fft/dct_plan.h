// Preplanned, allocation-free, lane-batched 2D cosine/sine transforms.
//
// The free functions in dct.h recompute twiddle factors and allocate
// several vectors per line transform; fine for one-off use, but the
// electrostatic solver runs three 2D inverse evaluations plus a forward
// spectrum per Nesterov gradient -- thousands of times per flow. A
// DctPlan2D hoists everything reusable out of the loop:
//
//   * per-stage FFT twiddle tables (built with the same recurrence the
//     free fft() uses, so every transform is bit-identical to its dct.h
//     counterpart), the DCT-II / DCT-III boundary rotations, and the
//     bit-reversal folded into each transform's load order;
//   * per-chunk lane scratch, so a transform performs no heap allocation.
//
// Lines run B at a time through the lane kernels of fft/dct_lanes.h (B =
// 8, 4, 2 or 1 by simd::dispatch_isa(); every width gives the same bits).
// A 2D transform is one row pass plus one column pass, with no
// transposes: a column pass transforms B adjacent columns in place as
// contiguous vectors, a row pass gathers B rows into chunk scratch. Both
// fan out over blocks of B lines with the deterministic chunk
// decomposition; a block writes only its own lines, so results are
// worker-count independent.
//
// row_pass / col_pass run several same-shaped jobs in one dispatch; the
// spectral Poisson solve (gp/electrostatics.h) is built from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "fft/dct_lanes.h"

namespace puffer {

class DctPlan2D {
 public:
  using LineOp = dct_lanes::Op;

  // nx, ny: grid sizes, powers of two. Throws std::invalid_argument
  // otherwise (same contract as the free transforms).
  DctPlan2D(std::size_t nx, std::size_t ny);

  // Each transform reads `in` (size nx*ny, row-major, x fastest) and
  // writes `out` (resized to nx*ny). `in` and `out` may alias.
  // Semantics match the same-named free functions in dct.h bit-for-bit.
  void dct2_2d(const std::vector<double>& in, std::vector<double>& out) const;
  void dct3_raw_2d(const std::vector<double>& in,
                   std::vector<double>& out) const;
  void idxst_dct3_2d(const std::vector<double>& in,
                     std::vector<double>& out) const;
  void dct3_idxst_2d(const std::vector<double>& in,
                     std::vector<double>& out) const;

  // One x-axis transform of every row of `in` into `out` (nx*ny each;
  // may alias). With `weight` set, element i = v*nx + u enters as
  // weight[i] * in[i], then times col_scale[u] or row_scale[v] if set.
  struct RowJob {
    LineOp op;
    const double* in;
    double* out;
    const double* weight = nullptr;
    const double* col_scale = nullptr;
    const double* row_scale = nullptr;
  };
  // One y-axis transform of every column of `data`, in place.
  struct ColJob {
    LineOp op;
    double* data;
  };
  // Every job of a pass runs within the same parallel_for: one dispatch.
  // A job may write its own input, but no job may write what another
  // job of the same pass reads.
  void row_pass(std::initializer_list<RowJob> jobs) const;
  void col_pass(std::initializer_list<ColJob> jobs) const;

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

 private:
  struct LinePlan {
    std::vector<std::uint32_t> bitrev, dct2_src;
    std::vector<double> tw_fwd_re, tw_fwd_im, tw_inv_re, tw_inv_im;
    std::vector<double> rot_fwd_re, rot_fwd_im, rot_inv_re, rot_inv_im;
    dct_lanes::LineTables tables() const;  // views of the vectors above
  };

  static LinePlan make_line_plan(std::size_t n);
  double* chunk_scratch(int chunk) const;

  void apply(const std::vector<double>& in, std::vector<double>& out,
             LineOp op_x, LineOp op_y) const;

  std::size_t nx_, ny_;
  LinePlan px_, py_;
  std::size_t scratch_per_chunk_ = 0;
  mutable std::vector<double> scratch_;  // chunk c owns one slice
};

}  // namespace puffer
