// Spectral electrostatic system (paper Eqs. 3-6, after ePlace [14]).
//
// The placement region is divided into an M x M bin grid. The charge
// density rho (cell area per bin) is expanded in a cosine series with a
// 2D DCT-II; the Poisson equation  -lap(psi) = rho  is solved in the
// spectral domain by dividing each coefficient by (wu^2 + wv^2), and the
// potential / field are evaluated with inverse cosine/sine transforms:
//
//   psi  = sum  a_uv / (wu^2+wv^2) * cos(wu x) cos(wv y)
//   xi_x = sum  a_uv * wu / (wu^2+wv^2) * sin(wu x) cos(wv y)
//   xi_y = sum  a_uv * wv / (wu^2+wv^2) * cos(wu x) sin(wv y)
//
// with wu = pi*u/W, wv = pi*v/H (W, H the die extents) and the DC mode
// dropped. The density penalty is D = sum_i q_i psi(b_i) and its gradient
// w.r.t. a cell position is -q_i * xi(b_i).
//
// The transforms run through a preplanned DctPlan2D, and the spectral
// weights s*c_u*c_v/(wu^2+wv^2), ... are baked into per-mode tables at
// construction. A solve is five parallel dispatches and no transposes:
//
//   1. forward row pass:    a = DCT-II along x of rho;
//   2. forward column pass: a = DCT-II along y of a (in place);
//   3. inverse row pass, three transforms per block of rows, weighting on
//      load: psi = DCT-III_x(w_psi*a), ex = IDXST_x(w_psi*a*wu),
//      ey = DCT-III_x(w_psi*a*wv);
//   4. inverse column pass, in place: psi = DCT-III_y(psi),
//      ex = DCT-III_y(ex), ey = IDXST_y(ey);
//   5. the chunk-ordered energy reduction.
//
// Every step performs the scalar operations of the free-function
// pipeline (use_legacy_pipeline) in the same order, so the two agree bit
// for bit at every vector width.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/dct_plan.h"
#include "grid/map2d.h"

namespace puffer {

class ElectrostaticSystem {
 public:
  // nx, ny: bin counts (powers of two). w, h: physical die extents.
  ElectrostaticSystem(int nx, int ny, double w, double h);

  // Solves for the given density map (size nx*ny, row-major, x fastest).
  void solve(const Map2D<double>& density);

  // Test/bench hook: route the solve through the allocating free
  // functions in fft/dct.h (with explicit weighted-coefficient arrays)
  // instead of the lane-batched DctPlan2D passes. Both are bit-identical
  // by construction, so only speed changes; the hook is the bit-identity
  // oracle of the tests and the baseline of bench_gp_kernels.
  void use_legacy_pipeline(bool on) { legacy_ = on; }

  const Map2D<double>& potential() const { return psi_; }
  const Map2D<double>& field_x() const { return ex_; }
  const Map2D<double>& field_y() const { return ey_; }

  // Total potential energy sum_b rho(b) * psi(b) of the last solve.
  double energy() const { return energy_; }

  int nx() const { return nx_; }
  int ny() const { return ny_; }

 private:
  // The free-function pipeline behind use_legacy_pipeline().
  void solve_legacy(const Map2D<double>& density);

  int nx_, ny_;
  DctPlan2D plan_;
  bool legacy_ = false;
  // Per-mode spectral weights (DC entry zero): coeff = w_psi * a_uv,
  // then c_ex = coeff * wu, c_ey = coeff * wv.
  std::vector<double> w_psi_, wu_, wv_;
  std::vector<double> a_;  // forward spectrum of the density
  Map2D<double> psi_, ex_, ey_;
  double energy_ = 0.0;
};

}  // namespace puffer
