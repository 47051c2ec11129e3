#include "gp/electrostatics.h"

#include <numbers>
#include <stdexcept>

#include "common/parallel.h"
#include "fft/dct.h"
#include "fft/fft.h"

namespace puffer {

ElectrostaticSystem::ElectrostaticSystem(int nx, int ny, double w, double h)
    : nx_(nx), ny_(ny),
      plan_(static_cast<std::size_t>(nx), static_cast<std::size_t>(ny)),
      psi_(nx, ny), ex_(nx, ny), ey_(nx, ny) {
  if (w <= 0.0 || h <= 0.0) {
    throw std::invalid_argument("ElectrostaticSystem: bad extents");
  }
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  const double wx_scale = std::numbers::pi / w;
  const double wy_scale = std::numbers::pi / h;

  // Orthogonality scale for the inverse evaluation: (2/M)(2/N) c_u c_v,
  // with c_0 = 1/2, folded together with 1/(wu^2+wv^2) into one
  // per-mode weight so the raw inverse transforms apply no weights.
  const double base = 4.0 / (static_cast<double>(nx_) * static_cast<double>(ny_));
  w_psi_.assign(snx * sny, 0.0);
  wu_.resize(snx);
  wv_.resize(sny);
  for (std::size_t u = 0; u < snx; ++u) {
    wu_[u] = wx_scale * static_cast<double>(u);
  }
  for (std::size_t v = 0; v < sny; ++v) {
    wv_[v] = wy_scale * static_cast<double>(v);
  }
  for (std::size_t v = 0; v < sny; ++v) {
    for (std::size_t u = 0; u < snx; ++u) {
      if (u == 0 && v == 0) continue;  // DC mode carries no force
      const double w2 = wu_[u] * wu_[u] + wv_[v] * wv_[v];
      double s = base;
      if (u == 0) s *= 0.5;
      if (v == 0) s *= 0.5;
      w_psi_[v * snx + u] = s / w2;
    }
  }
  a_.resize(snx * sny);
}

void ElectrostaticSystem::solve(const Map2D<double>& density) {
  if (density.nx() != nx_ || density.ny() != ny_) {
    throw std::invalid_argument("ElectrostaticSystem: density size mismatch");
  }
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  if (legacy_) {
    solve_legacy(density);
  } else {
    using Op = DctPlan2D::LineOp;
    plan_.row_pass({{Op::kDct2, density.raw().data(), a_.data()}});
    plan_.col_pass({{Op::kDct2, a_.data()}});
    const double* a = a_.data();
    const double* w = w_psi_.data();
    plan_.row_pass({{Op::kDct3, a, psi_.raw().data(), w},
                    {Op::kIdxst, a, ex_.raw().data(), w, wu_.data()},
                    {Op::kDct3, a, ey_.raw().data(), w, nullptr, wv_.data()}});
    plan_.col_pass({{Op::kDct3, psi_.raw().data()},
                    {Op::kDct3, ex_.raw().data()},
                    {Op::kIdxst, ey_.raw().data()}});
  }

  // Chunk-ordered fold keeps the energy worker-count independent.
  energy_ = par::parallel_reduce(
      0, static_cast<std::int64_t>(snx * sny), 4096, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double s = 0.0;
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t si = static_cast<std::size_t>(i);
          s += density.raw()[si] * psi_.raw()[si];
        }
        return s;
      });
}

void ElectrostaticSystem::solve_legacy(const Map2D<double>& density) {
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  a_ = puffer::dct2_2d(density.raw(), snx, sny);
  std::vector<double> c_psi(snx * sny), c_ex(snx * sny), c_ey(snx * sny);
  for (std::size_t v = 0; v < sny; ++v) {
    const std::size_t row = v * snx;
    for (std::size_t u = 0; u < snx; ++u) {
      const double coeff = w_psi_[row + u] * a_[row + u];
      c_psi[row + u] = coeff;
      c_ex[row + u] = coeff * wu_[u];
      c_ey[row + u] = coeff * wv_[v];
    }
  }
  psi_.raw() = puffer::dct3_raw_2d(c_psi, snx, sny);
  ex_.raw() = puffer::idxst_dct3_2d(c_ex, snx, sny);
  ey_.raw() = puffer::dct3_idxst_2d(c_ey, snx, sny);
}

}  // namespace puffer
