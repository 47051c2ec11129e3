#include "padding/features.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "common/timer.h"

namespace puffer {

double FeatureVector::operator[](int i) const {
  switch (i) {
    case 0: return local_cg;
    case 1: return local_pin;
    case 2: return sur_cg;
    case 3: return sur_pin;
    case 4: return pin_cg;
    default: throw std::out_of_range("FeatureVector index");
  }
}

FeatureExtractor::FeatureExtractor(const Design& design, FeatureConfig config)
    : design_(design), config_(config) {}

namespace {

// Sentinel for "no candidate path" (a pin with no incident segments).
constexpr std::int64_t kNoPath = std::numeric_limits<std::int64_t>::max();

// --- shared integer primitives and final formulas ----------------------
// Both extractor paths compute identical int64 primitives (span maxima,
// window sums, per-pin path minima) and feed them through these helpers,
// so legacy-vs-fast bit-identity follows from integer equality alone.

// Minimum over candidate L and Z paths between Gcells a and b of the
// maximum quantized Cg along the path (Eq. 13 inner terms). h(x0, x1, y)
// and v(x, y0, y1) are span-maximum functors accepting unordered
// endpoints.
template <typename HSpan, typename VSpan>
std::int64_t best_path_q(int agx, int agy, int bgx, int bgy, int z_candidates,
                         const HSpan& h, const VSpan& v) {
  if (agx == bgx && agy == bgy) return h(agx, agx, agy);
  if (agy == bgy) return h(agx, bgx, agy);
  if (agx == bgx) return v(agx, agy, bgy);

  // Two L-shaped paths.
  std::int64_t best = std::max(h(agx, bgx, agy), v(bgx, agy, bgy));
  best = std::min(best, std::max(v(agx, agy, bgy), h(agx, bgx, bgy)));

  // Z-shaped paths: HVH with an intermediate column, VHV with an
  // intermediate row; sample at most z_candidates interior positions.
  const int x0 = std::min(agx, bgx), x1 = std::max(agx, bgx);
  const int y0 = std::min(agy, bgy), y1 = std::max(agy, bgy);
  const int span_x = x1 - x0, span_y = y1 - y0;
  const int nx = std::min(z_candidates, std::max(0, span_x - 1));
  for (int k = 1; k <= nx; ++k) {
    const int mid = x0 + k * span_x / (nx + 1);
    if (mid <= x0 || mid >= x1) continue;
    const std::int64_t cg =
        std::max({h(agx, mid, agy), v(mid, agy, bgy), h(mid, bgx, bgy)});
    best = std::min(best, cg);
  }
  const int ny = std::min(z_candidates, std::max(0, span_y - 1));
  for (int k = 1; k <= ny; ++k) {
    const int mid = y0 + k * span_y / (ny + 1);
    if (mid <= y0 || mid >= y1) continue;
    const std::int64_t cg =
        std::max({v(agx, agy, mid), h(agx, bgx, mid), v(bgx, mid, bgy)});
    best = std::min(best, cg);
  }
  return best;
}

// Same value as best_path_q, evaluated with candidate pruning: a
// candidate path is abandoned as soon as one of its legs reaches the
// running best, because its max then cannot lower the minimum -- the
// returned int64 is bit-identical to the exhaustive evaluation. Used by
// the fast path, where each leg is an O(1) RMQ lookup and skipping the
// remaining legs is the dominant saving; the oracle keeps the
// exhaustive order.
template <typename Pt, typename HSpan, typename VSpan>
std::int64_t best_path_q_pruned(int agx, int agy, int bgx, int bgy,
                                int z_candidates, const Pt& p, const HSpan& h,
                                const VSpan& v) {
  if (agx == bgx && agy == bgy) return p(agx, agy);
  if (agy == bgy) return h(agx, bgx, agy);
  if (agx == bgx) return v(agx, agy, bgy);

  // Every candidate path passes through both endpoint Gcells, so the
  // minimum over paths can never drop below the larger endpoint value.
  // Once the running best reaches that floor, the remaining candidates
  // cannot improve it and the search stops -- same returned bits. The
  // point lookups read the quantized map directly (L2-resident) rather
  // than paying the sparse table's scattered loads.
  const std::int64_t floor_q = std::max(p(agx, agy), p(bgx, bgy));

  std::int64_t best = std::max(h(agx, bgx, agy), v(bgx, agy, bgy));
  if (best <= floor_q) return best;
  const std::int64_t l1 = v(agx, agy, bgy);
  if (l1 < best) best = std::min(best, std::max(l1, h(agx, bgx, bgy)));
  if (best <= floor_q) return best;

  const int x0 = std::min(agx, bgx), x1 = std::max(agx, bgx);
  const int y0 = std::min(agy, bgy), y1 = std::max(agy, bgy);
  const int span_x = x1 - x0, span_y = y1 - y0;
  const int nx = std::min(z_candidates, std::max(0, span_x - 1));
  for (int k = 1; k <= nx; ++k) {
    const int mid = x0 + k * span_x / (nx + 1);
    if (mid <= x0 || mid >= x1) continue;
    const std::int64_t a = h(agx, mid, agy);
    if (a >= best) continue;
    const std::int64_t b = v(mid, agy, bgy);
    if (b >= best) continue;
    best = std::min(best, std::max({a, b, h(mid, bgx, bgy)}));
    if (best <= floor_q) return best;
  }
  const int ny = std::min(z_candidates, std::max(0, span_y - 1));
  for (int k = 1; k <= ny; ++k) {
    const int mid = y0 + k * span_y / (ny + 1);
    if (mid <= y0 || mid >= y1) continue;
    const std::int64_t a = v(agx, agy, mid);
    if (a >= best) continue;
    const std::int64_t b = h(agx, bgx, mid);
    if (b >= best) continue;
    best = std::min(best, std::max({a, b, v(bgx, mid, bgy)}));
    if (best <= floor_q) return best;
  }
  return best;
}

// Per-pin Eq. 13 minima of one net: for each pin, the minimum over its
// incident tree segments of best_path_q over the segment's endpoint
// Gcells. segs(pt, fn) invokes fn(segment_index) for each incident
// segment of tree point pt.
template <typename HSpan, typename VSpan, typename SegsOfPoint>
void pin_best_of_net(const Net& net, const RsmtTree& tree, int z_candidates,
                     const HSpan& h, const VSpan& v, const SegsOfPoint& segs,
                     const std::int32_t* pt_gx, const std::int32_t* pt_gy,
                     std::vector<std::int64_t>& out) {
  out.assign(net.pins.size(), kNoPath);
  for (std::size_t k = 0; k < net.pins.size(); ++k) {
    const int pt = tree.pin_point[k];
    if (pt < 0) continue;
    std::int64_t best = kNoPath;
    segs(pt, [&](int si) {
      const RsmtSegment& seg = tree.segments[static_cast<std::size_t>(si)];
      best = std::min(
          best, best_path_q(pt_gx[seg.a], pt_gy[seg.a], pt_gx[seg.b],
                            pt_gy[seg.b], z_candidates, h, v));
    });
    out[k] = best;
  }
}

// Signed deviation of a quantized pin density from the design-wide mean
// (in quantum units); raw value when the mean is zero (empty design).
double pd_norm_value(std::int64_t q, double mean_q) {
  return mean_q > 0.0 ? static_cast<double>(q) / mean_q - 1.0
                      : dequantize_feature(q);
}

double window_mean_cg(std::int64_t sum, int count) {
  return dequantize_feature(sum) / static_cast<double>(count);
}

double window_mean_pd(std::int64_t sum, int count, double mean_q) {
  return mean_q > 0.0 ? static_cast<double>(sum) / static_cast<double>(count) /
                            mean_q -
                            1.0
                      : dequantize_feature(sum) / static_cast<double>(count);
}

// Free sites per Gcell: Gcell area minus overlapped macro area, in site
// units, floored at one site. Accumulation order (cell index, then
// row-major Gcells) is fixed so both extractor paths produce the same
// bits.
std::vector<double> build_sites(const Design& design, const GcellGrid& grid) {
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  std::vector<double> macro_area(n, 0.0);
  for (const Cell& c : design.cells) {
    if (!c.is_macro()) continue;
    const Rect r = c.rect().clamped(grid.area());
    if (r.empty()) continue;
    GcellIndex lo, hi;
    grid.range_of(r, lo, hi);
    for (int gy = lo.gy; gy <= hi.gy; ++gy) {
      for (int gx = lo.gx; gx <= hi.gx; ++gx) {
        macro_area[static_cast<std::size_t>(gy) * nx + gx] +=
            grid.gcell_rect(gx, gy).overlap_area(r);
      }
    }
  }
  const double site_area = design.tech.site_width * design.tech.row_height;
  const double gcell_area = grid.gcell_w() * grid.gcell_h();
  std::vector<double> sites(n);
  for (std::size_t flat = 0; flat < n; ++flat) {
    sites[flat] = std::max(1.0, (gcell_area - macro_area[flat]) / site_area);
  }
  return sites;
}

// The quantized combined congestion and pins-per-site density of every
// Gcell (row-major, into `qcg` / `pdq`); returns the exact sum of `pdq`.
std::int64_t quantize_maps(const Design& design, const RoutingMaps& maps,
                           std::vector<std::int64_t>& qcg,
                           std::vector<std::int64_t>& pdq) {
  const GcellGrid& grid = maps.grid;
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n_gcells =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  qcg.resize(n_gcells);
  std::size_t flat = 0;
  for (int gy = 0; gy < ny; ++gy) {
    for (int gx = 0; gx < nx; ++gx) qcg[flat++] = quantize_feature(maps.cg(gx, gy));
  }
  std::vector<std::int32_t> count(n_gcells, 0);
  for (const Pin& pin : design.pins) {
    const Cell& c = design.cells[static_cast<std::size_t>(pin.cell)];
    const GcellIndex g = grid.index_of(c.x + pin.dx, c.y + pin.dy);
    ++count[static_cast<std::size_t>(g.gy) * nx + g.gx];
  }
  const std::vector<double> sites = build_sites(design, grid);
  pdq.resize(n_gcells);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n_gcells; ++i) {
    pdq[i] = quantize_feature(static_cast<double>(count[i]) / sites[i]);
    total += pdq[i];
  }
  return total;
}

// One cell's feature vector from the quantized maps. lo/hi is the cell's
// inclusive overlapped-Gcell range.
// cg_win/pd_win are inclusive int64 window-sum functors (SAT on the fast
// path, brute-force scans on the oracle); the integer max loops are
// shared outright.
template <typename CgWin, typename PdWin>
FeatureVector assemble_cell(const GcellGrid& grid, GcellIndex lo,
                            GcellIndex hi, int kernel,
                            const std::vector<std::int64_t>& qcg,
                            const std::vector<std::int64_t>& pdq,
                            double mean_q, std::int64_t pin_q,
                            const CgWin& cg_win, const PdWin& pd_win) {
  const int nx = grid.nx();
  FeatureVector f;

  // Local: max over overlapped Gcells (Eq. 9); signed values preserved.
  // The pin-density max is additionally floored at the mean (the seed
  // semantics: a zero initial accumulator under the normalized map).
  std::int64_t lcg = std::numeric_limits<std::int64_t>::min();
  std::int64_t lpin = std::numeric_limits<std::int64_t>::min();
  for (int gy = lo.gy; gy <= hi.gy; ++gy) {
    const std::size_t row = static_cast<std::size_t>(gy) * nx;
    for (int gx = lo.gx; gx <= hi.gx; ++gx) {
      lcg = std::max(lcg, qcg[row + gx]);
      lpin = std::max(lpin, pdq[row + gx]);
    }
  }
  f.local_cg = dequantize_feature(lcg);
  f.local_pin = std::max(0.0, pd_norm_value(lpin, mean_q));

  // CNN-inspired: mean over the kernel-expanded bounding box.
  const int sx0 = std::max(0, lo.gx - kernel);
  const int sx1 = std::min(grid.nx() - 1, hi.gx + kernel);
  const int sy0 = std::max(0, lo.gy - kernel);
  const int sy1 = std::min(grid.ny() - 1, hi.gy + kernel);
  const int count = (sx1 - sx0 + 1) * (sy1 - sy0 + 1);
  f.sur_cg = window_mean_cg(cg_win(sx0, sx1, sy0, sy1), count);
  f.sur_pin = window_mean_pd(pd_win(sx0, sx1, sy0, sy1), count, mean_q);

  // GNN-inspired.
  f.pin_cg = dequantize_feature(pin_q);
  return f;
}

}  // namespace

std::vector<FeatureVector> FeatureExtractor::extract(
    const CongestionResult& congestion, const std::vector<CellId>& cells) {
  Timer timer;
  std::vector<FeatureVector> out = config_.use_legacy_extractor
                                       ? extract_legacy(congestion, cells)
                                       : extract_fast(congestion, cells);
  const GcellGrid& grid = congestion.maps.grid;
  const std::int64_t n_gcells = static_cast<std::int64_t>(grid.nx()) *
                                static_cast<std::int64_t>(grid.ny());
  ++metrics_.extracts;
  metrics_.dirty_gcells_total += n_gcells;
  metrics_.gcells_total += n_gcells;
  metrics_.nets_recomputed += static_cast<std::int64_t>(design_.nets.size());
  metrics_.feature_time_s += timer.elapsed_seconds();
  return out;
}

// --- scalar oracle -------------------------------------------------------
// The pre-pipeline extractor on quantized integers: serial, O(span) path
// scans, per-net incidence vectors, brute-force window sums. Shares every
// integer primitive and final formula with the fast path, so the two are
// bit-identical by construction.
std::vector<FeatureVector> FeatureExtractor::extract_legacy(
    const CongestionResult& congestion, const std::vector<CellId>& cells) const {
  const RoutingMaps& maps = congestion.maps;
  const GcellGrid& grid = maps.grid;
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n_gcells =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);

  std::vector<std::int64_t> qcg, pdq;
  const std::int64_t total = quantize_maps(design_, maps, qcg, pdq);
  const double mean_q =
      static_cast<double>(total) / static_cast<double>(n_gcells);

  // Per-pin congestion (GNN feature), accumulated per cell (Eq. 12).
  const auto h = [&](int x0, int x1, int y) {
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    const std::size_t row = static_cast<std::size_t>(y) * nx;
    for (int gx = std::min(x0, x1); gx <= std::max(x0, x1); ++gx) {
      m = std::max(m, qcg[row + gx]);
    }
    return m;
  };
  const auto v = [&](int x, int y0, int y1) {
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (int gy = std::min(y0, y1); gy <= std::max(y0, y1); ++gy) {
      m = std::max(m, qcg[static_cast<std::size_t>(gy) * nx + x]);
    }
    return m;
  };
  std::vector<std::int64_t> cell_pin_q(design_.cells.size(), 0);
  std::vector<std::int32_t> pt_gx, pt_gy;
  std::vector<std::int64_t> pin_best;
  for (std::size_t n = 0; n < design_.nets.size(); ++n) {
    const Net& net = design_.nets[n];
    const RsmtTree& tree = congestion.trees[n];
    if (tree.segments.empty()) continue;
    const auto incidence = tree.build_incidence();
    pt_gx.resize(tree.points.size());
    pt_gy.resize(tree.points.size());
    for (std::size_t pi = 0; pi < tree.points.size(); ++pi) {
      const GcellIndex g =
          grid.index_of(tree.points[pi].pos.x, tree.points[pi].pos.y);
      pt_gx[pi] = g.gx;
      pt_gy[pi] = g.gy;
    }
    const auto segs = [&](int pt, auto&& fn) {
      for (int si : incidence[static_cast<std::size_t>(pt)]) fn(si);
    };
    pin_best_of_net(net, tree, config_.z_candidates, h, v, segs, pt_gx.data(),
                    pt_gy.data(), pin_best);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      if (pin_best[k] == kNoPath) continue;
      const Pin& pin = design_.pins[static_cast<std::size_t>(net.pins[k])];
      cell_pin_q[static_cast<std::size_t>(pin.cell)] += pin_best[k];
    }
  }

  // Assemble per-cell features with brute-force window sums.
  const auto cg_win = [&](int x0, int x1, int y0, int y1) {
    std::int64_t s = 0;
    for (int gy = y0; gy <= y1; ++gy) {
      const std::size_t row = static_cast<std::size_t>(gy) * nx;
      for (int gx = x0; gx <= x1; ++gx) s += qcg[row + gx];
    }
    return s;
  };
  const auto pd_win = [&](int x0, int x1, int y0, int y1) {
    std::int64_t s = 0;
    for (int gy = y0; gy <= y1; ++gy) {
      const std::size_t row = static_cast<std::size_t>(gy) * nx;
      for (int gx = x0; gx <= x1; ++gx) s += pdq[row + gx];
    }
    return s;
  };
  std::vector<FeatureVector> out;
  out.reserve(cells.size());
  for (CellId cid : cells) {
    const Cell& cell = design_.cells[static_cast<std::size_t>(cid)];
    GcellIndex lo, hi;
    grid.range_of(cell.rect(), lo, hi);
    out.push_back(assemble_cell(grid, lo, hi, config_.kernel_gcells, qcg, pdq,
                                mean_q,
                                cell_pin_q[static_cast<std::size_t>(cid)],
                                cg_win, pd_win));
  }
  return out;
}

// --- fast path -----------------------------------------------------------

void FeatureExtractor::allocate_arenas() {
  const std::size_t n_nets = design_.nets.size();
  pin_off_.assign(n_nets + 1, 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    pin_off_[n + 1] =
        pin_off_[n] + static_cast<std::int32_t>(design_.nets[n].pins.size());
  }
  pin_slot_cell_.resize(static_cast<std::size_t>(pin_off_.back()));
  for (std::size_t n = 0; n < n_nets; ++n) {
    std::int32_t s = pin_off_[n];
    for (PinId pid : design_.nets[n].pins) {
      pin_slot_cell_[static_cast<std::size_t>(s++)] = static_cast<std::int32_t>(
          design_.pins[static_cast<std::size_t>(pid)].cell);
    }
  }
  pin_best_flat_.assign(static_cast<std::size_t>(pin_off_.back()), kNoPath);
  cell_pin_q_.assign(design_.cells.size(), 0);
  pt_base_.assign(n_nets + 1, 0);
  inc_off_base_.assign(n_nets + 1, 0);
  inc_seg_base_.assign(n_nets + 1, 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    const std::int32_t p =
        static_cast<std::int32_t>(design_.nets[n].pins.size());
    const std::int32_t cap = p <= 1 ? p : 2 * p - 2;
    pt_base_[n + 1] = pt_base_[n] + cap;
    inc_off_base_[n + 1] = inc_off_base_[n] + cap + 1;
    inc_seg_base_[n + 1] =
        inc_seg_base_[n] + (cap > 0 ? 2 * (cap - 1) : 0);
  }
  pt_gx_.assign(static_cast<std::size_t>(pt_base_.back()), 0);
  pt_gy_.assign(static_cast<std::size_t>(pt_base_.back()), 0);
  inc_off_.assign(static_cast<std::size_t>(inc_off_base_.back()), 0);
  inc_seg_.assign(static_cast<std::size_t>(inc_seg_base_.back()), 0);
}

void FeatureExtractor::load_net_topology(std::size_t n, const RsmtTree& tree,
                                         const GcellGrid& grid) {
  const std::size_t npts = tree.points.size();
  const std::size_t cap =
      static_cast<std::size_t>(pt_base_[n + 1] - pt_base_[n]);
  const std::size_t max_segs = npts > 0 ? npts - 1 : 0;
  if (npts > cap || tree.segments.size() > max_segs) {
    // A tree violating the 2p-2 Steiner bound (or with more than npts-1
    // segments) cannot fit its design-static arena slots.
    throw std::logic_error("FeatureExtractor: RSMT tree exceeds arena bound");
  }
  std::int32_t* pgx = pt_gx_.data() + static_cast<std::size_t>(pt_base_[n]);
  std::int32_t* pgy = pt_gy_.data() + static_cast<std::size_t>(pt_base_[n]);
  for (std::size_t pi = 0; pi < npts; ++pi) {
    const GcellIndex g =
        grid.index_of(tree.points[pi].pos.x, tree.points[pi].pos.y);
    pgx[pi] = g.gx;
    pgy[pi] = g.gy;
  }
  // CSR point -> incident segments (build_incidence() without the heap).
  // The offsets double as fill cursors, then shift back into place -- no
  // per-call cursor allocation.
  std::int32_t* off =
      inc_off_.data() + static_cast<std::size_t>(inc_off_base_[n]);
  std::int32_t* seg =
      inc_seg_.data() + static_cast<std::size_t>(inc_seg_base_[n]);
  std::fill(off, off + npts + 1, 0);
  for (const RsmtSegment& s : tree.segments) {
    ++off[static_cast<std::size_t>(s.a) + 1];
    ++off[static_cast<std::size_t>(s.b) + 1];
  }
  for (std::size_t i = 1; i <= npts; ++i) off[i] += off[i - 1];
  for (std::size_t si = 0; si < tree.segments.size(); ++si) {
    const RsmtSegment& s = tree.segments[si];
    seg[static_cast<std::size_t>(off[static_cast<std::size_t>(s.a)]++)] =
        static_cast<std::int32_t>(si);
    seg[static_cast<std::size_t>(off[static_cast<std::size_t>(s.b)]++)] =
        static_cast<std::int32_t>(si);
  }
  // off[i] now holds end(i) == start(i+1); shift down to restore offsets.
  for (std::size_t i = npts; i >= 1; --i) off[i] = off[i - 1];
  off[0] = 0;
}
void FeatureExtractor::compute_pin_best(std::size_t n, const RsmtTree& tree,
                                        std::vector<std::int64_t>& seg_q) {
  const Net& net = design_.nets[n];
  const std::int64_t* qmap = qcg_.data();
  const int snx = nx_;
  const auto p = [qmap, snx](int gx, int gy) {
    return qmap[static_cast<std::size_t>(gy) * static_cast<std::size_t>(snx) +
                static_cast<std::size_t>(gx)];
  };
  const auto h = [this](int x0, int x1, int y) {
    return rmq_.row_max(y, std::min(x0, x1), std::max(x0, x1));
  };
  const auto v = [this](int x, int y0, int y1) {
    return rmq_.col_max(x, std::min(y0, y1), std::max(y0, y1));
  };
  std::int64_t* pb =
      pin_best_flat_.data() + static_cast<std::size_t>(pin_off_[n]);
  const std::int32_t* pgx =
      pt_gx_.data() + static_cast<std::size_t>(pt_base_[n]);
  const std::int32_t* pgy =
      pt_gy_.data() + static_cast<std::size_t>(pt_base_[n]);
  // Two-pin nets (the bulk of any netlist) have exactly one segment and
  // both tree points are its endpoints: every mapped pin takes the same
  // value, no incidence walk or memo scratch needed.
  if (tree.segments.size() == 1) {
    const RsmtSegment& seg = tree.segments[0];
    const std::int64_t q = best_path_q_pruned(
        pgx[static_cast<std::size_t>(seg.a)],
        pgy[static_cast<std::size_t>(seg.a)],
        pgx[static_cast<std::size_t>(seg.b)],
        pgy[static_cast<std::size_t>(seg.b)], config_.z_candidates, p, h, v);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      pb[k] = tree.pin_point[k] < 0 ? kNoPath : q;
    }
    return;
  }
  // Memoized per-segment evaluation: best_path_q is symmetric in its
  // endpoints (the L candidates map onto each other under a<->b and the
  // Z interior positions come from the sorted span), so a segment shared
  // by several pins -- or by several net pins quantized onto the same
  // tree point -- is evaluated once. Quantized Cg is >= 0, so -1 is a
  // free "not yet evaluated" sentinel. The oracle evaluates per
  // (pin, segment) pair; the minima are identical by symmetry.
  seg_q.assign(tree.segments.size(), -1);
  const std::int32_t* ioff =
      inc_off_.data() + static_cast<std::size_t>(inc_off_base_[n]);
  const std::int32_t* iseg =
      inc_seg_.data() + static_cast<std::size_t>(inc_seg_base_[n]);
  for (std::size_t k = 0; k < net.pins.size(); ++k) {
    pb[k] = kNoPath;
    const int pt = tree.pin_point[k];
    if (pt < 0) continue;
    std::int64_t best = kNoPath;
    const std::int32_t b = ioff[static_cast<std::size_t>(pt)];
    const std::int32_t en = ioff[static_cast<std::size_t>(pt) + 1];
    for (std::int32_t i = b; i < en; ++i) {
      const std::size_t si =
          static_cast<std::size_t>(iseg[static_cast<std::size_t>(i)]);
      std::int64_t q = seg_q[si];
      if (q < 0) {
        const RsmtSegment& seg = tree.segments[si];
        q = best_path_q_pruned(pgx[static_cast<std::size_t>(seg.a)],
                               pgy[static_cast<std::size_t>(seg.a)],
                               pgx[static_cast<std::size_t>(seg.b)],
                               pgy[static_cast<std::size_t>(seg.b)],
                               config_.z_candidates, p, h, v);
        seg_q[si] = q;
      }
      best = std::min(best, q);
    }
    pb[k] = best;
  }
}

std::vector<FeatureVector> FeatureExtractor::extract_fast(
    const CongestionResult& congestion, const std::vector<CellId>& cells) {
  const RoutingMaps& maps = congestion.maps;
  const GcellGrid& grid = maps.grid;
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n_gcells =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  if (pin_off_.size() != design_.nets.size() + 1) allocate_arenas();
  nx_ = nx;

  const std::int64_t pdq_total = quantize_maps(design_, maps, qcg_, pdq_);
  rmq_.build(qcg_, nx, ny);
  sat_cg_.build(qcg_, nx, ny);
  sat_pd_.build(pdq_, nx, ny);

  // Per-net fan-out: each net writes only its own arena slots.
  par::parallel_for(
      0, static_cast<std::int64_t>(design_.nets.size()), 16,
      [&](std::int64_t b, std::int64_t en, int /*chunk*/) {
        std::vector<std::int64_t> seg_q;  // chunk-owned memo scratch
        for (std::int64_t i = b; i < en; ++i) {
          const std::size_t n = static_cast<std::size_t>(i);
          const RsmtTree& tree = congestion.trees[n];
          if (tree.segments.empty()) {
            std::fill(pin_best_flat_.begin() + pin_off_[n],
                      pin_best_flat_.begin() + pin_off_[n + 1], kNoPath);
            continue;
          }
          load_net_topology(n, tree, grid);
          compute_pin_best(n, tree, seg_q);
        }
      },
      256);

  // Serial in-order fold of the per-pin minima into per-cell sums: one
  // linear scan of the slot CSR (integer adds; any order would give the
  // same bits, the fixed order keeps the idiom auditable).
  std::fill(cell_pin_q_.begin(), cell_pin_q_.end(), 0);
  const std::size_t n_slots = pin_best_flat_.size();
  for (std::size_t s = 0; s < n_slots; ++s) {
    const std::int64_t q = pin_best_flat_[s];
    if (q == kNoPath) continue;
    cell_pin_q_[static_cast<std::size_t>(pin_slot_cell_[s])] += q;
  }

  // Per-cell assembly fan-out: disjoint chunk-owned output slots, all
  // inputs read-only.
  const double mean_q =
      static_cast<double>(pdq_total) / static_cast<double>(n_gcells);
  const auto cg_win = [this](int x0, int x1, int y0, int y1) {
    return sat_cg_.window_sum(x0, x1, y0, y1);
  };
  const auto pd_win = [this](int x0, int x1, int y0, int y1) {
    return sat_pd_.window_sum(x0, x1, y0, y1);
  };
  std::vector<FeatureVector> out(cells.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(cells.size()), 64,
      [&](std::int64_t b, std::int64_t en, int /*chunk*/) {
        for (std::int64_t i = b; i < en; ++i) {
          const CellId cid = cells[static_cast<std::size_t>(i)];
          const std::size_t ci = static_cast<std::size_t>(cid);
          GcellIndex lo, hi;
          grid.range_of(design_.cells[ci].rect(), lo, hi);
          out[static_cast<std::size_t>(i)] =
              assemble_cell(grid, lo, hi, config_.kernel_gcells, qcg_, pdq_,
                            mean_q, cell_pin_q_[ci], cg_win, pd_win);
        }
      },
      256);
  return out;
}

}  // namespace puffer
