// CNN- and GNN-inspired feature extraction for cell padding
// (paper SS III-B1, Fig. 4).
//
// Three feature families per movable cell:
//
//  * Local features: the cell's own Gcell neighbourhood -- local
//    congestion LCg(c) (Eq. 9; signed, the negative part is kept to model
//    the deviation between estimate and router) and local pin density.
//  * CNN-inspired: mean congestion / pin density over the cell's bounding
//    box expanded by a kernel margin (a mean-filter convolution over a
//    larger spatial region).
//  * GNN-inspired: pin congestion PCg(c) (Eqs. 12-13) aggregated over the
//    routing topology -- for each pin, the minimum over all candidate L-
//    and Z-shaped paths of its two-point nets of the maximum Gcell
//    congestion along the path.
//
// Pipeline (fast path, the default): every extract() quantizes the
// combined-congestion and pin-density maps to int64 from scratch and
// queries them through per-row/per-column sparse-table RMQs (Eq. 13 span
// maxima in O(1)) and summed-area tables (window means in O(1)). The
// per-net path search and the per-cell assembly fan out over
// common/parallel with serial in-order folds, writing into design-static
// arenas. A scalar oracle (FeatureConfig::use_legacy_extractor) computes
// the same quantized integer primitives serially and shares the final
// double formulas, so both paths -- and any thread count -- are
// bit-identical. See docs/architecture.md ("Padding feature pipeline").
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "congestion/estimator.h"
#include "netlist/design.h"
#include "padding/feature_query.h"

namespace puffer {

struct FeatureVector {
  double local_cg = 0.0;
  double local_pin = 0.0;
  double sur_cg = 0.0;
  double sur_pin = 0.0;
  double pin_cg = 0.0;

  static constexpr int kCount = 5;
  double operator[](int i) const;
};

// Feature-map quantum: every map value entering a feature (combined
// congestion Cg, pins-per-site density) is rounded to a multiple of
// 2^-32 and handled as int64 -- the exact demand arithmetic of
// grid/routing_maps.h at a coarser quantum. Integer maxima and sums are
// associative and order-independent, so RMQ/SAT queries, parallel folds
// and the scalar oracle all produce identical bits.
// Headroom: |Cg| is bounded by the exact-demand 8192 track-equivalents
// (|q| < 2^45), and a window/prefix sum stays exact while
// mean |value| x covered Gcells < 2^31 -- orders of magnitude above any
// realistic grid.
constexpr double kFeatureScale = 4294967296.0;  // 2^32
constexpr double kFeatureQuantum = 1.0 / kFeatureScale;

inline std::int64_t quantize_feature(double v) {
  return std::llround(v * kFeatureScale);
}
inline double dequantize_feature(std::int64_t q) {
  return static_cast<double>(q) * kFeatureQuantum;
}

struct FeatureConfig {
  // CNN kernel margin, in Gcells, added around the cell's bounding box.
  int kernel_gcells = 2;
  // Cap on sampled intermediate positions for Z-shaped candidate paths
  // (the full enumeration is quadratic in span; sampling keeps the same
  // minimum-over-paths structure at bounded cost).
  int z_candidates = 8;
  // Oracle switch: the scalar from-scratch extractor (bit-identical to
  // the fast path by construction; kept one PR as baseline and oracle).
  bool use_legacy_extractor = false;
};

// Observability for the feature pipeline. Every extract() is a
// from-scratch pass: each Gcell and each net is re-derived and none is
// reused (the fields keep the names the end-to-end benchmark reads).
struct PaddingStageMetrics {
  double feature_time_s = 0.0;  // wall time inside extract()
  int extracts = 0;
  std::int64_t dirty_gcells_total = 0;  // Gcells re-derived
  std::int64_t gcells_total = 0;
  std::int64_t nets_reused = 0;
  std::int64_t nets_recomputed = 0;
};

class FeatureExtractor {
 public:
  FeatureExtractor(const Design& design, FeatureConfig config = {});

  // Extracts features for every cell in `cells` (typically the movable
  // ordinals of the placement engine), using the congestion estimate.
  std::vector<FeatureVector> extract(const CongestionResult& congestion,
                                     const std::vector<CellId>& cells);

  const PaddingStageMetrics& stage_metrics() const { return metrics_; }
  const FeatureConfig& config() const { return config_; }

 private:
  std::vector<FeatureVector> extract_fast(const CongestionResult& congestion,
                                          const std::vector<CellId>& cells);
  std::vector<FeatureVector> extract_legacy(
      const CongestionResult& congestion,
      const std::vector<CellId>& cells) const;

  void allocate_arenas();
  // Fills net n's tree-point Gcells and point->segment CSR in the arenas.
  void load_net_topology(std::size_t n, const RsmtTree& tree,
                         const GcellGrid& grid);
  // seg_q is caller-provided scratch (one per worker chunk): per-segment
  // memo of best_path_q so shared segments are evaluated once per net.
  void compute_pin_best(std::size_t n, const RsmtTree& tree,
                        std::vector<std::int64_t>& seg_q);

  const Design& design_;
  FeatureConfig config_;
  PaddingStageMetrics metrics_;

  // --- fast-path buffers, rebuilt from scratch by every extract() --------
  int nx_ = 0;
  std::vector<std::int64_t> qcg_;  // quantized combined congestion
  std::vector<std::int64_t> pdq_;  // quantized pins-per-site density
  RowColRmq rmq_;
  SummedAreaTable sat_cg_, sat_pd_;
  // Design-static CSR over net pin slots: net n owns slots
  // [pin_off_[n], pin_off_[n+1]) of pin_best_flat_ (Eq. 13 minima,
  // kNoPath = no candidate path) and pin_slot_cell_ (the pin's cell).
  // One flat array instead of a per-net heap vector, and the serial
  // fold becomes a linear scan.
  std::vector<std::int32_t> pin_off_;
  std::vector<std::int32_t> pin_slot_cell_;
  std::vector<std::int64_t> pin_best_flat_;
  std::vector<std::int64_t> cell_pin_q_;
  // Design-static topology arenas: net n's tree points occupy
  // [pt_base_[n], pt_base_[n] + npts) of pt_gx_/pt_gy_, its incidence
  // offsets [inc_off_base_[n], +npts+1) of inc_off_, and its
  // incident-segment lists [inc_seg_base_[n], +2*(npts-1)) of inc_seg_.
  // Capacities come from the RSMT Steiner bound (<= 2p-2 points for p
  // pins), so the slots never move: extract() allocates nothing per net,
  // parallel chunks write disjoint slices, and the net loop walks the
  // arenas in net order.
  std::vector<std::int32_t> pt_base_, inc_off_base_, inc_seg_base_;
  std::vector<std::int32_t> pt_gx_, pt_gy_, inc_off_, inc_seg_;
};

}  // namespace puffer
