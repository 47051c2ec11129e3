#include "layers.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer table of BENCHMARK.json, in the same order.
const LayerMetric kLayerMetrics[] = {
    {"gp.wirelength_s", kSec},
    {"gp.density_s", kSec},
    {"gp.poisson_s", kSec},
    {"gp.assemble_s", kSec},
    {"gp.nesterov_s", kSec},
    {"gp.gradient_evals", kCount},
    {"gp.iterations", kCount},
    {"flow.prefix_gp_s", kSec},
    {"flow.padding_loop_s", kSec},
    {"flow.tail_s", kSec},
    {"flow.padding_rounds", kCount},
    {"congestion.estimate_s", kSec},
    {"congestion.calls", kCount},
    {"congestion.dirty_net_frac", kFrac},
    {"rsmt.cache_hit_rate", kFrac},
    {"padding.feature_s", kSec},
    {"padding.nets_reused_frac", kFrac},
    {"padding.dirty_gcell_frac", kFrac},
    {"legal.legalize_s", kSec},
    {"legal.rows_rebuilt_frac", kFrac},
    {"router.route_s", kSec},
    {"router.rrr_s", kSec},
    {"router.reroute_attempts", kCount},
    {"router.rerouted", kCount},
    {"orchestrate.prefix_s", kSec},
    {"orchestrate.trials_s", kSec},
    {"orchestrate.utilization", kFrac},
    {"orchestrate.checkpoint_save_s", kSec},
    {"orchestrate.checkpoint_restore_s", kSec},
    {"orchestrate.trials_run", kCount},
    {"orchestrate.trials_pruned", kCount},
    {"serve.submit_ack_p50_s", kSec},
    {"serve.queue_wait_p50_s", kSec},
    {"serve.run_p50_s", kSec},
    {"serve.fetch_p50_s", kSec},
    {"serve.telemetry_frames", kCount},
    {"serve.rejected", kCount},
    {"io.design_encode_s", kSec},
    {"io.design_decode_s", kSec},
    {"io.generate_s", kSec},
    {"trace.overhead_pct", kPct},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_flow_layers(LayerSample& s, const puffer::FlowMetrics& flow,
                     const puffer::RouteResult& route) {
  const puffer::GpKernelTimes& k = flow.gp_kernels;
  s["gp.wirelength_s"] += k.wirelength_s;
  s["gp.density_s"] += k.density_s;
  s["gp.poisson_s"] += k.poisson_s;
  s["gp.assemble_s"] += k.assemble_s;
  s["gp.nesterov_s"] += k.nesterov_s;
  s["gp.gradient_evals"] += k.gradient_evals;
  s["gp.iterations"] += k.iterations;
  s["flow.padding_rounds"] += flow.padding_rounds;

  const puffer::IncrementalStats& est = flow.estimation;
  s["congestion.estimate_s"] += est.incremental_time_s + est.full_time_s;
  s["congestion.calls"] += est.calls;
  s["_dirty_nets"] += static_cast<double>(est.dirty_nets_total);
  s["_nets"] += static_cast<double>(est.nets_total);
  s["_rsmt_hit_rate_sum"] += flow.rsmt_cache_hit_rate;
  s["_flows"] += 1.0;

  const puffer::PaddingStageMetrics& pad = flow.padding_stage;
  s["padding.feature_s"] += pad.feature_time_s;
  s["_nets_reused"] += static_cast<double>(pad.nets_reused);
  s["_nets_evaluated"] +=
      static_cast<double>(pad.nets_reused + pad.nets_recomputed);
  s["_dirty_gcells"] += static_cast<double>(pad.dirty_gcells_total);
  s["_gcells"] += static_cast<double>(pad.gcells_total);

  s["legal.legalize_s"] += flow.legalize.time_s;
  s["_rows_rebuilt"] += flow.legalize.rows_rebuilt;
  s["_rows"] += flow.legalize.rows_total;

  s["router.route_s"] += route.route_time_s;
  s["router.rrr_s"] += route.rrr_time_s;
  s["router.reroute_attempts"] += route.reroute_attempts;
  s["router.rerouted"] += route.rerouted;
}

void finish_flow_layers(LayerSample& s) {
  s["congestion.dirty_net_frac"] = ratio(s["_dirty_nets"], s["_nets"]);
  s["rsmt.cache_hit_rate"] = ratio(s["_rsmt_hit_rate_sum"], s["_flows"]);
  s["padding.nets_reused_frac"] = ratio(s["_nets_reused"], s["_nets_evaluated"]);
  s["padding.dirty_gcell_frac"] = ratio(s["_dirty_gcells"], s["_gcells"]);
  s["legal.rows_rebuilt_frac"] = ratio(s["_rows_rebuilt"], s["_rows"]);
}

void emit_layers(Report& report, const std::vector<LayerSample>& samples) {
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> values;
    for (const LayerSample& s : samples) {
      const auto it = s.find(m.name);
      if (it != s.end()) values.push_back(it->second);
    }
    report.metric(m.name, median(std::move(values)), m.unit);
  }
}

}  // namespace perfbench
