// explore_or1200: TrialOrchestrator on OR1200 at scale 64 -- 16 trials,
// TPE batch 4, K = 4 concurrent sessions in a 4-thread budget, so every
// session runs on a 1-thread lease.
//
// The GP prefix runs once; each trial then runs the padding loop, final
// convergence, legalization and an evaluation route, all on the serial
// kernel path, and the batch barrier lets the slowest trial set each
// batch's time. A serial-kernel change moves this workload; a
// parallel-scaling change should not. (BIT_COIN was rejected: every
// trial there scores 0, so the search has nothing to find.)
#include <unistd.h>

#include "checks.h"
#include "common/parallel.h"
#include "io/synthetic.h"
#include "layers.h"
#include "orchestrate/orchestrator.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int kScale = 64;
constexpr int kMinExplorations = 2;  // untraced explorations per run
// setup_s samples, each the mean of kSetupsPerSample set-ups (~4 ms
// each), taken after every exploration as in place_media.
constexpr int kSetupsPerSample = 16;
constexpr std::size_t kSetupBatch = 8;
constexpr std::size_t kMinSetups = 25;

// The in-process executor, observed: batch boundaries and the per-trial
// results the orchestrator folds (trial wall time, flow counters,
// legality), without changing where or how trials run.
class ObservedExecutor : public puffer::TrialExecutor {
 public:
  ObservedExecutor(int concurrency, Tracer& tracer, std::uint64_t job)
      : local_(concurrency), tracer_(tracer), job_(job) {}

  void prepare(const puffer::TrialRunContext& ctx) override {
    prepared_at = now_s();
    local_.prepare(ctx);
  }

  void run_batch(const std::vector<puffer::TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<puffer::TrialResult>* results) override {
    const double t0 = now_s();
    local_.run_batch(tasks, to_run, results);
    const double t1 = now_s();
    if (first_batch_done < 0.0) first_batch_done = t1;
    tracer_.add("orchestrate.batch", t0, t1, -1, job_);
    for (const int i : to_run) {
      const puffer::TrialResult& r = (*results)[static_cast<std::size_t>(i)];
      trial_wall.push_back(r.wall_s);
      if (!r.metrics_valid) {
        errors.push_back("trial " + std::to_string(r.trial_id) +
                         " returned no metrics");
        continue;
      }
      if (r.pruned) continue;
      trial_place.push_back(r.flow.runtime_s);
      if (!r.flow.legality.legal) {
        errors.push_back("trial " + std::to_string(r.trial_id) +
                         ": illegal placement: " + r.flow.legality.summary());
      }
      add_flow_layers(layers, r.flow, r.route);
    }
  }

  int slots() const override { return local_.slots(); }

  double prepared_at = -1.0;
  double first_batch_done = -1.0;
  std::vector<double> trial_wall;   // every executed trial
  std::vector<double> trial_place;  // PufferFlow time of completed trials
  std::vector<std::string> errors;
  LayerSample layers;

 private:
  puffer::LocalTrialExecutor local_;
  Tracer& tracer_;
  std::uint64_t job_;
};

}  // namespace

void run_explore_or1200(const Options& opt, Tracer& tracer, Report& report) {
  puffer::par::set_num_threads(kThreads);
  puffer::SyntheticSpec spec = puffer::table1_spec("OR1200", kScale);
  spec.seed = derive_seed(spec.seed, opt.instance_seed);
  puffer::OrchestratorConfig oc;
  oc.trials = 16;
  oc.batch_size = 4;
  oc.concurrency = kThreads;
  oc.seed = derive_seed(oc.seed, opt.instance_seed);  // the TPE sampler
  const puffer::ExperimentConfig base;
  const std::vector<puffer::ParamSpec> space = puffer::puffer_param_specs();

  RepeatCheck repeats(reference_checksums(opt, "explore_or1200"));
  std::vector<double> setup, wall, trial_wall, trial_place, first_progress,
      throughput, traced_wall;
  std::vector<LayerSample> layers;
  puffer::OrchestrationResult quality;

  auto time_setup_batch = [&](std::size_t n) {
    time_setups(setup, n, kSetupsPerSample, [&] {
      puffer::Design design = puffer::generate_synthetic(spec);
      puffer::TrialOrchestrator orch(design, space, base, oc);
    });
  };
  const double deadline = now_s() + opt.seconds;
  for (int it = 0;; ++it) {
    const bool traced = opt.trace && it % 2 == 1;
    tracer.set_enabled(traced);
    const std::uint64_t job = static_cast<std::uint64_t>(it);

    const double s0 = now_s();
    puffer::Design design = puffer::generate_synthetic(spec);
    const double s1 = now_s();
    puffer::TrialOrchestrator orch(design, space, base, oc);
    const double s2 = now_s();
    const int setup_span = tracer.add("setup", s0, s2, -1, job);
    tracer.add("io.generate", s0, s1, setup_span, job);

    ObservedExecutor exec(oc.concurrency, tracer, job);
    const double r0 = now_s();
    const puffer::OrchestrationResult res = orch.run(exec);
    const double r1 = now_s();
    const int run_span = tracer.add("orchestrate.run", r0, r1, -1, job);
    tracer.add("orchestrate.prefix", r0, exec.prepared_at, run_span, job);

    report.attempt(static_cast<int>(exec.trial_wall.size()));
    for (const std::string& e : exec.errors) report.fail("explore_or1200: " + e);
    std::string err;
    if (!res.best_metrics_valid || res.best_checksum == 0) {
      err = "no completed best trial";
    } else if (!res.best_flow.legality.legal) {
      err = "best trial placement is illegal";
    }
    for (const std::string& e :
         {repeats.observe_checksum("best_checksum", res.best_checksum),
          repeats.observe("best_loss", res.best_loss),
          repeats.observe("hof_pct", res.best_route.overflow.hof_pct),
          repeats.observe("vof_pct", res.best_route.overflow.vof_pct),
          repeats.observe("routed_wl", res.best_route.wirelength),
          repeats.observe("hpwl_legal", res.best_flow.hpwl_legal)}) {
      if (err.empty()) err = e;
    }
    report.check(err.empty(), "explore_or1200 exploration " +
                                  std::to_string(it) + ": " + err);
    if (it == 0) {
      quality = res;
      std::printf("explore_or1200 instance seed %llu: %zu cells, best trial %d, "
                  "loss %.6f, best_checksum %llu\n",
                  static_cast<unsigned long long>(opt.instance_seed),
                  design.num_movable(), res.best_trial, res.best_loss,
                  static_cast<unsigned long long>(res.best_checksum));
    }

    if (traced) {
      traced_wall.push_back(r1 - r0);
      LayerSample l = exec.layers;
      finish_flow_layers(l);
      const puffer::OrchestratorStageMetrics& st = res.stats;
      l["orchestrate.prefix_s"] = st.prefix_s;
      l["orchestrate.trials_s"] = st.trials_s;
      l["orchestrate.utilization"] = st.scheduler_utilization;
      l["orchestrate.checkpoint_save_s"] = st.checkpoint_save_s;
      l["orchestrate.checkpoint_restore_s"] = st.checkpoint_restore_s;
      l["orchestrate.trials_run"] = st.trials_run;
      l["orchestrate.trials_pruned"] = st.trials_pruned;
      l["io.generate_s"] = s1 - s0;
      layers.push_back(std::move(l));
    } else {
      wall.push_back(r1 - r0);
      throughput.push_back(static_cast<double>(exec.trial_wall.size()) /
                           (r1 - r0));
      first_progress.push_back(exec.first_batch_done - r0);
      trial_wall.insert(trial_wall.end(), exec.trial_wall.begin(),
                        exec.trial_wall.end());
      trial_place.insert(trial_place.end(), exec.trial_place.begin(),
                         exec.trial_place.end());
    }

    const bool enough = static_cast<int>(wall.size()) >= kMinExplorations &&
                        (!opt.trace || traced_wall.size() >= 1);
    time_setup_batch(kSetupBatch);
    if (enough && now_s() + median(wall) > deadline) break;
  }
  tracer.set_enabled(false);
  if (setup.size() < kMinSetups) time_setup_batch(kMinSetups - setup.size());

  if (opt.trace) {
    emit_layers(report, layers);
    report.metric("trace.overhead_pct",
                  100.0 * (median(traced_wall) / median(wall) - 1.0), kPct);
    return;
  }
  report.metric("setup_s", median(setup), kSec);
  report.metric("wall_s", median(wall), kSec);
  report.metric("place_s", median(trial_place), kSec);
  report.metric("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
  report.metric("hof_pct", quality.best_route.overflow.hof_pct, kPct);
  report.metric("vof_pct", quality.best_route.overflow.vof_pct, kPct);
  report.metric("routed_wl", quality.best_route.wirelength, "dbu");
  report.metric("hpwl_legal", quality.best_flow.hpwl_legal, "dbu");
  report.metric("jobs_per_s", median(throughput), "1/s");
  report.metric("job_p50_s", median(trial_wall), kSec);
  report.metric("job_p75_s", quantile(trial_wall, 0.75), kSec);
  report.metric("telemetry_p50_s", median(first_progress), kSec);
}

}  // namespace perfbench
