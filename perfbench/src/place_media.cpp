// place_media: one full PUFFER flow on MEDIA_SUBSYS followed by the
// neutral evaluation route, in process at 4 threads.
//
// MEDIA_SUBSYS carries the paper's starved-vertical signature (VOF >>
// HOF), and the GP kernels are ~95% of its flow and run their parallel
// path: this is where multicore and SIMD work on the kernels shows.
#include <unistd.h>

#include "checks.h"
#include "common/parallel.h"
#include "core/experiment.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "layers.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int kScale = 128;
constexpr int kMinFlows = 3;    // untraced flows per run, at least
// setup_s samples, each the mean of kSetupsPerSample set-ups (~15 ms
// each): a batch of samples after every flow, so they span the run like
// the flows do (this machine's speed changes on a scale of seconds), and
// at least kMinSetups samples in all. None is taken before the first
// flow: until a flow has freed its large blocks, glibc hands every
// set-up's memory back to the kernel and the next set-up page-faults it
// in again, so early samples would be slower than the rest.
constexpr int kSetupsPerSample = 4;
constexpr std::size_t kSetupBatch = 8;
constexpr std::size_t kMinSetups = 25;

}  // namespace

void run_place_media(const Options& opt, Tracer& tracer, Report& report) {
  puffer::par::set_num_threads(kThreads);
  puffer::SyntheticSpec spec = puffer::table1_spec("MEDIA_SUBSYS", kScale);
  spec.seed = derive_seed(spec.seed, opt.instance_seed);
  const puffer::ExperimentConfig base;  // the paper's flow + neutral router

  RepeatCheck repeats(reference_checksums(opt, "place_media"));
  std::vector<double> setup, wall, place, first_progress;
  std::vector<double> traced_wall;
  std::vector<LayerSample> layers;
  puffer::RouteResult quality_route;
  double hpwl_legal = 0.0;

  // Set-up alone: generation + flow construction.
  auto time_setup_batch = [&](std::size_t n) {
    time_setups(setup, n, kSetupsPerSample, [&] {
      puffer::Design design = puffer::generate_synthetic(spec);
      puffer::PufferFlow flow(design, base.puffer);
    });
  };
  const double deadline = now_s() + opt.seconds;
  for (int it = 0;; ++it) {
    // A traced run alternates untraced and traced flows so the tracing
    // overhead is measured under the same conditions.
    const bool traced = opt.trace && it % 2 == 1;
    tracer.set_enabled(traced);
    const std::uint64_t job = static_cast<std::uint64_t>(it);

    const double s0 = now_s();
    puffer::Design design = puffer::generate_synthetic(spec);
    const double s1 = now_s();
    puffer::PufferFlow flow(design, base.puffer);
    const double s2 = now_s();
    const int setup_span = tracer.add("setup", s0, s2, -1, job);
    tracer.add("io.generate", s0, s1, setup_span, job);
    tracer.add("flow.construct", s1, s2, setup_span, job);

    // Time to first visible progress: the first padding round reaching
    // the progress hook, as an observer of the flow would see it.
    std::vector<double> rounds;
    flow.set_progress_hook([&rounds](const puffer::FlowProgress&) {
      rounds.push_back(now_s());
      return true;
    });
    const double r0 = now_s();
    const puffer::FlowMetrics m = flow.run();
    const double r1 = now_s();
    const puffer::RouteResult route =
        puffer::evaluate_routability(design, base.eval_router, flow.estimator());
    const double r2 = now_s();

    const int run_span = tracer.add("flow.run", r0, r1, -1, job);
    if (!rounds.empty()) {
      tracer.add("flow.prefix_gp", r0, rounds.front(), run_span, job);
      tracer.add("flow.padding_loop", rounds.front(), rounds.back(), run_span,
                 job);
      tracer.add("flow.tail", rounds.back(), r1, run_span, job);
    }
    tracer.add("router.evaluate", r1, r2, -1, job);

    report.attempt();
    std::string err = check_legal(design);
    if (err.empty() && !m.legality.legal) err = "flow reported an illegal placement";
    for (const std::string& e :
         {repeats.observe_checksum("checksum", puffer::position_checksum(design)),
          repeats.observe("hof_pct", route.overflow.hof_pct),
          repeats.observe("vof_pct", route.overflow.vof_pct),
          repeats.observe("routed_wl", route.wirelength),
          repeats.observe("hpwl_legal", m.hpwl_legal)}) {
      if (err.empty()) err = e;
    }
    if (!err.empty()) report.fail("place_media flow " + std::to_string(it) + ": " + err);
    if (it == 0) {
      quality_route = route;
      hpwl_legal = m.hpwl_legal;
      std::printf("place_media instance seed %llu: %zu cells, checksum %llu\n",
                  static_cast<unsigned long long>(opt.instance_seed),
                  design.num_movable(),
                  static_cast<unsigned long long>(
                      puffer::position_checksum(design)));
    }

    if (traced) {
      traced_wall.push_back(r2 - r0);
      LayerSample l;
      add_flow_layers(l, m, route);
      finish_flow_layers(l);
      const double first = rounds.empty() ? r1 : rounds.front();
      const double last = rounds.empty() ? r1 : rounds.back();
      l["flow.prefix_gp_s"] = first - r0;
      l["flow.padding_loop_s"] = last - first;
      l["flow.tail_s"] = r1 - last;
      l["io.generate_s"] = s1 - s0;
      layers.push_back(std::move(l));
    } else {
      wall.push_back(r2 - r0);
      place.push_back(r1 - r0);
      first_progress.push_back((rounds.empty() ? r1 : rounds.front()) - r0);
    }

    // Stop once the time is used, but never before the minimum sample
    // count (traced runs need one traced flow per untraced one).
    const int untraced = static_cast<int>(wall.size());
    const bool enough = untraced >= kMinFlows &&
                        (!opt.trace || traced_wall.size() >= 2);
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
  const double wall_med = median(wall);
  report.metric("setup_s", median(setup), kSec);
  report.metric("wall_s", wall_med, kSec);
  report.metric("place_s", median(place), kSec);
  report.metric("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
  report.metric("hof_pct", quality_route.overflow.hof_pct, kPct);
  report.metric("vof_pct", quality_route.overflow.vof_pct, kPct);
  report.metric("routed_wl", quality_route.wirelength, "dbu");
  report.metric("hpwl_legal", hpwl_legal, "dbu");
  report.metric("jobs_per_s", 1.0 / wall_med, "1/s");
  report.metric("job_p50_s", wall_med, kSec);
  report.metric("job_p75_s", quantile(wall, 0.75), kSec);
  report.metric("telemetry_p50_s", median(first_progress), kSec);
}

}  // namespace perfbench
