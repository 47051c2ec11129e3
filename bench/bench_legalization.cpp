// Deterministic parallel legalization / detailed placement at 1/2/8
// threads.
//
// Simulates a repeat-round workload: a master placement is perturbed
// inside one randomly placed window per round (what a padding re-tune
// does between rounds), then legalization + detailed placement re-run
// from scratch. Every thread count consumes the exact same precomputed
// per-round inputs; the post-round placements are checksummed
// (puffer::position_checksum) and must be bit-identical across thread
// counts. The baseline for the timings is the previously committed JSON;
// the checksums must reproduce exactly.
//
// Output: bench_results/BENCH_legalization.json (schema puffer-bench-v1).
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dp/detailed_place.h"
#include "geometry/geometry.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "legal/abacus.h"
#include "legal/legality.h"

namespace {

using namespace puffer;

struct RoundInputs {
  // Per-round pre-legal positions of every cell; every thread count
  // replays the exact same inputs.
  std::vector<std::vector<double>> xs, ys;
};

void restore(Design& d, const RoundInputs& in, int round) {
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    if (!d.cells[i].movable()) continue;
    d.cells[i].x = in.xs[static_cast<std::size_t>(round)][i];
    d.cells[i].y = in.ys[static_cast<std::size_t>(round)][i];
  }
}

struct ModeTotals {
  double legal_s = 0.0;
  double dp_s = 0.0;
  double repeat_s = 0.0;  // legalize+dp over rounds >= 1
  std::uint64_t checksum = 0;
  int failed = 0;
  double hpwl = 0.0;
};

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  SyntheticSpec spec;
  spec.name = "legal_bench";
  spec.num_cells = 640000 / scale;
  spec.num_nets = 640000 / scale;
  spec.num_macros = 8;
  spec.seed = 42;
  const int kRounds = 10;
  const int kReps = 3;  // best-of-3 per mode
  const double kWindowFrac = 0.30;
  const LegalizeConfig legal_cfg;
  const DetailedPlaceConfig dp_cfg;

  Design design = generate_synthetic(spec);
  // Fixed per-cell padding (what discretize_padding feeds the legalizer).
  std::vector<int> pads(design.cells.size(), 0);
  for (std::size_t i = 0; i < pads.size(); ++i) {
    if (i % 5 == 0) pads[i] = 2;
    if (i % 11 == 0) pads[i] = 4;
  }

  // Master placement: one from-scratch legalization of the generated
  // design. Round 0 input is the master itself; each later round is the
  // master with the movable cells inside one random window jittered
  // (padding-retune-style localized change).
  RoundInputs inputs;
  {
    Design master = design;
    puffer::legalize(master, pads, legal_cfg);
    inputs.xs.assign(static_cast<std::size_t>(kRounds), {});
    inputs.ys.assign(static_cast<std::size_t>(kRounds), {});
    Rng rng(7);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double>& x = inputs.xs[static_cast<std::size_t>(round)];
      std::vector<double>& y = inputs.ys[static_cast<std::size_t>(round)];
      x.resize(master.cells.size());
      y.resize(master.cells.size());
      for (std::size_t i = 0; i < master.cells.size(); ++i) {
        x[i] = master.cells[i].x;
        y[i] = master.cells[i].y;
      }
      if (round == 0) continue;
      const double ww = (master.die.xhi - master.die.xlo) * kWindowFrac;
      const double wh = (master.die.yhi - master.die.ylo) * kWindowFrac;
      const double wx = rng.uniform(master.die.xlo, master.die.xhi - ww);
      const double wy = rng.uniform(master.die.ylo, master.die.yhi - wh);
      for (std::size_t i = 0; i < master.cells.size(); ++i) {
        const Cell& c = master.cells[i];
        if (!c.movable()) continue;
        if (x[i] < wx || x[i] > wx + ww || y[i] < wy || y[i] > wy + wh) {
          continue;
        }
        x[i] += static_cast<double>(rng.uniform_int(-20, 20));
        y[i] += static_cast<double>(rng.uniform_int(-8, 8));
        x[i] = clamp(x[i], master.die.xlo, master.die.xhi - c.width);
        y[i] = clamp(y[i], master.die.ylo, master.die.yhi - c.height);
      }
    }
  }

  // ---- one repeat-round run at a given thread count ---------------------
  auto run_at = [&](int threads) {
    par::set_num_threads(threads);
    ModeTotals t;
    Design d = design;
    for (int round = 0; round < kRounds; ++round) {
      restore(d, inputs, round);
      Timer tl;
      const LegalizeResult lr = puffer::legalize(d, pads, legal_cfg);
      const double dl = tl.elapsed_seconds();
      Timer td;
      puffer::detailed_place(d, dp_cfg);
      const double dd = td.elapsed_seconds();
      t.legal_s += dl;
      t.dp_s += dd;
      if (round > 0) t.repeat_s += dl + dd;
      t.failed += lr.failed_cells;
    }
    t.checksum = position_checksum(d);
    t.hpwl = d.total_hpwl();
    return t;
  };

  auto best_of = [&](auto&& fn, const char* label) {
    ModeTotals best;
    best.repeat_s = std::numeric_limits<double>::max();
    for (int rep = 0; rep < kReps; ++rep) {
      const ModeTotals t = fn();
      if (t.repeat_s < best.repeat_s) best = t;
      std::printf("  %s rep %d: legalize %.3fs dp %.3fs (repeat %.3fs)\n",
                  label, rep, t.legal_s, t.dp_s, t.repeat_s);
    }
    return best;
  };

  std::printf("legal_bench: %d cells, %d rounds, window %.0f%%\n",
              spec.num_cells, kRounds, 100.0 * kWindowFrac);
  const ModeTotals t1 = best_of([&] { return run_at(1); }, "1t");
  const ModeTotals t2 = best_of([&] { return run_at(2); }, "2t");
  const ModeTotals t8 = best_of([&] { return run_at(8); }, "8t");

  // Legality of the final-round output.
  Design check = design;
  restore(check, inputs, kRounds - 1);
  par::set_num_threads(8);
  puffer::legalize(check, pads, legal_cfg);
  puffer::detailed_place(check, dp_cfg);
  const LegalityReport legality = check_legality(check);

  const double thread_speedup =
      t8.repeat_s > 0.0 ? t1.repeat_s / t8.repeat_s : 0.0;
  const bool identical = t1.checksum == t2.checksum &&
                         t2.checksum == t8.checksum;
  const bool ok = identical && legality.legal && t8.failed == 0;

  std::printf(
      "\nrepeat rounds (%d): 1t %.3fs / 2t %.3fs / 8t %.3fs -> thread "
      "scaling %.2fx on %u hardware cores; thread bit-identical %s, final "
      "legality %s\n",
      kRounds - 1, t1.repeat_s, t2.repeat_s, t8.repeat_s, thread_speedup,
      std::thread::hardware_concurrency(), identical ? "yes" : "NO",
      legality.legal ? "legal" : "ILLEGAL");

  bench::BenchReport rep("legalization");
  rep.config("scale", scale);
  rep.config("num_cells", spec.num_cells);
  rep.config("num_nets", static_cast<int>(design.nets.size()));
  rep.config("rounds", kRounds);
  rep.config("reps", kReps);
  rep.config("window_frac", kWindowFrac);
  rep.config("hardware_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
  rep.result("legalize_1t_s", t1.legal_s);
  rep.result("dp_1t_s", t1.dp_s);
  rep.result("repeat_1t_s", t1.repeat_s);
  rep.result("repeat_2t_s", t2.repeat_s);
  rep.result("repeat_8t_s", t8.repeat_s);
  rep.result("failed_cells", t8.failed);
  rep.result("hpwl", t8.hpwl);
  rep.result("final_legal", std::string(legality.legal ? "yes" : "no"));
  rep.speedup("thread_8t_vs_1t", thread_speedup);
  rep.checksum("placement_1t", t1.checksum);
  rep.checksum("placement_2t", t2.checksum);
  rep.checksum("placement_8t", t8.checksum);
  rep.bit_identical(identical);
  const std::string path = rep.write();
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
