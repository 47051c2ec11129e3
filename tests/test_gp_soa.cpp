// SoA global-placement core tests: mirror<->Design sync at every commit
// point (engine commit, legalization/DP commits, snapshot restores),
// bit-identity of the SoA WA gradient and bucketed rasterization against
// the retired scalar kernels across PUFFER_THREADS 1/2/8 and PUFFER_SIMD
// on/off, flow-level placement checksums across the same matrix and
// every vector width, and bitwise equality (memcmp, so signed zeros
// count) of the lane-batched DctPlan2D transforms and Poisson solve with
// the dct.h free-function pipeline at every width the host supports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/flow.h"
#include "fft/dct.h"
#include "fft/dct_plan.h"
#include "gp/electrostatics.h"
#include "gp/engine.h"
#include "gp/soa.h"
#include "gp/wirelength.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

// Restores the global worker count and the SIMD switch after each test.
class GpSoaTest : public ::testing::Test {
 protected:
  ~GpSoaTest() override {
    par::set_num_threads(0);
    simd::set_enabled(true);
    simd::set_isa_limit(simd::Isa::kAvx512);
  }
};

SyntheticSpec small_spec(std::uint64_t seed = 17) {
  SyntheticSpec spec;
  spec.name = "soa";
  spec.seed = seed;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.55;
  return spec;
}

PufferConfig small_flow_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  cfg.num_threads = 0;  // tests pin the global count themselves
  return cfg;
}

std::uint64_t placement_checksum(const Design& d) {
  BinaryWriter w;
  for (const Cell& c : d.cells) {
    w.put_f64(c.x);
    w.put_f64(c.y);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

// Every vector width this host can dispatch to, narrowest first.
std::vector<simd::Isa> host_widths() {
  std::vector<simd::Isa> out;
  for (int i = 0; i <= static_cast<int>(simd::host_isa()); ++i) {
    out.push_back(static_cast<simd::Isa>(i));
  }
  return out;
}

// Bitwise equality: unlike operator== on doubles, tells -0.0 from +0.0.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Random grid with exact signed zeros sprinkled in. With `all_zero` every
// entry is +0.0 or -0.0, so every output is a zero whose sign depends on
// the exact operation sequence (negation, x*1 - y*0, ...).
std::vector<double> signed_zero_grid(std::size_t n, std::uint64_t seed,
                                     bool all_zero = false) {
  std::vector<double> data(n);
  Rng rng(seed);
  for (double& v : data) v = rng.uniform(-2.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (all_zero || i % 5 == 0) data[i] = data[i] < 0.0 ? -0.0 : 0.0;
  }
  return data;
}

TEST_F(GpSoaTest, BuildMirrorsDesignExactly) {
  Design d = generate_synthetic(small_spec());
  GpSoA soa;
  soa.build(d);

  ASSERT_GT(soa.num_movable(), 0u);
  ASSERT_GT(soa.num_nets(), 0u);
  EXPECT_TRUE(soa.matches(d));

  // Every movable ordinal round-trips through ordinal_of_cell, and the
  // mirrored center is the exact expression x + width*0.5.
  for (std::size_t i = 0; i < soa.num_movable(); ++i) {
    const CellId id = soa.cell_ids[i];
    const Cell& c = d.cells[static_cast<std::size_t>(id)];
    EXPECT_TRUE(c.movable());
    EXPECT_EQ(soa.ordinal_of_cell[static_cast<std::size_t>(id)],
              static_cast<std::int32_t>(i));
    EXPECT_EQ(soa.cx[i], c.x + c.width * 0.5);
    EXPECT_EQ(soa.cy[i], c.y + c.height * 0.5);
    EXPECT_EQ(soa.cw[i], c.width);
  }
  // CSR sanity: slot counts agree between the net-major and the
  // transposed cell-major views (fixed-pin slots appear only net-major).
  EXPECT_EQ(soa.net_start.back(),
            static_cast<std::int64_t>(soa.num_slots()));
  std::int64_t movable_slots = 0;
  for (std::size_t s = 0; s < soa.num_slots(); ++s) {
    if (soa.pin_ord[s] >= 0) ++movable_slots;
  }
  EXPECT_EQ(soa.cell_start.back(), movable_slots);
}

TEST_F(GpSoaTest, PullPushSyncAfterExternalCommits) {
  Design d = generate_synthetic(small_spec());
  GpSoA soa;
  soa.build(d);
  EXPECT_TRUE(soa.matches(d));

  // A full flow commits GP results, discretized padding, legalization,
  // and detailed placement into the Design behind the mirror's back.
  PufferConfig cfg = small_flow_config();
  cfg.run_dp = true;
  PufferFlow flow(d, cfg);
  flow.run();
  EXPECT_FALSE(soa.matches(d));  // mirror is stale at this commit point

  soa.pull_positions(d);
  EXPECT_TRUE(soa.matches(d));

  // push_positions writes centers back as lower-left corners, bitwise.
  const std::uint64_t before = placement_checksum(d);
  soa.cx[0] += 3.5;
  soa.cy[0] -= 1.25;
  soa.push_positions(d);
  EXPECT_TRUE(soa.matches(d));
  EXPECT_NE(placement_checksum(d), before);
  const Cell& moved = d.cells[static_cast<std::size_t>(soa.cell_ids[0])];
  EXPECT_EQ(moved.x, soa.cx[0] - moved.width * 0.5);
  EXPECT_EQ(moved.y, soa.cy[0] - moved.height * 0.5);
}

TEST_F(GpSoaTest, EngineCommitAndSnapshotRestoreKeepMirrorInSync) {
  // Engine commit: sync_to_design() must leave the engine's own mirror
  // matching the Design.
  Design d = generate_synthetic(small_spec());
  GpConfig gp;
  gp.max_iters = 40;
  EPlaceEngine eng(d, gp);
  for (int i = 0; i < 10; ++i) eng.step();
  eng.sync_to_design();
  EXPECT_TRUE(eng.soa().matches(d));

  // Snapshot restore: run_from() on a fresh Design is an external commit
  // like any other -- a mirror built before it goes stale and re-syncs.
  Design d2 = generate_synthetic(small_spec());
  PufferFlow flow(d2, small_flow_config());
  FlowSnapshot snap;
  flow.run_prefix(0.45, RngStream(7), &snap);
  GpSoA mirror;
  mirror.build(d2);
  EXPECT_TRUE(mirror.matches(d2));
  flow.run_from(snap);
  EXPECT_FALSE(mirror.matches(d2));
  mirror.pull_positions(d2);
  EXPECT_TRUE(mirror.matches(d2));
  EXPECT_EQ(mirror.position_checksum(), [&] {
    GpSoA fresh;
    fresh.build(d2);
    return fresh.position_checksum();
  }());
}

TEST_F(GpSoaTest, GradientBitIdenticalToLegacyAcrossThreadsAndSimd) {
  Design d = generate_synthetic(small_spec());
  WaWirelength wl(d);
  std::vector<double> xc, yc;
  for (CellId c : wl.movable_cells()) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    xc.push_back(cell.x + cell.width * 0.5);
    yc.push_back(cell.y + cell.height * 0.5);
  }

  // Reference bits: the retired scalar kernel, serial.
  par::set_num_threads(1);
  wl.use_legacy_kernels(true);
  std::vector<double> rgx, rgy;
  const double ref_total = wl.evaluate(xc, yc, 4.0, rgx, rgy);
  const double ref_hpwl = wl.hpwl(xc, yc);

  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    for (const bool legacy : {true, false}) {
      wl.use_legacy_kernels(legacy);
      for (const bool simd_on : {true, false}) {
        simd::set_enabled(simd_on);
        std::vector<double> gx, gy;
        EXPECT_EQ(wl.evaluate(xc, yc, 4.0, gx, gy), ref_total)
            << "threads=" << threads << " legacy=" << legacy
            << " simd=" << simd_on;
        EXPECT_EQ(gx, rgx) << "threads=" << threads << " legacy=" << legacy
                           << " simd=" << simd_on;
        EXPECT_EQ(gy, rgy) << "threads=" << threads << " legacy=" << legacy
                           << " simd=" << simd_on;
        EXPECT_EQ(wl.hpwl(xc, yc), ref_hpwl) << "threads=" << threads;
      }
    }
  }
}

TEST_F(GpSoaTest, RasterizeBitIdenticalToLegacyAcrossThreads) {
  // The large spec has enough elements for several chunks of the
  // parallel bucket pass, whose per-chunk band counts and fill cursors
  // must reproduce the serial counting sort.
  SyntheticSpec large = small_spec(5);
  large.num_cells = 6000;
  large.num_nets = 8000;
  for (const SyntheticSpec& spec : {small_spec(), large}) {
    GpConfig legacy_cfg;
    legacy_cfg.legacy_kernels = true;
    Design d1 = generate_synthetic(spec);
    EPlaceEngine legacy_eng(d1, legacy_cfg);
    Design d2 = generate_synthetic(spec);
    EPlaceEngine soa_eng(d2, GpConfig{});
    const std::vector<double> x = legacy_eng.solver_x();
    const std::vector<double> y = legacy_eng.solver_y();
    ASSERT_EQ(x, soa_eng.solver_x());  // same spec -> same elements
    if (spec.num_cells == large.num_cells) {
      ASSERT_GT(soa_eng.num_elements(), 3u * 2048u);
    }

    par::set_num_threads(1);
    const std::vector<double> ref = legacy_eng.rasterize_probe(x, y).raw();
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      EXPECT_TRUE(same_bits(legacy_eng.rasterize_probe(x, y).raw(), ref))
          << spec.num_cells << " cells, legacy threads=" << threads;
      EXPECT_TRUE(same_bits(soa_eng.rasterize_probe(x, y).raw(), ref))
          << spec.num_cells << " cells, soa threads=" << threads;
    }
  }
}

TEST_F(GpSoaTest, FlowChecksumInvariantAcrossThreadsSimdAndKernelPath) {
  // Legalization snaps cells to sites, which can hide a last-bit GP
  // difference, so the post-GP HPWL is compared bitwise as well.
  std::uint64_t ref = 0;
  double ref_hpwl_gp = 0.0;
  bool have_ref = false;
  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    for (const bool simd_on : {true, false}) {
      simd::set_enabled(simd_on);
      Design d = generate_synthetic(small_spec());
      PufferFlow flow(d, small_flow_config());
      const double hpwl_gp = flow.run().hpwl_gp;
      const std::uint64_t sum = placement_checksum(d);
      if (!have_ref) {
        ref = sum;
        ref_hpwl_gp = hpwl_gp;
        have_ref = true;
      }
      EXPECT_EQ(sum, ref) << "threads=" << threads << " simd=" << simd_on;
      EXPECT_EQ(std::memcmp(&hpwl_gp, &ref_hpwl_gp, sizeof hpwl_gp), 0)
          << "threads=" << threads << " simd=" << simd_on;
    }
  }
  // The retired scalar path reproduces the same final placement.
  simd::set_enabled(true);
  par::set_num_threads(1);
  Design d = generate_synthetic(small_spec());
  PufferConfig cfg = small_flow_config();
  cfg.gp.legacy_kernels = true;
  PufferFlow flow(d, cfg);
  const double hpwl_gp = flow.run().hpwl_gp;
  EXPECT_EQ(placement_checksum(d), ref);
  EXPECT_EQ(std::memcmp(&hpwl_gp, &ref_hpwl_gp, sizeof hpwl_gp), 0);
}

// Checks the four DctPlan2D transforms of `data` (and two aliased ones)
// against the dct.h free functions at every host width and thread count.
void expect_plan_matches_free_functions(std::size_t nx, std::size_t ny,
                                        const std::vector<double>& data,
                                        const std::string& label) {
  const std::vector<double> ref[] = {
      dct2_2d(data, nx, ny), dct3_raw_2d(data, nx, ny),
      idxst_dct3_2d(data, nx, ny), dct3_idxst_2d(data, nx, ny)};
  DctPlan2D plan(nx, ny);
  for (const simd::Isa isa : host_widths()) {
    simd::set_isa_limit(isa);
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      const std::string where = std::to_string(nx) + "x" +
                                std::to_string(ny) + " " + label + " " +
                                simd::active_isa() +
                                " threads=" + std::to_string(threads);
      std::vector<double> out;
      plan.dct2_2d(data, out);
      EXPECT_TRUE(same_bits(out, ref[0])) << "dct2 " << where;
      plan.dct3_raw_2d(data, out);
      EXPECT_TRUE(same_bits(out, ref[1])) << "dct3 " << where;
      plan.idxst_dct3_2d(data, out);
      EXPECT_TRUE(same_bits(out, ref[2])) << "idxst_dct3 " << where;
      plan.dct3_idxst_2d(data, out);
      EXPECT_TRUE(same_bits(out, ref[3])) << "dct3_idxst " << where;

      // Aliased in/out is allowed.
      std::vector<double> inplace = data;
      plan.dct2_2d(inplace, inplace);
      EXPECT_TRUE(same_bits(inplace, ref[0])) << "aliased dct2 " << where;
      inplace = data;
      plan.dct3_idxst_2d(inplace, inplace);
      EXPECT_TRUE(same_bits(inplace, ref[3]))
          << "aliased dct3_idxst " << where;
    }
  }
  simd::set_isa_limit(simd::Isa::kAvx512);
}

TEST_F(GpSoaTest, DctPlanMatchesFreeFunctionsBitwise) {
  // Squares up to 8 lines put fewer lines than lanes on a pass; the
  // non-square shapes give the row and column passes different widths.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {2, 2}, {4, 4}, {8, 8}, {1, 8}, {8, 2},
      {32, 8}, {8, 32}, {128, 64}, {128, 128}};
  for (const auto& [nx, ny] : sizes) {
    const std::uint64_t seed = 123 + nx * ny;
    expect_plan_matches_free_functions(
        nx, ny, signed_zero_grid(nx * ny, seed), "mixed");
    expect_plan_matches_free_functions(
        nx, ny, signed_zero_grid(nx * ny, seed, true), "zeros");
  }
  // PUFFER_SIMD off selects the one-lane path.
  simd::set_enabled(false);
  const std::vector<double> data = signed_zero_grid(32 * 8, 7);
  std::vector<double> out;
  DctPlan2D(32, 8).idxst_dct3_2d(data, out);
  EXPECT_TRUE(same_bits(out, idxst_dct3_2d(data, 32, 8)));

  EXPECT_THROW(DctPlan2D(24, 16), std::invalid_argument);
}

TEST_F(GpSoaTest, PoissonSolveMatchesLegacyPipelineBitwise) {
  // n = 0 stands for an empty 16x16 map: every output is a signed zero.
  for (const int size : {1, 2, 8, 32, 128, 0}) {
    const int n = size == 0 ? 16 : size;
    Map2D<double> rho(n, n);
    Rng rng(41 + static_cast<std::uint64_t>(n));
    for (double& v : rho.raw()) v = size == 0 ? 0.0 : rng.uniform(0.0, 3.0);
    rho.raw()[0] = 0.0;  // an empty bin

    ElectrostaticSystem legacy(n, n, 96.0, 64.0);
    legacy.use_legacy_pipeline(true);
    legacy.solve(rho);
    ElectrostaticSystem es(n, n, 96.0, 64.0);
    for (const simd::Isa isa : host_widths()) {
      simd::set_isa_limit(isa);
      for (const int threads : {1, 2, 8}) {
        par::set_num_threads(threads);
        es.solve(rho);
        const std::string where = "size=" + std::to_string(size) + " " +
                                  simd::active_isa() + " threads=" +
                                  std::to_string(threads);
        EXPECT_TRUE(same_bits(es.potential().raw(), legacy.potential().raw()))
            << "psi " << where;
        EXPECT_TRUE(same_bits(es.field_x().raw(), legacy.field_x().raw()))
            << "ex " << where;
        EXPECT_TRUE(same_bits(es.field_y().raw(), legacy.field_y().raw()))
            << "ey " << where;
        const double e = es.energy(), le = legacy.energy();
        EXPECT_EQ(std::memcmp(&e, &le, sizeof e), 0) << "energy " << where;
      }
    }
    simd::set_isa_limit(simd::Isa::kAvx512);
  }
}

TEST_F(GpSoaTest, FlowChecksumIdenticalAtEveryWidth) {
  // The small-flow placement checksum at every forced vector width; the
  // scalar reference runs with SIMD off. Legalization snaps cells to
  // sites, which can hide a last-bit difference, so the GP-stage HPWL and
  // the unsnapped positions after a few Nesterov steps are compared too.
  auto run = [](std::uint64_t& placed, double& hpwl_gp,
                std::vector<double>& gp_x, std::vector<double>& gp_y) {
    Design d = generate_synthetic(small_spec());
    hpwl_gp = PufferFlow(d, small_flow_config()).run().hpwl_gp;
    placed = placement_checksum(d);
    Design d2 = generate_synthetic(small_spec());
    EPlaceEngine eng(d2, GpConfig{});
    for (int i = 0; i < 10; ++i) eng.step();
    gp_x = eng.solver_x();
    gp_y = eng.solver_y();
  };
  simd::set_enabled(false);
  std::uint64_t ref_placed = 0;
  double ref_hpwl = 0.0;
  std::vector<double> ref_x, ref_y;
  run(ref_placed, ref_hpwl, ref_x, ref_y);
  simd::set_enabled(true);
  for (const simd::Isa isa : host_widths()) {
    simd::set_isa_limit(isa);
    std::uint64_t placed = 0;
    double hpwl = 0.0;
    std::vector<double> x, y;
    run(placed, hpwl, x, y);
    EXPECT_EQ(placed, ref_placed) << simd::isa_name(isa);
    EXPECT_EQ(std::memcmp(&hpwl, &ref_hpwl, sizeof hpwl), 0)
        << simd::isa_name(isa);
    EXPECT_TRUE(same_bits(x, ref_x)) << simd::isa_name(isa);
    EXPECT_TRUE(same_bits(y, ref_y)) << simd::isa_name(isa);
  }
}

TEST_F(GpSoaTest, ActiveIsaReportsDispatchedWidth) {
  simd::set_enabled(true);  // whatever PUFFER_SIMD says
  const simd::Isa host = simd::host_isa();
  EXPECT_STREQ(simd::active_isa(), simd::isa_name(host));
  simd::set_isa_limit(simd::Isa::kSse2);
  EXPECT_STREQ(simd::active_isa(),
               host == simd::Isa::kScalar ? "scalar" : "sse2");
  simd::set_isa_limit(simd::Isa::kAvx512);
  simd::set_enabled(false);
  EXPECT_EQ(simd::dispatch_isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::active_isa(), "scalar");
  for (const simd::Isa isa : host_widths()) {
    const std::string name = simd::isa_name(isa);
    EXPECT_TRUE(name == "scalar" || name == "sse2" || name == "avx2" ||
                name == "avx512")
        << name;
  }
}

TEST_F(GpSoaTest, SimdHelpersMatchScalarBitwise) {
  // The vector helpers must agree with their scalar fallbacks bit-for-bit
  // on every lane, including the tail and signed zeros.
  Rng rng(99);
  const std::size_t n = 257;  // odd: exercises the scalar tail
  std::vector<double> a(n), b(n), lo(n), hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-10.0, 10.0);
    b[i] = rng.uniform(-10.0, 10.0);
    lo[i] = -5.0;
    hi[i] = 5.0;
  }
  a[0] = -0.0;
  b[0] = 0.0;

  std::vector<double> v1(n), v2(n);
  auto expect_lanes_equal = [&](const char* op) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v1[i], v2[i]) << op << " lane " << i;
      ASSERT_EQ(std::signbit(v1[i]), std::signbit(v2[i]))
          << op << " lane " << i;
    }
  };

  simd::set_enabled(true);
  simd::sub_scaled(a.data(), b.data(), 0.37, v1.data(), n);
  simd::set_enabled(false);
  simd::sub_scaled(a.data(), b.data(), 0.37, v2.data(), n);
  expect_lanes_equal("sub_scaled");

  simd::set_enabled(true);
  simd::extrapolate(a.data(), b.data(), 1.62, v1.data(), n);
  simd::set_enabled(false);
  simd::extrapolate(a.data(), b.data(), 1.62, v2.data(), n);
  expect_lanes_equal("extrapolate");

  simd::set_enabled(true);
  simd::add(a.data(), b.data(), v1.data(), n);
  simd::set_enabled(false);
  simd::add(a.data(), b.data(), v2.data(), n);
  expect_lanes_equal("add");

  simd::set_enabled(true);
  v1 = a;
  simd::clamp_to(v1.data(), lo.data(), hi.data(), n);
  simd::set_enabled(false);
  v2 = a;
  simd::clamp_to(v2.data(), lo.data(), hi.data(), n);
  expect_lanes_equal("clamp_to");

  simd::set_enabled(true);
}

}  // namespace
}  // namespace puffer
