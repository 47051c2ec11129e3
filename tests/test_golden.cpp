// Golden values of the small PUFFER flow: the congestion demand checksum
// of every padding round (read through the progress hook), the bits of
// the post-GP HPWL and the final position checksum, for a full run() and
// for a staged run_prefix() + run_from(). The constants pin the
// placement the flow produces, so a refactor or deletion that changes
// any bit of the estimate, the padding loop, GP or legalization fails
// here even when every thread count and SIMD width changes consistently.
//
// Toolchain caveat (as for bench_results/REFERENCE_perf_smoke_checksums.txt):
// the values are tied to the x86-64 gcc/glibc toolchain, since libm
// differences move the bits legitimately. After an intentional numeric
// change, or a toolchain bump, re-record them from the failure messages,
// which print every observed value.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

class GoldenTest : public ::testing::Test {
 protected:
  ~GoldenTest() override {
    par::set_num_threads(0);
    simd::set_enabled(true);
  }
};

// The small flow of test_gp_soa.cpp: V-starved, padding triggers.
SyntheticSpec small_spec() {
  SyntheticSpec spec;
  spec.name = "soa";
  spec.seed = 17;
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
  cfg.num_threads = 0;  // the tests pin the global count themselves
  return cfg;
}

struct FlowTrace {
  std::vector<std::uint64_t> round_demand;  // demand_checksum per round
  std::uint64_t hpwl_gp_bits = 0;
  std::uint64_t positions = 0;  // position_checksum after legalization
};

std::string describe(const FlowTrace& t) {
  std::string s = "round_demand {";
  char buf[64];
  for (std::size_t i = 0; i < t.round_demand.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016" PRIx64 "ull", i ? ", " : "",
                  t.round_demand[i]);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "}, hpwl_gp_bits 0x%016" PRIx64 "ull",
                t.hpwl_gp_bits);
  s += buf;
  std::snprintf(buf, sizeof buf, ", positions 0x%016" PRIx64 "ull",
                t.positions);
  s += buf;
  return s;
}

// Runs the flow (staged through a fork snapshot when `fork_overflow` > 0)
// and records its trace.
FlowTrace trace_flow(double fork_overflow) {
  Design d = generate_synthetic(small_spec());
  PufferFlow flow(d, small_flow_config());
  FlowTrace t;
  flow.set_progress_hook([&t](const FlowProgress& p) {
    t.round_demand.push_back(demand_checksum(*p.maps));
    return true;
  });
  FlowMetrics m;
  if (fork_overflow > 0.0) {
    FlowSnapshot snap;
    flow.run_prefix(fork_overflow, RngStream(7), &snap);
    m = flow.run_from(snap);
  } else {
    m = flow.run();
  }
  std::memcpy(&t.hpwl_gp_bits, &m.hpwl_gp, sizeof t.hpwl_gp_bits);
  t.positions = position_checksum(d);
  return t;
}

void expect_trace(const FlowTrace& got, const FlowTrace& want,
                  const std::string& where) {
  EXPECT_EQ(got.round_demand, want.round_demand) << where;
  EXPECT_EQ(got.hpwl_gp_bits, want.hpwl_gp_bits) << where;
  EXPECT_EQ(got.positions, want.positions) << where;
  if (got.round_demand != want.round_demand ||
      got.hpwl_gp_bits != want.hpwl_gp_bits ||
      got.positions != want.positions) {
    ADD_FAILURE() << where << " observed " << describe(got);
  }
}

// Recorded with the demand ledger, the incremental feature maps and the
// row-ledger legalizer still in the flow; their from-scratch replacements
// must reproduce every bit.
const FlowTrace kRunGolden = {
    {0x70657a8323d55bfbull, 0x75b492f4dc8fec75ull, 0x9f2c2a69f9bea08aull},
    0x40c6a5b90387d072ull,
    0xb0a55b77a6365892ull};
const FlowTrace kStagedGolden = {
    {0x557f564be13936d1ull, 0xfe8f8efd3fdbc6f4ull, 0xaa842f2dc7af00dfull},
    0x40c7a664db9c71caull,
    0x682d4106536c7cc9ull};

TEST_F(GoldenTest, SmallFlowMatchesRecordedValues) {
  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    expect_trace(trace_flow(0.0), kRunGolden,
                 "run() threads=" + std::to_string(threads));
  }
  simd::set_enabled(false);
  expect_trace(trace_flow(0.0), kRunGolden, "run() simd off");
}

TEST_F(GoldenTest, StagedSmallFlowMatchesRecordedValues) {
  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    expect_trace(trace_flow(0.45), kStagedGolden,
                 "run_prefix+run_from threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace puffer
