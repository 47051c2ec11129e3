// Tests for the quality-analysis module and the strategy-config
// serialization.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/quality.h"
#include "core/config_io.h"
#include "io/synthetic.h"
#include "router/global_router.h"

namespace puffer {
namespace {

TEST(Percentiles, BasicOrderStatistics) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Percentiles p = compute_percentiles(v);
  EXPECT_NEAR(p.p50, 50.0, 1.0);
  EXPECT_NEAR(p.p90, 90.0, 1.0);
  EXPECT_NEAR(p.p99, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(p.max, 100.0);
}

TEST(Percentiles, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(compute_percentiles({}).max, 0.0);
  const Percentiles p = compute_percentiles({7.0});
  EXPECT_DOUBLE_EQ(p.p50, 7.0);
  EXPECT_DOUBLE_EQ(p.max, 7.0);
}

TEST(Quality, ReportsWirelengthAndDensity) {
  SyntheticSpec spec;
  spec.num_cells = 500;
  spec.num_nets = 750;
  spec.num_macros = 3;
  spec.target_utilization = 0.7;
  const Design d = generate_synthetic(spec);
  const QualityReport r = analyze_quality(d);
  EXPECT_GT(r.hpwl, 0.0);
  EXPECT_EQ(r.nets, d.nets.size());
  EXPECT_GT(r.net_hpwl.max, r.net_hpwl.p50);
  EXPECT_NEAR(r.design_utilization, 0.7, 0.1);
  EXPECT_GT(r.bin_utilization.max, 0.0);
  EXPECT_FALSE(r.has_congestion);
  EXPECT_NE(r.to_string().find("HPWL"), std::string::npos);
}

TEST(Quality, CongestionSectionFromRoutedMaps) {
  SyntheticSpec spec;
  spec.num_cells = 400;
  spec.num_nets = 600;
  const Design d = generate_synthetic(spec);
  const RouteResult routed = GlobalRouter(d).route();
  const QualityReport r = analyze_quality(d, &routed.maps);
  EXPECT_TRUE(r.has_congestion);
  EXPECT_GT(r.cg_h.max, 0.0);
  EXPECT_GE(r.overflowed_gcell_frac, 0.0);
  EXPECT_LE(r.overflowed_gcell_frac, 1.0);
  EXPECT_NE(r.to_string().find("dmd/cap"), std::string::npos);
}

TEST(ConfigIo, RoundTripPreservesAllFields) {
  PufferConfig a;
  a.padding.mu = 7.25;
  a.padding.xi = 11;
  a.padding.alpha[4] = 0.625;
  a.congestion.enable_detour_expansion = false;
  a.congestion.expand_radius = 6;
  a.gp.target_density = 0.87;
  a.discrete.theta = 12.5;
  a.final_overflow = 0.125;
  const PufferConfig b = config_from_text(config_to_text(a));
  EXPECT_DOUBLE_EQ(b.padding.mu, 7.25);
  EXPECT_EQ(b.padding.xi, 11);
  EXPECT_DOUBLE_EQ(b.padding.alpha[4], 0.625);
  EXPECT_FALSE(b.congestion.enable_detour_expansion);
  EXPECT_EQ(b.congestion.expand_radius, 6);
  EXPECT_DOUBLE_EQ(b.gp.target_density, 0.87);
  EXPECT_DOUBLE_EQ(b.discrete.theta, 12.5);
  EXPECT_DOUBLE_EQ(b.final_overflow, 0.125);
}

TEST(ConfigIo, PartialOverrideKeepsBase) {
  PufferConfig base;
  base.padding.mu = 9.0;
  const PufferConfig c =
      config_from_text("padding.tau = 0.22\n# comment\n\n", base);
  EXPECT_DOUBLE_EQ(c.padding.tau, 0.22);
  EXPECT_DOUBLE_EQ(c.padding.mu, 9.0);  // untouched
}

TEST(ConfigIo, RejectsUnknownKeyAndBadValue) {
  EXPECT_THROW(config_from_text("padding.typo = 1\n"), ConfigError);
  // Retired knobs are unknown keys too.
  for (const char* key : {"padding.feature_incremental",
                          "padding.feature_rebuild_interval",
                          "padding.feature_verify_rebuild"}) {
    EXPECT_THROW(config_from_text(std::string(key) + " = 1\n"), ConfigError)
        << key;
  }
  EXPECT_THROW(config_from_text("padding.mu = banana\n"), ConfigError);
  EXPECT_THROW(config_from_text("just some words\n"), ConfigError);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "puffer_cfg_test.cfg").string();
  PufferConfig a;
  a.padding.pu_high = 0.123;
  save_config(a, path);
  const PufferConfig b = load_config(path);
  EXPECT_DOUBLE_EQ(b.padding.pu_high, 0.123);
  std::filesystem::remove(path);
  EXPECT_THROW(load_config("/nonexistent/x.cfg"), ConfigError);
}

}  // namespace
}  // namespace puffer
