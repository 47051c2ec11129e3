// Tests for the deterministic parallel legalizer and the batched detailed
// placer: the large-coordinate regression the integer site-unit
// arithmetic fixes, config validation, zero-area cells, the randomized
// legality property suite, and bitwise identity across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "dp/detailed_place.h"
#include "legal/abacus.h"
#include "legal/legality.h"

namespace puffer {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { par::set_num_threads(0); }
};

Design offset_design(double x0, double site, int num_sites, int num_rows,
                     double row_h = 8.0) {
  Design d;
  d.die = {x0, 0.0, x0 + site * num_sites, row_h * num_rows};
  d.tech = Technology::make_default(site, row_h);
  for (int r = 0; r < num_rows; ++r) {
    d.rows.push_back({r * row_h, x0, num_sites, site, row_h});
  }
  return d;
}

CellId add_cell(Design& d, double x, double y, double w, double h = 8.0) {
  Cell c;
  c.name = "c" + std::to_string(d.cells.size());
  c.width = w;
  c.height = h;
  c.x = x;
  c.y = y;
  return d.add_cell(std::move(c));
}

// The seed implementation compared world coordinates at a 1e7-DBU core
// offset against absolute 1e-9 epsilons — below double ULP at that
// magnitude, so the segment builder dropped a site and an exactly-full
// row failed to legalize. The integer site-unit arithmetic must place
// every cell.
TEST(LegalLargeOffset, ExactlyFullRowAtTenMillionDbu) {
  const double x0 = 1e7;
  const double site = 0.1;
  const int num_sites = 96;
  Design d = offset_design(x0, site, num_sites, 1);
  // 48 cells of width 0.2 fill the 96-site row exactly.
  for (int i = 0; i < 48; ++i) {
    add_cell(d, x0 + 0.2 * i, 0.0, 0.2);
  }
  const LegalizeResult r = legalize(d);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failed_cells, 0);
  EXPECT_EQ(r.placed, 48);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.legal) << rep.summary();
}

TEST(LegalConfig, ValidationThrowsAndClamps) {
  LegalizeConfig bad;
  bad.max_row_search = 0;
  EXPECT_THROW(validate_legalize_config(bad), std::invalid_argument);
  bad.max_row_search = -5;
  EXPECT_THROW(validate_legalize_config(bad), std::invalid_argument);

  // A usable config passes through unchanged.
  LegalizeConfig good;
  good.max_row_search = 3;
  EXPECT_EQ(validate_legalize_config(good).max_row_search, 3);

  Design d = offset_design(0.0, 1.0, 64, 2);
  add_cell(d, 3.0, 0.0, 2.0);
  EXPECT_THROW(legalize(d, {}, bad), std::invalid_argument);
}

// Zero-area cells (filler with zero width or height) previously divided
// by zero in the cluster recurrence and could be skipped by the slot
// write-back; they now occupy at least one site and get a real position.
TEST(LegalZeroWeight, ZeroAreaCellsArePlaced) {
  Design d = offset_design(0.0, 1.0, 64, 2);
  const CellId z = add_cell(d, 10.0, 0.0, 0.0);   // zero width
  const CellId f = add_cell(d, 12.0, 0.0, 2.0, 0.0);  // zero height
  add_cell(d, 10.5, 0.0, 2.0);
  const LegalizeResult r = legalize(d);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.placed, 3);
  for (CellId c : {z, f}) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    EXPECT_TRUE(std::isfinite(cell.x));
    EXPECT_TRUE(std::isfinite(cell.y));
  }
  // The zero-width cell owns a full site: no other cell may share it.
  const double zx = d.cells[static_cast<std::size_t>(z)].x;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    if (c == z) continue;
    const Cell& o = d.cells[static_cast<std::size_t>(c)];
    if (o.y != d.cells[static_cast<std::size_t>(z)].y) continue;
    EXPECT_TRUE(o.x + o.width <= zx + 1e-9 || o.x >= zx + 1.0 - 1e-9);
  }
}

Design random_design(std::uint64_t seed, double x0 = 0.0) {
  Rng rng(seed);
  const int num_rows = 12;
  const int num_sites = 160;
  Design d = offset_design(x0, 1.0, num_sites, num_rows);
  // A couple of fixed macros.
  for (int m = 0; m < 2; ++m) {
    Cell c;
    c.name = "m" + std::to_string(m);
    c.kind = CellKind::kMacro;
    c.width = 24.0;
    c.height = 24.0;
    c.x = x0 + 16.0 + 80.0 * m;
    c.y = 16.0 + 24.0 * m;
    d.add_cell(std::move(c));
  }
  const int n = 120 + static_cast<int>(rng.uniform_int(0, 60));
  const CellId first = static_cast<CellId>(d.cells.size());
  for (int i = 0; i < n; ++i) {
    add_cell(d, x0 + rng.uniform(0.0, num_sites - 8.0),
             rng.uniform(0.0, num_rows * 8.0 - 8.0),
             static_cast<double>(rng.uniform_int(1, 6)), 8.0);
  }
  // Random 2-4 pin nets so detailed placement has real work to do.
  for (int i = 0; i < n; ++i) {
    const NetId net = d.add_net("n" + std::to_string(i));
    const int degree = 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int p = 0; p < degree; ++p) {
      const CellId c =
          first + static_cast<CellId>(rng.uniform_int(0, n - 1));
      d.connect(c, net, rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0));
    }
  }
  return d;
}

std::vector<int> random_pads(const Design& d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> pads(d.cells.size(), 0);
  for (std::size_t i = 0; i < pads.size(); ++i) {
    if (rng.uniform(0.0, 1.0) < 0.3) {
      pads[i] = static_cast<int>(rng.uniform_int(1, 4));
    }
  }
  return pads;
}

// Padded slots must not overlap: cell i's slot is
// [x - (pad/2)*site, x - (pad/2)*site + (ceil(w/site) max 1 + pad)*site).
void expect_padded_slots_respected(const Design& d,
                                   const std::vector<int>& pads) {
  struct Slot {
    double lo, hi;
  };
  std::vector<std::vector<Slot>> by_row(d.rows.size());
  const double row_h = d.rows.front().height;
  const double site = d.rows.front().site_width;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    if (!cell.movable()) continue;
    const int r = static_cast<int>(std::llround(cell.y / row_h));
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(d.rows.size()));
    const int pad = pads[static_cast<std::size_t>(c)];
    const double phys =
        std::max<double>(1.0, std::ceil(cell.width / site - 1e-6));
    const double lo = cell.x - (pad / 2) * site;
    by_row[static_cast<std::size_t>(r)].push_back(
        {lo, lo + (phys + pad) * site});
  }
  for (auto& row : by_row) {
    std::sort(row.begin(), row.end(),
              [](const Slot& a, const Slot& b) { return a.lo < b.lo; });
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      EXPECT_LE(row[i].hi, row[i + 1].lo + 1e-6);
    }
  }
}

TEST(LegalProperties, RandomizedLegalityWithPadding) {
  for (std::uint64_t seed : {11ull, 29ull, 47ull}) {
    for (double x0 : {0.0, 1e7}) {
      Design d = random_design(seed, x0);
      const std::vector<int> pads = random_pads(d, seed * 31);
      const LegalizeResult r = legalize(d, pads);
      EXPECT_TRUE(r.success) << "seed " << seed << " x0 " << x0;
      const LegalityReport rep = check_legality(d);
      EXPECT_TRUE(rep.legal) << rep.summary() << " seed " << seed;
      expect_padded_slots_respected(d, pads);

      // Detailed placement must keep the placement legal and not hurt.
      const double before = d.total_hpwl();
      const DetailedPlaceResult dp = detailed_place(d);
      EXPECT_LE(d.total_hpwl(), before + 1e-9);
      EXPECT_GE(dp.passes, 1);
      const LegalityReport rep2 = check_legality(d);
      EXPECT_TRUE(rep2.legal) << rep2.summary() << " seed " << seed;
    }
  }
}

std::uint64_t position_bits_checksum(const Design& d) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Cell& c : d.cells) {
    std::uint64_t bx, by;
    std::memcpy(&bx, &c.x, sizeof(bx));
    std::memcpy(&by, &c.y, sizeof(by));
    for (std::uint64_t bits : {bx, by}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// Batched detailed placement is bit-identical for any thread count.
TEST(DetailedPlaceBatched, BitIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::uint64_t> checksums;
  for (int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    Design d = random_design(321);
    legalize(d);
    detailed_place(d);
    checksums.push_back(position_bits_checksum(d));
    EXPECT_TRUE(check_legality(d).legal);
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[1], checksums[2]);
}

}  // namespace
}  // namespace puffer
