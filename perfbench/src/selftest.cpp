// Proves every output check of the benchmark trips: each check runs on a
// correct output (must pass) and on corrupted copies (each must fail).
// Run by `ctest` in the benchmark's build tree, or `run.py --self-test`.
#include <cstdio>
#include <string>

#include "checks.h"
#include "common/logger.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool pass_expected, const std::string& result, const char* what) {
  const bool passed = result.empty();
  const bool ok = passed == pass_expected;
  std::printf("%-4s %-52s %s\n", ok ? "ok" : "FAIL", what,
              passed ? "(check passed)" : ("(tripped: " + result + ")").c_str());
  if (!ok) ++g_failures;
}

puffer::ResultMsg result_of(const puffer::Design& d, std::uint64_t session) {
  puffer::ResultMsg r;
  r.session_id = session;
  r.checksum = puffer::position_checksum(d);
  r.hpwl_legal = d.total_hpwl();
  for (const puffer::Cell& c : d.cells) {
    r.x.push_back(c.x);
    r.y.push_back(c.y);
  }
  return r;
}

puffer::DoneMsg done_of(const puffer::ResultMsg& r) {
  puffer::DoneMsg d;
  d.session_id = r.session_id;
  d.summary.state = static_cast<std::uint8_t>(puffer::SessionState::kDone);
  d.summary.checksum = r.checksum;
  d.summary.hpwl_legal = r.hpwl_legal;
  return d;
}

}  // namespace

int main() {
  puffer::Logger::instance().set_level(puffer::LogLevel::kWarn);
  puffer::SyntheticSpec spec = puffer::table1_spec("CT_SCAN", 2048);
  const puffer::Design unplaced = puffer::generate_synthetic(spec);
  puffer::Design placed = unplaced;
  puffer::PufferFlow(placed, puffer::PufferConfig{}).run();

  // Legality.
  expect(true, check_legal(placed), "legalized flow output is legal");
  expect(false, check_legal(unplaced), "unlegalized placement trips legality");

  // Serve results.
  const puffer::ResultMsg good = result_of(placed, 7);
  const puffer::DoneMsg done = done_of(good);
  auto serve = [&](puffer::DoneMsg d, puffer::ResultMsg r) {
    puffer::Design copy = unplaced;
    return check_serve_result(copy, d, r);
  };
  expect(true, serve(done, good), "correct serve result passes");
  {
    puffer::ResultMsg r = good;
    r.checksum ^= 1;
    expect(false, serve(done, r), "Result checksum != Done checksum trips");
  }
  {
    puffer::ResultMsg r = good;
    r.x[r.x.size() / 2] += placed.rows.front().site_width;
    expect(false, serve(done, r), "corrupted fetched position trips");
  }
  {
    puffer::ResultMsg r = good;
    r.x.pop_back();
    expect(false, serve(done, r), "truncated position list trips");
  }
  {
    puffer::ResultMsg r = good;
    r.hpwl_legal *= 1.0000001;
    puffer::DoneMsg d = done;
    d.summary.hpwl_legal = r.hpwl_legal;
    expect(false, serve(d, r), "misreported legal HPWL trips");
  }
  {
    puffer::DoneMsg d = done;
    d.summary.state = static_cast<std::uint8_t>(puffer::SessionState::kFailed);
    expect(false, serve(d, good), "failed session trips");
  }
  {
    // Self-consistent checksum, illegal positions: only legality can see it.
    const puffer::ResultMsg r = result_of(unplaced, 7);
    expect(false, serve(done_of(r), r), "consistent but illegal result trips");
  }

  // Repeats of one input.
  RepeatCheck repeats;
  expect(true, repeats.observe("checksum", std::uint64_t{42}), "first checksum");
  expect(true, repeats.observe("checksum", std::uint64_t{42}), "identical repeat passes");
  expect(false, repeats.observe("checksum", std::uint64_t{43}), "differing repeat trips");
  expect(true, repeats.observe("hof_pct", 0.0), "first quality value");
  expect(false, repeats.observe("hof_pct", -0.0), "quality differing in bits trips");

  // Checksums pinned to the recorded reference.
  RepeatCheck pinned({{"checksum", 42}});
  expect(true, pinned.observe_checksum("checksum", 42), "recorded checksum passes");
  expect(false, pinned.observe_checksum("checksum", 43),
         "checksum differing from the recorded one trips");
  expect(false, pinned.observe_checksum("other", 42),
         "checksum without a recorded value trips");
  auto recorded = [](const char* workload) {
    return read_reference(PERFBENCH_REFERENCE, workload).size();
  };
  expect(true,
         recorded("place_media") == 1 && recorded("explore_or1200") == 1 &&
                 recorded("serve_mix") == 20
             ? ""
             : "reference.txt does not cover every checked input",
         "reference.txt records every checked checksum");

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
