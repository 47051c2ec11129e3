// perfbench: the end-to-end benchmark of the PUFFER placer.
//
//   perfbench --workload NAME [--seed N] [--instance-seed N]
//             [--seconds S] [--trace 0|1]
//
// Runs one workload (place_media, explore_or1200, serve_mix; see
// perfbench/README.md) for S seconds, checks its outputs, prints every
// metric by name with its unit, and ends stdout with one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the run's spans to .bench_trace/. Exit status: 0 when every
// check passed, 1 when a check failed, 2 on a usage or runtime error
// (then no result object is printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/logger.h"
#include "perfbench.h"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench --workload place_media|explore_or1200|serve_mix "
    "[--seed N] [--instance-seed N] [--seconds S] [--trace 0|1]\n";

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--instance-seed") {
      opt.instance_seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
      if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  return opt;
}

void print_result(const Report& report) {
  std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : report.metrics()) {
    std::printf("%-34s %18.6f  %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const double failed_pct =
      report.attempted() > 0 ? 100.0 * report.failed() / report.attempted() : 0.0;
  std::printf("%-34s %18.6f  %s   (%d of %d attempted)\n", "failed_pct",
              failed_pct, "%", report.failed(), report.attempted());
  for (const std::string& e : report.errors()) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", vu.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  puffer::Logger::instance().set_level(puffer::LogLevel::kWarn);

  Tracer tracer;
  Report report;
  try {
    if (opt.workload == "place_media") {
      run_place_media(opt, tracer, report);
    } else if (opt.workload == "explore_or1200") {
      run_explore_or1200(opt, tracer, report);
    } else if (opt.workload == "serve_mix") {
      run_serve_mix(opt, tracer, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s",
                   opt.workload.c_str(), kUsage);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  for (const auto& [name, vu] : report.metrics()) {
    report.check(std::isfinite(vu.first), name + " is not a finite number");
  }
  if (report.attempted() == 0) report.fail("no operation was attempted");

  if (opt.trace) {
    std::filesystem::create_directories(".bench_trace");
    const std::string path = ".bench_trace/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    tracer.write_jsonl(path);
    std::printf("spans written to %s\n", path.c_str());
  }
  print_result(report);
  return report.correct() ? 0 : 1;
}
