// Shared pieces of the end-to-end benchmark: options, the per-run
// report, order statistics and the in-memory span recorder.
//
// The benchmark drives the library and the pufferd binary only through
// their public entry points; every span here is recorded by the
// benchmark around its own calls, at ProgressHook timestamps, or from
// the counters the public result structs already return.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  // Run seed: the serve mix's job order and wire formats. It leaves
  // every placement problem unchanged (see README.md, "Seeds").
  std::uint64_t seed = 1;
  // Instance seed: the synthetic spec seeds and the TPE seed. 0 keeps
  // the recorded defaults (the Table I seeds, TPE seed 1234).
  std::uint64_t instance_seed = 0;
  double seconds = 35.0;  // measuring time of one run
  bool trace = false;     // traced run: per-layer metrics instead
};

// Seconds on the steady clock since the first call in this process.
double now_s();

// Appends `n` setup_s samples to `out`. Each sample is the mean time of
// `per_sample` consecutive calls of `fn`: single set-ups take
// milliseconds, where scheduler jitter would swamp them. Sample i runs
// with the calling thread pinned to the next CPU this process may use,
// round robin, and the thread's affinity is restored after it. The
// vCPUs of a shared machine differ in speed from moment to moment, and
// a thread left where the scheduler put it would time one of them for a
// whole batch.
void time_setups(std::vector<double>& out, std::size_t n, int per_sample,
                 const std::function<void()>& fn);

// Derives a sub-seed from a recorded default and a seed argument, so one
// argument moves several generators independently: `base` itself when
// `seed` is 0, a fixed mix of the two otherwise (never 0).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
// 0 for an empty one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The checksums recorded in perfbench/reference.txt for `workload` when
// the run uses the default instances (--instance-seed 0); none otherwise,
// so other instances are checked only between repeats within the run.
std::map<std::string, std::uint64_t> reference_checksums(const Options& opt,
                                                         const std::string& workload);

// VmHWM (peak resident set) of a process in MiB, from /proc; 0 when it
// cannot be read.
double peak_rss_mb(pid_t pid);

// What one run reports: metrics by name with their unit, the operations
// attempted and failed, and the reason for every failure.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(int n = 1) { attempted_ += n; }
  // Counts one failed operation or check; `why` is printed with the
  // summary.
  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  int attempted() const { return attempted_; }
  int failed() const { return static_cast<int>(errors_.size()); }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> errors_;
  int attempted_ = 0;
};

// In-memory spans (name, start, end, parent, job id), written once when
// the run ends. Disabled tracers record nothing, so untraced measurement
// pays one branch per call. Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index of the parent span, -1 = root
    std::uint64_t job = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  // Records a finished span; returns its index (-1 when disabled).
  int add(const std::string& name, double start, double end, int parent = -1,
          std::uint64_t job = 0);

  // Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Workload entry points. Each fills `report` with every end-to-end
// metric (untraced) or every per-layer metric (traced).
void run_place_media(const Options& opt, Tracer& tracer, Report& report);
void run_explore_or1200(const Options& opt, Tracer& tracer, Report& report);
void run_serve_mix(const Options& opt, Tracer& tracer, Report& report);

// Units shared by the metric tables.
inline constexpr const char* kSec = "s";
inline constexpr const char* kCount = "count";
inline constexpr const char* kFrac = "frac";
inline constexpr const char* kPct = "%";

}  // namespace perfbench
