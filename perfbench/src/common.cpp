#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "checks.h"
#include "perfbench.h"

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void time_setups(std::vector<double>& out, std::size_t n, int per_sample,
                 const std::function<void()>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  // Restores the thread's affinity on every exit path.
  struct Restore {
    const cpu_set_t& mask;
    ~Restore() { ::sched_setaffinity(0, sizeof mask, &mask); }
  } restore{allowed};
  for (std::size_t i = 0; i < n; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[out.size() % cpus.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
    const double t0 = now_s();
    for (int k = 0; k < per_sample; ++k) fn();
    out.push_back((now_s() - t0) / per_sample);
  }
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
  if (seed == 0) return base;
  // splitmix64 finalizer over the pair; never returns 0 (some seeds in
  // the library mean "unset" at 0).
  std::uint64_t z = base * 0x9E3779B97F4A7C15ULL + seed;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::map<std::string, std::uint64_t> reference_checksums(const Options& opt,
                                                         const std::string& workload) {
  if (opt.instance_seed != 0) return {};
  return read_reference(PERFBENCH_REFERENCE, workload);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why) { errors_.push_back(why); }

int Tracer::add(const std::string& name, double start, double end, int parent,
                std::uint64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"job\": %llu}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.job));
  }
  std::fclose(f);
}

}  // namespace perfbench
