// Output checks of the benchmark. Each returns an empty string when the
// output is correct and the reason otherwise; a failed check counts into
// the run's `failed` and makes the command exit non-zero. selftest.cpp
// proves every check trips on a corrupted output.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "netlist/design.h"
#include "serve/serve_protocol.h"

namespace perfbench {

// The design's current placement is legal (LegalityReport).
std::string check_legal(const puffer::Design& design);

// A fetched serve result against the job's Done summary: the session
// finished, Result and Done carry the same checksum, the positions fit
// the submitted design, and applying them reproduces that checksum, a
// legal placement and the reported legal HPWL bit for bit. `design` is
// the submitted design; its positions are overwritten.
std::string check_serve_result(puffer::Design& design,
                               const puffer::DoneMsg& done,
                               const puffer::ResultMsg& result);

// Checksums recorded for the default instances (--instance-seed 0): the
// "<key> <value>" lines of `path` that follow the line "[<workload>]".
// Throws when the file cannot be read or has no checksums for `workload`.
std::map<std::string, std::uint64_t> read_reference(const std::string& path,
                                                    const std::string& workload);

// Remembers the first value seen per key and reports any later value
// that differs: repeats of one input must give the same bits (placement
// checksums, and quality numbers compared as IEEE-754 bit patterns).
class RepeatCheck {
 public:
  RepeatCheck() = default;
  // Checksums pinned to recorded values, so that they must agree across
  // runs and builds, not only between the repeats of one run.
  explicit RepeatCheck(std::map<std::string, std::uint64_t> reference)
      : reference_(std::move(reference)) {}

  std::string observe(const std::string& key, std::uint64_t value);
  std::string observe(const std::string& key, double value);
  // observe(), and with a reference: the recorded value for `key` exists
  // and equals `value`.
  std::string observe_checksum(const std::string& key, std::uint64_t value);

 private:
  std::map<std::string, std::uint64_t> reference_;
  std::map<std::string, std::uint64_t> first_;
};

}  // namespace perfbench
