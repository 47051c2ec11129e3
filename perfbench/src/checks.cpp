#include "checks.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/checkpoint.h"
#include "legal/legality.h"

namespace perfbench {

std::string check_legal(const puffer::Design& design) {
  const puffer::LegalityReport rep = puffer::check_legality(design);
  return rep.legal ? std::string() : "illegal placement: " + rep.summary();
}

std::string check_serve_result(puffer::Design& design,
                               const puffer::DoneMsg& done,
                               const puffer::ResultMsg& result) {
  using puffer::SessionState;
  if (done.summary.state != static_cast<std::uint8_t>(SessionState::kDone)) {
    return "session " + std::to_string(done.session_id) + " ended " +
           puffer::session_state_name(
               static_cast<SessionState>(done.summary.state)) +
           ": " + done.summary.message;
  }
  if (result.session_id != done.session_id) return "result for another session";
  if (result.checksum != done.summary.checksum) {
    return "Result checksum differs from Done checksum";
  }
  if (result.x.size() != design.cells.size() ||
      result.y.size() != design.cells.size()) {
    return "Result has the wrong number of positions";
  }
  for (std::size_t i = 0; i < design.cells.size(); ++i) {
    design.cells[i].x = result.x[i];
    design.cells[i].y = result.y[i];
  }
  if (puffer::position_checksum(design) != result.checksum) {
    return "Result positions do not hash to the Result checksum";
  }
  const std::string legal = check_legal(design);
  if (!legal.empty()) return legal;
  if (design.total_hpwl() != result.hpwl_legal ||
      result.hpwl_legal != done.summary.hpwl_legal) {
    return "legal HPWL of the fetched placement differs from the reported one";
  }
  return {};
}

std::map<std::string, std::uint64_t> read_reference(const std::string& path,
                                                    const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference checksums " + path);
  std::map<std::string, std::uint64_t> out;
  bool in_section = false, found = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') {
      in_section = line == "[" + workload + "]";
      found = found || in_section;
      continue;
    }
    if (!in_section) continue;
    std::istringstream fields(line);
    std::string key;
    std::uint64_t value = 0;
    if (!(fields >> key >> value)) {
      throw std::runtime_error("malformed reference line in " + path + ": " + line);
    }
    out[key] = value;
  }
  if (!found || out.empty()) {
    throw std::runtime_error("no checksums for [" + workload + "] in " + path);
  }
  return out;
}

std::string RepeatCheck::observe_checksum(const std::string& key,
                                          std::uint64_t value) {
  if (!reference_.empty()) {
    const auto it = reference_.find(key);
    if (it == reference_.end()) {
      return "no recorded checksum for " + key + " (this run: " +
             std::to_string(value) + ")";
    }
    if (it->second != value) {
      return key + " differs from the recorded checksum (" +
             std::to_string(it->second) + " recorded, " + std::to_string(value) +
             " now)";
    }
  }
  return observe(key, value);
}

std::string RepeatCheck::observe(const std::string& key, std::uint64_t value) {
  const auto [it, fresh] = first_.emplace(key, value);
  if (fresh || it->second == value) return {};
  return key + " differs between repeats of the same input (" +
         std::to_string(it->second) + " vs " + std::to_string(value) + ")";
}

std::string RepeatCheck::observe(const std::string& key, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return observe(key, bits);
}

}  // namespace perfbench
