#include "io/jsonl.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace puffer::jsonl {

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool find_raw(const std::string& line, const std::string& key,
              std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  while (p < line.size() && line[p] == ' ') ++p;
  if (p >= line.size()) return false;
  if (line[p] == '"') {
    const std::size_t end = line.find('"', p + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(p + 1, end - p - 1);
    return true;
  }
  std::size_t end = p;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  if (end == line.size()) return false;
  *out = line.substr(p, end - p);
  return true;
}

bool get_hex(const std::string& line, const std::string& key,
             std::uint64_t* out) {
  std::string raw;
  if (!find_raw(line, key, &raw) || raw.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(raw.c_str(), &end, 16);
  if (errno != 0 || end == raw.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool get_int(const std::string& line, const std::string& key, int* out) {
  std::string raw;
  if (!find_raw(line, key, &raw) || raw.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw.c_str(), &end, 10);
  if (errno != 0 || end == raw.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool get_string(const std::string& line, const std::string& key,
                std::string* out) {
  return find_raw(line, key, out);
}

}  // namespace puffer::jsonl
