#include "io/jsonl.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "io/checkpoint.h"

namespace puffer::jsonl {

Appender::Appender(const std::string& path, std::string what)
    : path_(path), what_(std::move(what)) {
  created_ = ::access(path.c_str(), F_OK) != 0;
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_) {
    throw CheckpointError(what_ + ": cannot open " + path + ": " +
                          std::strerror(errno));
  }
  fd_ = ::fileno(file_);
}

Appender::~Appender() {
  if (file_) std::fclose(file_);
}

void Appender::append(const std::string& line) {
  const std::string text = line + "\n";
  if (std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
    throw CheckpointError(what_ + ": short write to " + path_);
  }
  if (std::fflush(file_) != 0) {
    throw CheckpointError(what_ + ": flush failed for " + path_);
  }
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    throw CheckpointError(what_ + ": fsync failed for " + path_ + ": " +
                          std::strerror(errno));
  }
}

void for_each_line(const std::string& path,
                   const std::function<bool(const std::string&)>& take) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return;
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    const bool last = nl == std::string::npos;
    if (!take(last ? data.substr(pos) : data.substr(pos, nl - pos))) return;
    if (last) return;
    pos = nl + 1;
  }
}

std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '"' || c == '\\' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

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
