// The flat one-object-per-line JSON logs (the trial journal,
// orchestrate/trial_journal.h, and the daemon's request log,
// serve/request_log.h): their crash-safe appender, their tolerant loader
// and the field helpers both codecs share.
//
// Both logs only ever parse lines they wrote themselves: one flat object
// per line, keys unique, strings without escapes (free text goes through
// sanitize()). A full JSON parser would be dead weight; the getters fail
// (return false) on anything unexpected, which the tolerant loader treats
// as a torn record. Doubles travel as the hex of their IEEE-754 bits so
// they round-trip exactly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace puffer::jsonl {

// Append-only log file: each append() writes one line, flushes and
// fsyncs, so a crash at any point tears at most the final line. Every
// CheckpointError it throws starts with `what` ("journal: ...").
class Appender {
 public:
  // Opens `path` for appending, creating it when missing; throws
  // CheckpointError when it cannot be opened.
  Appender(const std::string& path, std::string what);
  ~Appender();
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;

  // Writes `line` plus a newline; throws CheckpointError on I/O failure.
  void append(const std::string& line);

  const std::string& path() const { return path_; }
  // True when the constructor created the file (it did not exist).
  bool created() const { return created_; }

 private:
  std::string path_;
  std::string what_;
  std::FILE* file_ = nullptr;
  int fd_ = -1;
  bool created_ = false;
};

// Feeds the lines of `path` to `take` in order until it returns false (a
// torn or corrupt record: it and everything after it are ignored). A
// final line without a newline is fed too; a missing file feeds nothing.
void for_each_line(const std::string& path,
                   const std::function<bool(const std::string&)>& take);

// Tolerant loader: the records `decode` accepts, up to the first line it
// rejects.
template <typename Record>
std::vector<Record> load_lines(const std::string& path,
                               bool (*decode)(const std::string&, Record*)) {
  std::vector<Record> records;
  for_each_line(path, [&](const std::string& line) {
    Record rec;
    if (!decode(line, &rec)) return false;
    records.push_back(std::move(rec));
    return true;
  });
  return records;
}

// `s` with every character that would break a flat-line string value
// ('"', '\\', '\n', '\r') replaced by '_'.
std::string sanitize(const std::string& s);

// Sixteen lower-case hex digits, zero-padded.
std::string hex_u64(std::uint64_t v);

std::uint64_t double_bits(double v);
double bits_double(std::uint64_t bits);

// The raw text of `key`'s value: the contents of a string value, or an
// unquoted value up to the next ',', '}' or ']'.
bool find_raw(const std::string& line, const std::string& key,
              std::string* out);
bool get_hex(const std::string& line, const std::string& key,
             std::uint64_t* out);
bool get_int(const std::string& line, const std::string& key, int* out);
bool get_string(const std::string& line, const std::string& key,
                std::string* out);

}  // namespace puffer::jsonl
