// Helpers for the flat one-object-per-line JSON logs (the trial journal,
// orchestrate/trial_journal.h, and the daemon's request log,
// serve/request_log.h).
//
// Both logs only ever parse lines they wrote themselves: one flat object
// per line, keys unique, strings without escapes. A full JSON parser
// would be dead weight; the getters fail (return false) on anything
// unexpected, which the tolerant loaders treat as a torn record. Doubles
// travel as the hex of their IEEE-754 bits so they round-trip exactly.
#pragma once

#include <cstdint>
#include <string>

namespace puffer::jsonl {

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
