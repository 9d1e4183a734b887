// Tiny streaming JSON writer.
//
// Grew up in bench/ as the BENCH_*.json artifact writer; promoted to core
// so the campaign service (src/service/) can stream result frames through
// exactly the same serializer the bench artifacts use — one JSON dialect,
// one escaping routine, one set of number formats across every artifact the
// repo emits.
//
// Two layout modes:
//   * pretty (default) — two-space indentation, one element per line; the
//     committed BENCH_*.json artifacts are written this way and their bytes
//     are unchanged by the move.
//   * compact — no newlines or indentation inside the document; finish()
//     still terminates with a single '\n'. This is the newline-delimited-
//     JSON (NDJSON) framing mode: one document per line, so a stream
//     consumer can split frames on '\n' without a JSON parser.
//
// Structural misuse (value with a dangling key, unbalanced scopes) trips an
// assert in debug builds. Scope is deliberately minimal — objects, arrays,
// strings, bools, int64/uint64/double.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ppsim::core {

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out, bool compact = false)
      : out_(out), compact_(compact) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const char* name);

  void value(const char* s);
  void value(const std::string& s) { value(s.c_str()); }
  void value(bool b);
  void value(double d);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }

  /// key + value in one call.
  template <typename T>
  void field(const char* name, const T& v) {
    key(name);
    value(v);
  }

  /// Terminates the document with a trailing newline (the NDJSON frame
  /// delimiter in compact mode).
  void finish();

 private:
  void separate();
  void write_string(const char* s);

  std::FILE* out_;
  bool compact_ = false;        ///< NDJSON mode: no newlines inside the doc
  std::vector<char> stack_;     ///< '{' or '[' per open scope
  bool first_in_scope_ = true;  ///< no comma needed before the next element
  bool after_key_ = false;      ///< next value belongs to a pending key
};

}  // namespace ppsim::core
