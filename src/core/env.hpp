// Strict integer parsing shared by every PPSIM_* knob and by the numeric
// arguments of ppsim_campaignd and the demos, and the range check of what
// those arguments build (checked_args).
//
// The historical parsers were raw std::atoi: a typo like PPSIM_TRIALS=1O0
// (letter O) silently became 1, and PPSIM_THREADS=x became 0 — both then
// drove a real campaign with a silently-wrong plan. Here a malformed value
// is a hard error: the full string must parse as a base-10 integer
// (strtoll, no trailing garbage, no overflow), and anything else prints the
// offending variable or argument and exits with status 2 — a mis-typed knob
// can never masquerade as a small trial count.
//
// Negative-value semantics are deliberate and documented at each call site:
// env_int/env_int64 *return* negatives verbatim (they parsed correctly —
// they are not garbage), and the caller decides what a negative means
// (PPSIM_THREADS <= 0 falls back to hardware concurrency; a negative
// PPSIM_TRIALS degrades to zero trials in the experiment drivers).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace ppsim::core {

/// The strict parse: the whole of `text` must be a base-10 integer; anything
/// else (empty, trailing garbage, overflow) prints `name` and `text` and
/// exits(2). Negatives are returned verbatim — see header comment.
[[nodiscard]] inline std::int64_t parse_int64(const char* name,
                                              const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "ppsim: %s='%s' is not an integer (strict parse; "
                 "refusing to run with a garbled knob)\n",
                 name, text);
    std::exit(2);
  }
  return static_cast<std::int64_t>(parsed);
}

/// parse_int64 narrowed to int; values outside int's range are rejected with
/// the same hard error as garbage (a 64-bit count fed to an int knob is a
/// plan the caller cannot represent, not a value to truncate).
[[nodiscard]] inline int parse_int(const char* name, const char* text) {
  const std::int64_t v = parse_int64(name, text);
  if (v < INT32_MIN || v > INT32_MAX) {
    std::fprintf(stderr, "ppsim: %s=%lld does not fit a 32-bit knob\n", name,
                 static_cast<long long>(v));
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// A parsed argument that must be at least `min` (a trial or step count):
/// the value itself, or "<name>=<value> must be >= <min>" on stderr and
/// exit(2), like a garbled one.
template <typename Int>
[[nodiscard]] Int at_least(const char* name, Int value,
                           std::type_identity_t<Int> min) {
  if (value < min) {
    std::fprintf(stderr, "ppsim: %s=%lld must be >= %lld\n", name,
                 static_cast<long long>(value), static_cast<long long>(min));
    std::exit(2);
  }
  return value;
}

/// Strict integer environment override: `fallback` when `name` is unset or
/// empty, parse_int64 of its value otherwise.
[[nodiscard]] inline std::int64_t env_int64(const char* name,
                                            std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? fallback : parse_int64(name, v);
}

/// env_int64 for an int knob: the value goes through parse_int's range
/// check.
[[nodiscard]] inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? fallback : parse_int(name, v);
}

/// `make()` — building a program's parameters from its parsed arguments —
/// with the std::invalid_argument a constructor throws on a well-formed but
/// out-of-range value (PlParams' n < 2, say) reported like a garbled
/// argument: the message on stderr and exit status 2, not an uncaught
/// exception.
template <typename Make>
[[nodiscard]] auto checked_args(Make&& make) -> decltype(make()) {
  try {
    return make();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ppsim: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace ppsim::core
