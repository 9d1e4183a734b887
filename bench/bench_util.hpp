// Shared helpers for the table/figure bench harnesses.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/env.hpp"  // every harness reads its knobs via core::env_int
#include "core/json.hpp"

namespace ppsim::bench {

/// Standard ring-size sweep for convergence experiments, capped by
/// PPSIM_MAX_N (default `max_n`).
[[nodiscard]] std::vector<int> ring_sweep(int max_n);

/// Header banner printed by every harness.
void banner(const std::string& title, const std::string& paper_ref);

/// The microbench knobs, read in one place: PPSIM_BENCH_STEPS (interactions
/// per timed measurement, default 4M) and PPSIM_BENCH_REPEATS (median-of-R,
/// default 5). A value below 1 exits(2), like a garbled one.
[[nodiscard]] std::pair<std::uint64_t, int> steps_and_repeats();

/// Median-of-`repeats` interactions/sec of `body()`, which executes
/// `steps` interactions per call. `repeats` must be at least 1.
///
/// The body returns a digest of what it ran (e.g. steps + leader_count +
/// last_leader_change of each engine it advanced), folded into a volatile
/// sink. A body whose engine is never read afterwards lets the compiler
/// delete every store nothing reads: a discarded per-trial Runner once lost
/// its whole leader census from the timed loop that way.
template <typename Body>
  requires std::same_as<std::invoke_result_t<Body&>, std::uint64_t>
double median_ips(Body&& body, std::uint64_t steps, int repeats) {
  static volatile std::uint64_t sink = 0;
  std::vector<double> ips;
  ips.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t digest = body();
    const auto t1 = std::chrono::steady_clock::now();
    sink = sink + digest;
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    // Guard against a zero-resolution clock reading (tiny step counts).
    ips.push_back(sec > 0.0 ? static_cast<double>(steps) / sec : 0.0);
  }
  std::sort(ips.begin(), ips.end());
  return ips[ips.size() / 2];
}

/// Whole file as a string; empty when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Output path for a BENCH_<name>.json artifact: $PPSIM_BENCH_DIR/<file> or
/// ./<file> when the variable is unset.
[[nodiscard]] std::string bench_json_path(const std::string& name);

/// Writes one JSON document to `path` through `body(w)` and prints "wrote
/// <path>". A failed open, write or close exits(1) with the path and
/// strerror: a full disk never leaves a truncated artifact and exit 0.
void write_json_file(const std::string& path,
                     const std::function<void(core::JsonWriter&)>& body);

/// Writes BENCH_<name>.json: the envelope (`bench`, `schema_version`,
/// `unit`), `header(w)`'s top-level fields, then `results` with one object
/// per element of `rows`, filled by `row(w, element)`.
template <typename Header, typename Rows, typename Row>
void write_artifact(const std::string& name, int schema_version,
                    const char* unit, Header&& header, const Rows& rows,
                    Row&& row) {
  write_json_file(bench_json_path(name), [&](core::JsonWriter& w) {
    w.begin_object();
    w.field("bench", name);
    w.field("schema_version", schema_version);
    w.field("unit", unit);
    header(w);
    w.key("results");
    w.begin_array();
    for (const auto& r : rows) {
      w.begin_object();
      row(w, r);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

}  // namespace ppsim::bench
