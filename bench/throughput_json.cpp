// E18 — engine throughput trajectory: interactions/sec of the batched fast
// path (Runner::run, the scalar engine), the unbatched reference path
// (Runner::run_unbatched, the pre-batching engine), and — for protocols
// with a word-packed kernel (P_PL, src/pl/packed_protocol.hpp) — the packed
// path (a one-ring EnsembleRunner::run), all measured in this same binary
// for the four runnable Table-1 protocols at n in {64, 1024, 16384}, plus
// P_PL alone at n in {16, 256, EnsembleRunner::kWordCrossoverN}.
//
// Column semantics: `batched_ips` is Runner::run, exactly the engine every
// previous BENCH_throughput.json point measured, so the longitudinal
// `speedup` cell stays comparable; `packed_ips`/`packed_speedup` (packed vs
// scalar batched) are the word-kernel cells, 0 for protocols without a
// kernel. A one-ring EnsembleRunner runs the single-ring grouped word driver
// from kWordCrossoverN up and the scalar loop below it, so the P_PL rows on
// either side of the constant are its evidence: about 1x below it (same
// loop as Runner::run), and at or above 1x from it up.
//
// Writes BENCH_throughput.json (fields: its write_artifact call) so the perf
// trajectory of the simulation engine is tracked from PR 1 onward. Knobs:
// PPSIM_BENCH_STEPS (steps per timed measurement), PPSIM_BENCH_REPEATS
// (median-of-R), PPSIM_BENCH_DIR (artifact directory).
#include <iostream>
#include <string>
#include <vector>

#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "bench_util.hpp"
#include "core/ensemble.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace {

using namespace ppsim;

struct Row {
  std::string protocol;
  int n = 0;
  std::size_t state_bytes = 0;
  double unbatched_ips = 0.0;
  double batched_ips = 0.0;
  double packed_ips = 0.0;  ///< one-ring word lane; 0 = no kernel
  bool has_packed = false;

  [[nodiscard]] double speedup() const {
    return unbatched_ips > 0.0 ? batched_ips / unbatched_ips : 0.0;
  }
  [[nodiscard]] double packed_speedup() const {
    return has_packed && batched_ips > 0.0 ? packed_ips / batched_ips : 0.0;
  }
};

/// What a timed Runner body ran, for bench::median_ips's sink.
template <typename P>
std::uint64_t digest(const core::Runner<P>& r) {
  return r.steps() + r.last_leader_change() +
         static_cast<std::uint64_t>(r.leader_count());
}

/// BM_PlSteps-equivalent workload for one protocol/config: warm up, then
/// time run_unbatched(k), run(k) and (word-kernel protocols) the one-ring
/// ensemble's run(k) from the same warmed configuration.
template <typename P>
Row measure_protocol(const char* name, const typename P::Params& params,
                     std::vector<typename P::State> init,
                     std::uint64_t steps, int repeats) {
  Row row;
  row.protocol = name;
  row.n = params.n;
  row.state_bytes = sizeof(typename P::State);
  const std::uint64_t warmup = steps / 4 + 1024;
  // Every path starts from the same warmed configuration and RNG state (the
  // engines' trajectories are bit-identical), so none is biased by another
  // having advanced the configuration first.
  if constexpr (core::EnsembleRunner<P>::kWordable) {
    core::EnsembleRunner<P> word(params, 1);
    word.add_ring(init, /*seed=*/1);
    word.run(warmup);
    if (word.word_kernel_mode()) {
      row.has_packed = true;
      row.packed_ips = bench::median_ips(
          [&] {
            word.run(steps);
            return word.steps(0) + word.last_leader_change(0) +
                   static_cast<std::uint64_t>(word.leader_count(0));
          },
          steps, repeats);
    }
  }
  core::Runner<P> warmed(params, std::move(init), /*seed=*/1);
  warmed.run(warmup);  // warm caches, reach workload equilibrium
  {
    core::Runner<P> runner = warmed;
    row.unbatched_ips = bench::median_ips(
        [&] {
          runner.run_unbatched(steps);
          return digest(runner);
        },
        steps, repeats);
  }
  {
    core::Runner<P> runner = warmed;
    row.batched_ips = bench::median_ips(
        [&] {
          runner.run(steps);
          return digest(runner);
        },
        steps, repeats);
  }
  return row;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Engine throughput — batched vs unbatched scheduler",
                "engineering artifact (perf trajectory, not a paper figure)");

  const auto [steps, repeats] = bench::steps_and_repeats();
  const int c1 = core::env_int("PPSIM_C1", 4);

  std::vector<Row> rows;
  for (int n : {64, 1024, 16384}) {
    {
      const auto p = pl::PlParams::make(n, c1);
      rows.push_back(measure_protocol<pl::PlProtocol>(
          "P_PL", p, pl::make_safe_config(p), steps, repeats));
    }
    {
      const auto p = baselines::ModkParams::make(n + 1, 2);  // n odd for modk
      core::Xoshiro256pp rng(1);
      rows.push_back(measure_protocol<baselines::Modk>(
          "modk", p, baselines::modk_random_config(p, rng), steps, repeats));
    }
    {
      const auto p = baselines::Y28Params::make(n);
      core::Xoshiro256pp rng(1);
      rows.push_back(measure_protocol<baselines::Yokota28>(
          "yokota28", p, baselines::y28_random_config(p, rng), steps,
          repeats));
    }
    {
      const auto p = baselines::FjParams::make(n);
      core::Xoshiro256pp rng(1);
      rows.push_back(measure_protocol<baselines::FischerJiang>(
          "fischer_jiang", p, baselines::fj_random_config(p, rng), steps,
          repeats));
    }
  }

  // P_PL-only rows around the single-ring word crossover.
  constexpr int kCrossover =
      core::EnsembleRunner<pl::PlProtocol>::kWordCrossoverN;
  for (int n : {16, 256, kCrossover}) {
    const auto p = pl::PlParams::make(n, c1);
    rows.push_back(measure_protocol<pl::PlProtocol>(
        "P_PL", p, pl::make_safe_config(p), steps, repeats));
  }

  core::Table t({"protocol", "n", "unbatched M/s", "batched M/s", "speedup",
                 "packed M/s", "packed speedup"});
  for (const Row& r : rows) {
    t.add_row({r.protocol, core::fmt_u64(static_cast<unsigned long long>(r.n)),
               core::fmt_double(r.unbatched_ips / 1e6, 4),
               core::fmt_double(r.batched_ips / 1e6, 4),
               core::fmt_double(r.speedup(), 3),
               r.has_packed ? core::fmt_double(r.packed_ips / 1e6, 4) : "-",
               r.has_packed ? core::fmt_double(r.packed_speedup(), 3) : "-"});
  }
  t.print(std::cout);

  bench::write_artifact(
      "throughput", 2, "interactions_per_second",
      [&](core::JsonWriter& w) {
        w.field("steps_per_measurement", steps);
        w.field("repeats", repeats);
      },
      rows,
      [](core::JsonWriter& w, const Row& r) {
        w.field("protocol", r.protocol);
        w.field("n", r.n);
        w.field("state_bytes", static_cast<std::uint64_t>(r.state_bytes));
        w.field("unbatched_ips", r.unbatched_ips);
        w.field("batched_ips", r.batched_ips);
        w.field("speedup", r.speedup());
        w.field("packed_ips", r.packed_ips);
        w.field("packed_speedup", r.packed_speedup());
      });
  return 0;
}
