// E20 — campaign throughput trajectory: interactions/sec of the
// struct-of-arrays EnsembleRunner (core/ensemble.hpp) versus R per-trial
// Runner dispatch loops, measured in this same binary, for the four runnable
// Table-1 protocols at small campaign cells (n in {16, 64, 256}, R trials
// per cell). Both paths execute bit-identical per-ring trajectories (the
// ensemble contract, tests/core/ensemble_test.cpp), so this measures pure
// engine overhead: per-trial dispatch + construction versus the ensemble's
// blocked per-ring hot loop and, where a protocol qualifies, its
// accelerated lane — the packed-state transition LUT (modk) or the
// word-packed SIMD kernel lane (P_PL, cross-ring lockstep) — see
// core/ensemble.hpp.
//
// The per-trial reference is the scalar Runner engine: that is the engine
// every previous BENCH_ensemble.json point measured, so the longitudinal
// speedup cells stay comparable; each row's `ensemble_engine` field records
// which lane (lut / word / generic) produced the ensemble number.
//
// Writes BENCH_ensemble.json (fields: its write_artifact call) so the
// campaign-engine trajectory is tracked next to BENCH_throughput.json and
// BENCH_recovery.json. Knobs: PPSIM_BENCH_STEPS (total interactions per
// timed measurement, split across the cell's R rings), PPSIM_BENCH_REPEATS
// (median-of-R), PPSIM_BENCH_DIR (artifact directory).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "bench_util.hpp"
#include "core/ensemble.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"

namespace {

using namespace ppsim;

constexpr std::uint64_t kSeedBase = 53;

struct Row {
  std::string protocol;
  int n = 0;
  int trials = 0;
  std::uint64_t steps_per_ring = 0;
  std::size_t state_bytes = 0;
  std::string ensemble_engine;
  double per_trial_ips = 0.0;
  double ensemble_ips = 0.0;

  [[nodiscard]] double speedup() const {
    return per_trial_ips > 0.0 ? ensemble_ips / per_trial_ips : 0.0;
  }
};

/// One campaign cell: R trials of protocol P at the given params, each
/// advancing `steps_per_ring` interactions. Initial configurations and seeds
/// follow the campaign seeding scheme (derive_seed + cfg stream), drawn once
/// outside the timed region; both paths then pay their own construction —
/// that *is* the per-trial overhead being measured.
template <typename P>
Row measure_cell(const char* name, const typename P::Params& params,
                 int trials, std::uint64_t steps_per_ring, int repeats,
                 std::uint64_t tag) {
  Row row;
  row.protocol = name;
  row.n = params.n;
  row.trials = trials;
  row.steps_per_ring = steps_per_ring;
  row.state_bytes = sizeof(typename P::State);

  std::vector<std::vector<typename P::State>> inits;
  std::vector<std::uint64_t> seeds;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed =
        core::derive_seed(kSeedBase, tag, static_cast<std::uint64_t>(t));
    core::Xoshiro256pp cfg_rng(seed ^ 0xC0FFEE);
    inits.push_back(analysis::Adversary<P>::random_config(params, cfg_rng));
    seeds.push_back(seed);
  }
  const std::uint64_t total =
      steps_per_ring * static_cast<std::uint64_t>(trials);

  row.per_trial_ips = bench::median_ips(
      [&] {
        for (int t = 0; t < trials; ++t) {
          core::Runner<P> runner(params, inits[static_cast<std::size_t>(t)],
                                 seeds[static_cast<std::size_t>(t)]);
          runner.run(steps_per_ring);
        }
      },
      total, repeats);
  row.ensemble_ips = bench::median_ips(
      [&] {
        core::EnsembleRunner<P> ensemble(params, trials);
        for (int t = 0; t < trials; ++t)
          ensemble.add_ring(inits[static_cast<std::size_t>(t)],
                            seeds[static_cast<std::size_t>(t)]);
        ensemble.run(steps_per_ring);
      },
      total, repeats);
  {
    core::EnsembleRunner<P> probe(params, 1);
    probe.add_ring(inits[0], seeds[0]);
    row.ensemble_engine = probe.packed_mode()        ? "lut"
                          : probe.word_kernel_mode() ? "word"
                                                     : "generic";
  }
  return row;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Campaign throughput — ensemble vs per-trial Runner",
                "engineering artifact (perf trajectory, not a paper figure)");

  const auto [steps_total, repeats] = bench::steps_and_repeats();
  const int c1 = core::env_int("PPSIM_C1", 4);

  std::vector<Row> rows;
  std::uint64_t tag = 1;
  for (int n : {16, 64, 256}) {
    for (int trials : {32, 256}) {
      const std::uint64_t steps_per_ring = std::max<std::uint64_t>(
          256, steps_total / static_cast<std::uint64_t>(trials));
      {
        const auto p = pl::PlParams::make(n, c1);
        rows.push_back(measure_cell<pl::PlProtocol>("P_PL", p, trials,
                                                    steps_per_ring, repeats,
                                                    tag++));
      }
      {
        const auto p = baselines::ModkParams::make(n + 1, 2);  // n odd
        rows.push_back(measure_cell<baselines::Modk>("modk", p, trials,
                                                     steps_per_ring, repeats,
                                                     tag++));
      }
      {
        const auto p = baselines::Y28Params::make(n);
        rows.push_back(measure_cell<baselines::Yokota28>(
            "yokota28", p, trials, steps_per_ring, repeats, tag++));
      }
      {
        const auto p = baselines::FjParams::make(n);
        rows.push_back(measure_cell<baselines::FischerJiang>(
            "fischer_jiang", p, trials, steps_per_ring, repeats, tag++));
      }
    }
  }
  core::Table t({"protocol", "n", "trials", "engine", "per-trial M/s",
                 "ensemble M/s", "speedup"});
  for (const Row& r : rows) {
    t.add_row({r.protocol, core::fmt_u64(static_cast<unsigned long long>(r.n)),
               core::fmt_u64(static_cast<unsigned long long>(r.trials)),
               r.ensemble_engine,
               core::fmt_double(r.per_trial_ips / 1e6, 4),
               core::fmt_double(r.ensemble_ips / 1e6, 4),
               core::fmt_double(r.speedup(), 3)});
  }
  t.print(std::cout);

  bench::write_artifact(
      "ensemble", 2, "interactions_per_second",
      [&](core::JsonWriter& w) {
        w.field("steps_per_measurement", steps_total);
        w.field("repeats", repeats);
        w.field("seed_base", kSeedBase);
      },
      rows,
      [](core::JsonWriter& w, const Row& r) {
        w.field("protocol", r.protocol);
        w.field("n", r.n);
        w.field("trials", r.trials);
        w.field("steps_per_ring", r.steps_per_ring);
        w.field("state_bytes", static_cast<std::uint64_t>(r.state_bytes));
        w.field("ensemble_engine", r.ensemble_engine);
        w.field("per_trial_ips", r.per_trial_ips);
        w.field("ensemble_ips", r.ensemble_ips);
        w.field("speedup", r.speedup());
      });
  return 0;
}
