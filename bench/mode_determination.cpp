// E5 — Lemmas 3.6/3.7: the DetermineMode() machinery.
//
// (a) leaderless population: steps until every agent is in detection mode
//     (or a leader is created first) — O(n^2 log n);
// (b) with a stable leader: across a Theta(kappa_max n^2) window, how many
//     agents ever reach detection mode (expected: none — false detections
//     are what the polylog clock machinery suppresses).
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Mode determination — Lemmas 3.6/3.7",
                "Lemma 3.6 (construction holds) / Lemma 3.7 (detection)");

  const int trials = core::env_int("PPSIM_TRIALS", 5);
  const int c1 = core::env_int("PPSIM_C1", 4);

  // (a) Detection latency without a leader.
  core::Table ta({"n", "median steps to all-Detect-or-leader",
                  "/(n^2 lg n)"});
  for (int n : bench::ring_sweep(128)) {
    const auto p = pl::PlParams::make(n, c1);
    const auto n_u = static_cast<std::uint64_t>(n);
    analysis::ScalingPoint pt{n, {}};
    pt.stats = analysis::measure_convergence<pl::PlProtocol>(
        p,
        [&](core::Xoshiro256pp&) {
          return pl::stale_signals_everywhere(p);  // worst case: drain first
        },
        [](pl::Config c, const pl::PlParams& pp) {
          return pl::count_leaders(c) > 0 ||
                 pl::AllDetectPredicate{}(c, pp);
        },
        trials, 60'000ULL * n_u * n_u + 60'000'000ULL, 21,
        static_cast<unsigned>(n));
    ta.add_row({core::fmt_u64(n_u),
                core::fmt_double(pt.stats.steps.median, 4),
                core::fmt_double(analysis::normalized_n2logn(pt), 3)});
  }
  std::printf("\n-- (a) leaderless: time to detection mode --\n");
  ta.print(std::cout);

  // (b) False-detection watch with a stable leader.
  std::printf("\n-- (b) with a leader: agents reaching Detect in a "
              "Theta(kappa_max n^2) window --\n");
  core::Table tb({"n", "window (steps)", "agents ever in Detect",
                  "leader changes"});
  for (int n : bench::ring_sweep(64)) {
    const auto p = pl::PlParams::make(n, 32);  // paper-faithful c1 here
    core::Runner<pl::PlProtocol> run(p, pl::make_safe_config(p), 5);
    const std::uint64_t window = 2ULL * static_cast<std::uint64_t>(n) * n *
                                 static_cast<std::uint64_t>(p.kappa_max);
    int saw_detect = 0;
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    const std::uint64_t block = static_cast<std::uint64_t>(n);
    for (std::uint64_t done = 0; done < window; done += block) {
      run.run(block);
      for (int i = 0; i < n; ++i)
        if (!hit[static_cast<std::size_t>(i)] &&
            pl::in_detect_mode(run.agent(i), p.kappa_max)) {
          hit[static_cast<std::size_t>(i)] = true;
          ++saw_detect;
        }
    }
    tb.add_row({core::fmt_u64(static_cast<unsigned long long>(n)),
                core::fmt_u64(window),
                core::fmt_u64(static_cast<unsigned long long>(saw_detect)),
                core::fmt_u64(run.last_leader_change())});
  }
  tb.print(std::cout);
  std::printf("(expected: zero Detect entries, zero leader changes)\n");
  return 0;
}
