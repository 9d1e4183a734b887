// E13 — ablation: kappa_max = c1 * psi. The paper requires a sufficiently
// large constant c1 (>= 32) for the w.h.p. bounds; smaller c1 shortens the
// leaderless-detection latency but weakens the construction-mode holding
// window. Measures both sides of the tradeoff.
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
  bench::banner("Ablation — kappa_max = c1 * psi",
                "footnote 2 + Lemma 3.6 (the role of kappa_max)");

  const int trials = core::env_int("PPSIM_TRIALS", 5);
  const int n = core::env_int("PPSIM_N", 64);
  const auto n_u = static_cast<std::uint64_t>(n);

  core::Table t({"c1", "kappa_max", "median convergence (random cfg)",
                 "median detection (leaderless)",
                 "false detects in 2*kmax*n^2 window"});
  for (int c1 : {1, 2, 4, 8, 16, 32}) {
    const auto p = pl::PlParams::make(n, c1);

    const auto conv = analysis::measure_convergence_parallel<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
        pl::SafePredicate{}, trials,
        200'000ULL * n_u * n_u + 100'000'000ULL, 51,
        static_cast<unsigned>(c1), /*threads=*/1);

    const auto detect = analysis::measure_convergence_parallel<pl::PlProtocol>(
        p,
        [&](core::Xoshiro256pp&) { return pl::leaderless_consistent(p, 0); },
        [](pl::Config c, const pl::PlParams& pp) {
          return pl::count_leaders(c) > 0 ||
                 pl::AllDetectPredicate{}(c, pp);
        },
        trials, 200'000ULL * n_u * n_u + 100'000'000ULL, 52,
        static_cast<unsigned>(c1), /*threads=*/1);

    // False-detection probe: from a safe configuration, does any agent reach
    // Detect within a 2*kappa_max*n^2 window?
    core::Runner<pl::PlProtocol> run(p, pl::make_safe_config(p), 7);
    const std::uint64_t window =
        2ULL * n_u * n_u * static_cast<std::uint64_t>(p.kappa_max);
    int detects = 0;
    const std::uint64_t block = n_u;
    for (std::uint64_t done = 0; done < window; done += block) {
      run.run(block);
      for (int i = 0; i < n; ++i)
        if (pl::in_detect_mode(run.agent(i), p.kappa_max)) {
          ++detects;
          break;
        }
    }
    t.add_row({core::fmt_u64(static_cast<unsigned long long>(c1)),
               core::fmt_u64(static_cast<unsigned long long>(p.kappa_max)),
               core::fmt_double(conv.steps.median, 4),
               core::fmt_double(detect.steps.median, 4),
               core::fmt_u64(static_cast<unsigned long long>(detects))});
  }
  t.print(std::cout);
  std::printf(
      "\n(n = %d. Larger c1: slower leaderless detection (the clocks have\n"
      "further to climb) but a stronger construction-mode guarantee. The\n"
      "paper's proofs take c1 >= 32; tiny c1 values may show nonzero false\n"
      "detections — those are harmless in S_PL but would break the\n"
      "convergence-time analysis.)\n", n);
  return 0;
}
