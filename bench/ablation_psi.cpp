// E14 — ablation: psi slack. The knowledge psi = ceil(log2 n) + O(1) may
// overshoot; extra slack inflates segment length, token trajectories
// (2psi^2), clock thresholds and the state count — measure the cost.
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/scaling.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Ablation — psi slack",
                "the 'O(1)' in psi = ceil(log n) + O(1)");

  const int trials = core::env_int("PPSIM_TRIALS", 5);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const int n = core::env_int("PPSIM_N", 64);
  const auto n_u = static_cast<std::uint64_t>(n);

  core::Table t({"psi slack", "psi", "median convergence", "|Q| per agent",
                 "bits"});
  for (int slack : {0, 1, 2, 4}) {
    const auto p = pl::PlParams::make(n, c1, slack);
    const auto conv = analysis::measure_convergence<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
        pl::SafePredicate{}, trials,
        400'000ULL * n_u * n_u + 200'000'000ULL, 61,
        static_cast<unsigned>(slack));
    const auto sc = analysis::pl_state_count(p);
    t.add_row({core::fmt_u64(static_cast<unsigned long long>(slack)),
               core::fmt_u64(static_cast<unsigned long long>(p.psi)),
               core::fmt_double(conv.steps.median, 4),
               core::fmt_double(sc.states, 4),
               core::fmt_double(sc.bits, 4)});
  }
  t.print(std::cout);
  std::printf(
      "\n(n = %d. Slack leaves correctness intact — 2^psi >= n still holds —\n"
      "but stretches detection latency roughly by 2^slack: the clock lottery\n"
      "needs psi consecutive wins, each with probability 2^-psi.)\n", n);
  return 0;
}
