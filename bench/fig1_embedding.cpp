// E3 — Figure 1: the segment-ID embedding.
//
// (a) prints a Figure-1-style ring map of a converged embedding (segment
//     borders, IDs increasing clockwise from the leader);
// (b) measures the construction phase: steps from a fresh single-leader
//     configuration to a perfect configuration / to S_PL.
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Figure 1 — segment-ID embedding on the ring",
                "Figure 1 + §3.2 construction (O(n^2 log n) steps)");

  const int c1 = core::env_int("PPSIM_C1", 4);

  // (a) Ring map after convergence, in the spirit of Fig. 1(a)/(b).
  {
    const int n = 56;  // psi = 6: a handful of segments
    const auto p = pl::PlParams::make(n, c1);
    core::Runner<pl::PlProtocol> run(p, pl::make_fresh_config(p), 42);
    const auto hit = run.run_until(pl::SafePredicate{}, 500'000'000ULL);
    std::printf("\nconverged after %s steps (n=%d, psi=%d, zeta=%d)\n",
                hit ? std::to_string(*hit).c_str() : "??", n, p.psi,
                p.zeta());
    const auto segs = pl::decompose_segments(run.agents(), p);
    std::printf("segment map (clockwise from the leader; L = leader):\n");
    for (const auto& s : segs) {
      const bool has_leader =
          run.agent(s.start).leader == 1;
      std::printf("  [%s start=%2d len=%d] id=%llu\n",
                  has_leader ? "L" : " ", s.start, s.length, s.id);
    }
    std::printf("bits (b), clockwise: ");
    for (int i = 0; i < n; ++i) std::printf("%d", run.agent(i).b);
    std::printf("\n");
  }

  // (b) Construction time from a fresh deployment.
  const int trials = core::env_int("PPSIM_TRIALS", 7);
  core::Table t({"n", "median to perfect", "median to S_PL",
                 "/(n^2 lg n) (S_PL)"});
  for (int n : bench::ring_sweep(256)) {
    const auto p = pl::PlParams::make(n, c1);
    const auto n_u = static_cast<std::uint64_t>(n);
    analysis::ScalingPoint perfect_pt{n, {}};
    perfect_pt.stats = analysis::measure_convergence<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp&) { return pl::make_fresh_config(p); },
        [](pl::Config c, const pl::PlParams& pp) {
          return pl::is_perfect(c, pp);
        },
        trials, 40'000ULL * n_u * n_u + 50'000'000ULL, 13,
        static_cast<unsigned>(n));
    analysis::ScalingPoint safe_pt{n, {}};
    safe_pt.stats = analysis::measure_convergence<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp&) { return pl::make_fresh_config(p); },
        pl::SafePredicate{}, trials, 40'000ULL * n_u * n_u + 50'000'000ULL,
        14, static_cast<unsigned>(n));
    t.add_row({core::fmt_u64(n_u),
               core::fmt_double(perfect_pt.stats.steps.median, 4),
               core::fmt_double(safe_pt.stats.steps.median, 4),
               core::fmt_double(analysis::normalized_n2logn(safe_pt), 3)});
  }
  std::printf("\n-- construction phase (fresh single-leader start) --\n");
  t.print(std::cout);
  return 0;
}
