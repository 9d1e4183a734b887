// E12 — self-stabilization as an operator sees it: corrupt f agents of a
// converged system *mid-run* and measure recovery time to S_PL, on the
// scenario campaign engine (analysis/scenario.hpp). Faults are injected
// through Runner::set_agent at the stabilization point, so the pre-fault
// history (RNG stream, oracle clocks) carries into the recovery phase —
// unlike re-seeding a fresh runner from a corrupted snapshot.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Fault recovery", "the self-stabilization guarantee "
                                  "(Def. 2.1) from post-fault states");

  const int trials = core::env_int("PPSIM_TRIALS", 9);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const int n = core::env_int("PPSIM_N", 64);
  const auto p = pl::PlParams::make(n, c1);
  const double n2logn = static_cast<double>(n) * n * std::log2(n);

  core::Table t({"faults f", "median recovery steps", "mean", "p90",
                 "/(n^2 lg n)"});
  for (int f : {1, 2, 4, 8, 16, 32, n}) {
    if (f > n) continue;
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = analysis::recovery_budget(n);
    plan.seed_base = 41;
    plan.tag = analysis::campaign_tag(1, n, f);
    const auto stats = analysis::measure_recovery<pl::PlProtocol>(
        p, analysis::make_recovery_scenario<pl::PlProtocol>(
               "burst", analysis::burst_schedule(f), plan));
    t.add_row({core::fmt_u64(static_cast<unsigned long long>(f)),
               core::fmt_double(stats.recovery.median, 4),
               core::fmt_double(stats.recovery.mean, 4),
               core::fmt_double(stats.recovery.p90, 4),
               core::fmt_double(stats.recovery.median / n2logn, 3)});
  }
  std::printf("\n(n = %d; note: even f = 1 can delete the unique leader and "
              "force a full\ndetection+creation cycle, so recovery is not "
              "proportional to f)\n\n", n);
  t.print(std::cout);
  return 0;
}
