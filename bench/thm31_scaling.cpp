// E2 — Theorem 3.1: P_PL reaches S_PL within O(n^2 log n) steps.
//
// Median/p90 hitting times over a ring-size sweep, printed with three
// normalizations: /(n^2 lg n) should flatten; /n^2 should grow ~ lg n; /n^3
// should vanish. The fitted exponent should land slightly above 2.
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Theorem 3.1 — P_PL convergence scaling",
                "Theorem 3.1 (O(n^2 log n) steps w.h.p. and in expectation)");

  const int trials = core::env_int("PPSIM_TRIALS", 7);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const auto ns = bench::ring_sweep(512);

  // Trial-parallel sweep (fans out over cores; deterministic in seed_base=7).
  const auto points = analysis::measure_scaling_sweep<pl::PlProtocol>(
      ns, [&](int n) { return pl::PlParams::make(n, c1); },
      [](const pl::PlParams& p, core::Xoshiro256pp& rng) {
        return pl::random_config(p, rng);
      },
      pl::SafePredicate{}, trials, /*seed_base=*/7, /*tag_base=*/0);

  core::Table t({"n", "median", "mean", "p90", "max", "/(n^2 lg n)", "/n^2",
                 "/n^3", "fails"});
  for (const auto& pt : points) {
    t.add_row({core::fmt_u64(static_cast<std::uint64_t>(pt.n)),
               core::fmt_double(pt.stats.steps.median, 4),
               core::fmt_double(pt.stats.steps.mean, 4),
               core::fmt_double(pt.stats.steps.p90, 4),
               core::fmt_double(pt.stats.steps.max, 4),
               core::fmt_double(analysis::normalized_n2logn(pt), 3),
               core::fmt_double(analysis::normalized_n2(pt), 3),
               core::fmt_double(analysis::normalized_n3(pt), 4),
               core::fmt_u64(static_cast<unsigned long long>(
                   pt.stats.failures))});
  }
  t.print(std::cout);
  const auto fit = analysis::fit_median_scaling(points);
  if (!fit.valid) {
    std::printf("\nfit INVALID: %d degenerate sweep point(s) (all-failure or "
                "zero median), fewer than 2 usable — raise PPSIM_TRIALS or "
                "the step budget\n", fit.skipped);
    return 0;
  }
  if (fit.skipped > 0)
    std::printf("\n(%d degenerate sweep point(s) excluded from the fit)\n",
                fit.skipped);
  std::printf(
      "\nfitted: median steps ~ %.3g * n^%.2f (r2 = %.3f)\n"
      "expected shape: exponent slightly above 2 (n^2 times a log factor),\n"
      "flat /(n^2 lg n) column, shrinking /n^3 column.\n",
      fit.constant, fit.exponent, fit.r2);
  return 0;
}
