// E17 — "both w.h.p. and in expectation" (Theorem 3.1 + Lemma 2.4).
//
// At a fixed ring size, runs many independent trials from random
// configurations and reports the full hitting-time distribution: mean
// (expectation side), quantiles and max (w.h.p. side), a log-bucket
// histogram, and the mean/median ratio (a long tail would inflate it —
// Lemma 2.4 is what rules such tails out for self-stabilizing protocols).
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "core/histogram.hpp"
#include "core/runner.hpp"
#include "core/statistics.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Hitting-time distribution — w.h.p. and expectation",
                "Theorem 3.1 ('both w.h.p. and in expectation'), Lemma 2.4");

  const int n = core::env_int("PPSIM_N", 64);
  const int trials = core::env_int("PPSIM_TRIALS", 200);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const auto p = pl::PlParams::make(n, c1);

  // Trial-parallel engine; the histogram and summary are rebuilt from the
  // deterministic raw hitting times (trial order, failures excluded).
  // Note: this migration unified the config-RNG seeding with the experiment
  // driver's scheme (seed ^ 0xC0FFEE), so tail numbers differ from the
  // pre-engine harness even at the same seed_base — same distribution,
  // different draws.
  const auto stats = analysis::measure_convergence_parallel<pl::PlProtocol>(
      p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
      pl::SafePredicate{}, trials, 4'000'000'000ULL, /*seed_base=*/4242,
      /*tag=*/1);
  core::LogHistogram hist;
  std::vector<double> samples;
  for (const std::uint64_t hit : stats.raw) {
    hist.add(hit);
    samples.push_back(static_cast<double>(hit));
  }
  const auto& s = stats.steps;  // already summarized by the engine
  const double n2logn = static_cast<double>(n) * n *
                        std::log2(static_cast<double>(n));

  core::Table t({"metric", "steps", "/(n^2 lg n)"});
  t.add_row({"mean (expectation)", core::fmt_double(s.mean, 5),
             core::fmt_double(s.mean / n2logn, 3)});
  t.add_row({"median", core::fmt_double(s.median, 5),
             core::fmt_double(s.median / n2logn, 3)});
  t.add_row({"p90", core::fmt_double(s.p90, 5),
             core::fmt_double(s.p90 / n2logn, 3)});
  t.add_row({"p99", core::fmt_double(core::percentile(samples, 0.99), 5),
             core::fmt_double(core::percentile(samples, 0.99) / n2logn, 3)});
  t.add_row({"max", core::fmt_double(s.max, 5),
             core::fmt_double(s.max / n2logn, 3)});
  std::printf("\nn = %d, %zu trials (random initial configurations)\n\n", n,
              samples.size());
  t.print(std::cout);
  std::printf("\nmean/median = %.3f (near 1: concentrated, no heavy tail)\n",
              s.mean / s.median);
  std::printf("\nhitting-time histogram (log buckets):\n%s",
              hist.render().c_str());
  return 0;
}
