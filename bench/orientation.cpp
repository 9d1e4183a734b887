// E8 — Theorem 5.2: self-stabilizing ring orientation (and the composed
// undirected-ring election stack).
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "orientation/oriented_stack.hpp"
#include "orientation/por.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Ring orientation — Theorem 5.2",
                "§5: P_OR (O(1) states, O(n^2 log n) steps) + composition");

  const int trials = core::env_int("PPSIM_TRIALS", 7);
  const int c1 = core::env_int("PPSIM_C1", 4);

  core::Table t({"n", "median steps to oriented", "mean", "/(n^2 lg n)"});
  for (int n : bench::ring_sweep(256)) {
    const auto p = orient::OrParams::make(n);
    const auto n_u = static_cast<std::uint64_t>(n);
    analysis::ScalingPoint pt{n, {}};
    pt.stats = analysis::measure_convergence<orient::Por>(
        p,
        [&](core::Xoshiro256pp& rng) {
          return orient::or_config(p, rng, true);
        },
        [](std::span<const orient::OrState> c, const orient::OrParams& pp) {
          return orient::is_oriented(c, pp);
        },
        trials, 60'000ULL * n_u * n_u + 60'000'000ULL, 31,
        static_cast<unsigned>(n));
    t.add_row({core::fmt_u64(n_u),
               core::fmt_double(pt.stats.steps.median, 4),
               core::fmt_double(pt.stats.steps.mean, 4),
               core::fmt_double(analysis::normalized_n2logn(pt), 3)});
  }
  std::printf("\n-- P_OR alone (random dir/strong) --\n");
  t.print(std::cout);

  // The composed stack: undirected ring -> orientation -> P_PL.
  core::Table ts({"n", "median steps to full-stack safe", "/(n^2 lg n)"});
  for (int n : bench::ring_sweep(64)) {
    const auto p = orient::StackParams::make(n, c1);
    const auto n_u = static_cast<std::uint64_t>(n);
    analysis::ScalingPoint pt{n, {}};
    pt.stats = analysis::measure_convergence<orient::OrientedStack>(
        p,
        [&](core::Xoshiro256pp& rng) {
          return orient::stack_random_config(p, rng);
        },
        [](std::span<const orient::StackState> c,
           const orient::StackParams& pp) {
          return orient::stack_is_safe(c, pp);
        },
        trials, 120'000ULL * n_u * n_u + 120'000'000ULL, 32,
        static_cast<unsigned>(n));
    ts.add_row({core::fmt_u64(n_u),
                core::fmt_double(pt.stats.steps.median, 4),
                core::fmt_double(analysis::normalized_n2logn(pt), 3)});
  }
  std::printf("\n-- composed stack: orientation + election on an undirected "
              "ring --\n");
  ts.print(std::cout);
  return 0;
}
