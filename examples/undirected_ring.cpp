// The full Section-5 stack on an *undirected* ring: two-hop coloring inputs,
// learned neighbor colors, P_OR orientation (Algorithm 6), and P_PL election
// running on top of whichever orientation wins.
//
//   $ ./undirected_ring [n] [seed]
#include <cstdio>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "orientation/oriented_stack.hpp"

int main(int argc, char** argv) {
  using namespace ppsim;
  const int n = argc > 1 ? core::parse_int("[n]", argv[1]) : 48;
  const auto seed = static_cast<std::uint64_t>(
      argc > 2 ? core::parse_int64("[seed]", argv[2]) : 11);

  const auto p = core::checked_args(
      [n] { return orient::StackParams::make(n, /*c1=*/8); });
  core::Xoshiro256pp rng(seed);
  core::Runner<orient::OrientedStack> runner(
      p, orient::stack_random_config(p, rng), seed);

  std::printf("undirected ring, n=%d: colors are proper 2-hop inputs;\n"
              "dir/strong and the whole election layer start as garbage\n\n",
              n);

  const auto oriented = runner.run_until(
      [](std::span<const orient::StackState> c, const orient::StackParams&) {
        return orient::stack_orientation(c) != 0;
      },
      4'000'000'000ULL);
  if (!oriented) {
    std::printf("orientation did not settle in budget\n");
    return 1;
  }
  const int dir = orient::stack_orientation(runner.agents());
  std::printf("t=%-12llu orientation settled: every agent points %s\n",
              static_cast<unsigned long long>(*oriented),
              dir == 1 ? "clockwise" : "counter-clockwise");

  const auto safe = runner.run_until(
      [](std::span<const orient::StackState> c,
         const orient::StackParams& pp) {
        return orient::stack_is_safe(c, pp);
      },
      4'000'000'000ULL);
  if (!safe) {
    std::printf("election did not certify in budget\n");
    return 1;
  }
  int leader = -1;
  for (int i = 0; i < n; ++i)
    if (runner.agent(i).pl.leader == 1) leader = i;
  std::printf("t=%-12llu election certified (S_PL on the oriented ring), "
              "leader u_%d\n",
              static_cast<unsigned long long>(*safe), leader);

  runner.run(500'000);
  int leaders = 0;
  for (int i = 0; i < n; ++i) leaders += runner.agent(i).pl.leader;
  std::printf("after 500k extra steps: %d leader(s), orientation %s\n",
              leaders,
              orient::stack_orientation(runner.agents()) == dir
                  ? "unchanged"
                  : "CHANGED (bug)");
  return 0;
}
