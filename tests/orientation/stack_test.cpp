// The composed undirected-ring stack: coloring inputs + learned neighbor
// colors + P_OR + P_PL.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/runner.hpp"
#include "orientation/coloring.hpp"
#include "orientation/oriented_stack.hpp"

namespace ppsim::orient {
namespace {

constexpr int kC1 = 4;

std::uint64_t budget(const StackParams& p) {
  const auto n = static_cast<std::uint64_t>(p.n);
  return 1200ULL * n * n * static_cast<std::uint64_t>(p.pl.kappa_max) +
         4'000'000;
}

TEST(Stack, RingsBelowThreeThrow) {
  // No proper two-hop coloring exists below n = 3; the parameters refuse
  // such a ring in every build type instead of the config builder.
  for (const int n : {2, 1, 0, -3})
    EXPECT_THROW((void)StackParams::make(n, kC1), std::invalid_argument) << n;
  EXPECT_NO_THROW((void)StackParams::make(3, kC1));
}

TEST(Stack, LearningConvergesToNeighborColors) {
  StackParams p = StackParams::make(12, kC1);
  core::Xoshiro256pp rng(1);
  core::Runner<OrientedStack> run(p, stack_random_config(p, rng), 1);
  run.run(50'000);
  const auto colors = two_hop_coloring(p.n);
  for (int i = 0; i < p.n; ++i) {
    const auto left = colors[static_cast<std::size_t>((i + p.n - 1) % p.n)];
    const auto right = colors[static_cast<std::size_t>((i + 1) % p.n)];
    const StackState& s = run.agent(i);
    const bool learned = (s.lc1 == left && s.lc2 == right) ||
                         (s.lc1 == right && s.lc2 == left);
    EXPECT_TRUE(learned) << "agent " << i;
  }
}

class StackConvergence : public ::testing::TestWithParam<int> {};

TEST_P(StackConvergence, UndirectedRingElectsLeader) {
  const int n = GetParam();
  StackParams p = StackParams::make(n, kC1);
  for (std::uint64_t seed : {1u, 2u}) {
    core::Xoshiro256pp rng(seed);
    core::Runner<OrientedStack> run(p, stack_random_config(p, rng), seed);
    const auto hit = run.run_until(
        [](std::span<const StackState> c, const StackParams& pp) {
          return stack_is_safe(c, pp);
        },
        budget(p));
    ASSERT_TRUE(hit.has_value()) << "n=" << n << " seed=" << seed;
    // Orientation and leadership both frozen afterwards.
    const int dir = stack_orientation(run.agents());
    ASSERT_NE(dir, 0);
    const auto change_before = run.last_leader_change();
    run.run(200'000);
    EXPECT_EQ(stack_orientation(run.agents()), dir);
    EXPECT_EQ(run.last_leader_change(), change_before);
    EXPECT_EQ(run.leader_count(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, StackConvergence,
                         ::testing::Values(4, 6, 8, 12, 16, 24));

TEST(Stack, OrientationDetectorRequiresSettledLearning) {
  StackParams p = StackParams::make(8, kC1);
  core::Xoshiro256pp rng(3);
  auto c = stack_random_config(p, rng);
  // Hand-build an all-clockwise dir assignment but with unlearned lc1/lc2:
  const auto colors = two_hop_coloring(p.n);
  for (int i = 0; i < p.n; ++i) {
    c[static_cast<std::size_t>(i)].dir =
        colors[static_cast<std::size_t>((i + 1) % p.n)];
    c[static_cast<std::size_t>(i)].lc1 = 7;  // garbage
    c[static_cast<std::size_t>(i)].lc2 = 7;
  }
  EXPECT_EQ(stack_orientation(c), 0);
}

TEST(Stack, SafePredicateHandlesBothDirections) {
  // Build a fully converged stack by simulation, then verify the converse
  // orientation also validates via the reversed extraction.
  StackParams p = StackParams::make(8, kC1);
  core::Xoshiro256pp rng(9);
  core::Runner<OrientedStack> run(p, stack_random_config(p, rng), 9);
  const auto hit = run.run_until(
      [](std::span<const StackState> c, const StackParams& pp) {
        return stack_is_safe(c, pp);
      },
      budget(p));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(stack_orientation(run.agents()) != 0);
}

}  // namespace
}  // namespace ppsim::orient
