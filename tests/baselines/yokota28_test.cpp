// Baseline [28]: distance-counting creation + Algorithm-5 elimination.
#include <gtest/gtest.h>

#include <limits>

#include "baselines/yokota28.hpp"
#include "core/runner.hpp"

namespace ppsim::baselines {
namespace {

TEST(Y28Params, CapIsBetweenNAnd2N) {
  // N = 2^psi in [n, 2n), except for n < 4 where the psi >= 2 floor gives
  // N = 4 (still n + O(n)).
  for (int n : {2, 3, 5, 8, 16, 100, 1000}) {
    const Y28Params p = Y28Params::make(n);
    EXPECT_GE(p.cap, n);
    EXPECT_LT(p.cap, 2 * std::max(n, 2) + 1);
  }
  EXPECT_THROW((void)Y28Params::make(1), std::invalid_argument);
}

TEST(Y28Params, CapFitsTheSixteenBitDistance) {
  // dist is 16 bits: dist + 1 reaches at most 65,536, so a larger cap
  // would never create a leader.
  EXPECT_EQ(Y28Params::make(65536).cap, 65536);
  EXPECT_EQ(Y28Params::make(8, 13).cap, 65536);
  EXPECT_THROW((void)Y28Params::make(65537), std::invalid_argument);
  EXPECT_THROW((void)Y28Params::make(100000), std::invalid_argument);
  EXPECT_THROW((void)Y28Params::make(8, 14), std::invalid_argument);
  EXPECT_THROW((void)Y28Params::make(8, std::numeric_limits<int>::max()),
               std::invalid_argument);
  EXPECT_THROW((void)Y28Params::make(8, -1), std::invalid_argument);
}

TEST(Y28, DistancePropagates) {
  const Y28Params p = Y28Params::make(16);
  Y28State l, r;
  l.dist = 5;
  Yokota28::apply(l, r, p);
  EXPECT_EQ(r.dist, 6);
  EXPECT_EQ(r.leader, 0);
}

TEST(Y28, LeaderResetsDistance) {
  const Y28Params p = Y28Params::make(16);
  Y28State l, r;
  l.dist = 5;
  r.leader = 1;
  r.dist = 9;
  Yokota28::apply(l, r, p);
  EXPECT_EQ(r.dist, 0);
}

TEST(Y28, OverflowCreatesLeader) {
  const Y28Params p = Y28Params::make(16);
  Y28State l, r;
  l.dist = static_cast<std::uint16_t>(p.cap - 1);
  Yokota28::apply(l, r, p);
  EXPECT_EQ(r.leader, 1);
  EXPECT_EQ(r.dist, 0);
  EXPECT_EQ(r.shield, 1);
  EXPECT_EQ(r.bullet, 2);
}

TEST(Y28, SafePredicateOnCanonicalConfig) {
  const Y28Params p = Y28Params::make(12);
  std::vector<Y28State> c(12);
  c[0].leader = 1;
  c[0].shield = 1;
  for (int i = 1; i < 12; ++i)
    c[static_cast<std::size_t>(i)].dist = static_cast<std::uint16_t>(i);
  EXPECT_TRUE(y28_is_safe(c, p));
  c[5].dist = 9;
  EXPECT_FALSE(y28_is_safe(c, p));
}

class Y28Convergence : public ::testing::TestWithParam<int> {};

TEST_P(Y28Convergence, RandomConfigurationsConverge) {
  const int n = GetParam();
  const Y28Params p = Y28Params::make(n);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    core::Xoshiro256pp rng(seed);
    core::Runner<Yokota28> run(p, y28_random_config(p, rng), seed);
    const std::uint64_t budget =
        400ULL * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) +
        200'000;
    const auto hit = run.run_until(
        [](std::span<const Y28State> c, const Y28Params& pp) {
          return y28_is_safe(c, pp);
        },
        budget);
    ASSERT_TRUE(hit.has_value()) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, Y28Convergence,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(Y28, LeaderlessRampDetectsWithinQuadraticBudget) {
  const Y28Params p = Y28Params::make(32);
  core::Runner<Yokota28> run(p, y28_leaderless(p), 9);
  const auto hit = run.run_until(
      [](std::span<const Y28State> c, const Y28Params&) {
        for (const auto& s : c)
          if (s.leader) return true;
        return false;
      },
      2'000'000);
  ASSERT_TRUE(hit.has_value());
}

TEST(Y28, ClosureFromSafeConfig) {
  const Y28Params p = Y28Params::make(24);
  std::vector<Y28State> c(24);
  c[3].leader = 1;
  c[3].shield = 1;
  for (int i = 0; i < 24; ++i)
    c[static_cast<std::size_t>((3 + i) % 24)].dist =
        static_cast<std::uint16_t>(i);
  core::Runner<Yokota28> run(p, c, 11);
  run.run(3'000'000);
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.last_leader_change(), 0u);
  EXPECT_TRUE(y28_is_safe(run.agents(), p));
}

}  // namespace
}  // namespace ppsim::baselines
