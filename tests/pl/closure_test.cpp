// Closure of S_PL (Lemma 4.7): executions started inside S_PL never change
// any output and never leave S_PL. This is the end-to-end validation of both
// the transition implementation and the Def.-3.3/4.3 interpretation
// (README.md, Fidelity notes 1 and 4): a wrong interval or carry phase would
// either delete/flag legitimate tokens or let an "incorrect" token slip
// through and flip a bit.
#include <gtest/gtest.h>

#include <tuple>

#include "core/runner.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

class ClosureSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ClosureSweep, SafeSetIsClosed) {
  const auto [n, seed] = GetParam();
  const PlParams p = PlParams::make(n);
  core::Runner<PlProtocol> run(p, make_safe_config(p, n / 3), seed);
  ASSERT_TRUE(is_safe(run.agents(), p));
  const std::uint64_t total = 200'000;
  const std::uint64_t block = 1'000;
  for (std::uint64_t done = 0; done < total; done += block) {
    run.run(block);
    ASSERT_EQ(run.leader_count(), 1) << "after " << run.steps() << " steps";
    ASSERT_EQ(run.last_leader_change(), 0u);
    const auto v = check_safe(run.agents(), p);
    ASSERT_TRUE(v.safe) << "after " << run.steps() << " steps: " << v.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, ClosureSweep,
    ::testing::Combine(::testing::Values(4, 5, 8, 11, 16, 24, 32, 63),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Closure, OutputsNeverChangeOverLongRun) {
  const PlParams p = PlParams::make(48);
  core::Runner<PlProtocol> run(p, make_safe_config(p, 10), 99);
  run.run(2'000'000);
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.last_leader_change(), 0u);
  EXPECT_EQ(run.agent(10).leader, 1);
  EXPECT_TRUE(is_safe(run.agents(), p));
}

TEST(Closure, EveryStepStaysSafeSmallRing) {
  // Per-step checking on a small ring: no transient unsafe window exists.
  const PlParams p = PlParams::make(8);
  core::Runner<PlProtocol> run(p, make_safe_config(p), 7);
  for (int i = 0; i < 20'000; ++i) {
    run.step();
    const auto v = check_safe(run.agents(), p);
    ASSERT_TRUE(v.safe) << "step " << run.steps() << ": " << v.reason;
  }
}

TEST(Closure, HoldsWithPsiSlack) {
  for (int slack : {1, 2}) {
    const PlParams p = PlParams::make(12, 32, slack);
    core::Runner<PlProtocol> run(p, make_safe_config(p), 11);
    run.run(300'000);
    EXPECT_EQ(run.last_leader_change(), 0u);
    EXPECT_TRUE(is_safe(run.agents(), p)) << "slack=" << slack;
  }
}

TEST(Closure, HoldsWithSmallKappa) {
  // Even with an aggressive kappa_max (c1 = 2), agents that reach Detect see
  // only consistent data in S_PL and never create a leader.
  const PlParams p = PlParams::make(8, 2);
  core::Runner<PlProtocol> run(p, make_safe_config(p), 13);
  run.run(2'000'000);
  EXPECT_EQ(run.last_leader_change(), 0u);
  EXPECT_TRUE(is_safe(run.agents(), p));
}

}  // namespace
}  // namespace ppsim::pl
