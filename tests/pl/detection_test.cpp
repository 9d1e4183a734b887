// The detection machinery end to end (§3.2): with no leader and all agents
// in detection mode, the imperfection is found and a leader created — via
// the dist path (line 6) or the token path (line 18).
#include <gtest/gtest.h>

#include "core/ring.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

/// All agents in detection mode, consistent dists (requires 2psi | n),
/// consecutive segment IDs except the unavoidable wrap violation.
std::vector<PlState> pure_token_detection_config(const PlParams& p) {
  auto c = leaderless_consistent(p, p.kappa_max);
  return c;
}

TEST(Detection, DistPathFiresOnBrokenChain) {
  // n not divisible by 2psi: the dist chain has a wrap violation; with all
  // agents in Detect, the violating pair's interaction creates a leader.
  const PlParams p = PlParams::make(10, 4);  // psi 4, 2psi 8, 10 % 8 != 0
  auto c = leaderless_consistent(p, p.kappa_max);
  core::Runner<PlProtocol> run(p, c, 3);
  // The violating pair is (u_9, u_0): u_9.dist = 1, expected u_0 dist 2 but
  // u_0.dist = 0. Driving that arc once must create the leader directly.
  run.apply_arc(9);
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.agent(0).leader, 1);
}

TEST(Detection, TokenPathFiresOnBrokenIds) {
  // 2psi | n: dists are consistent, so only the segment-ID chain can betray
  // the absence — exactly Lemma 3.2 + the §3.2 token mechanism.
  const PlParams p = PlParams::make(16, 4);
  auto c = pure_token_detection_config(p);
  ASSERT_TRUE(satisfies_condition1(c, p));
  ASSERT_EQ(count_leaders(c), 0);
  core::Runner<PlProtocol> run(p, c, 7);
  const auto n64 = static_cast<std::uint64_t>(p.n);
  const auto hit = run.run_until(AnyLeaderPredicate{},
                                 200'000ULL * n64 * n64);
  ASSERT_TRUE(hit.has_value());
  // Before detection no agent could have left Detect (no leader -> no
  // signals -> clocks stay at kappa_max), so dists were never rewritten:
  // the promotion came from the token path.
  EXPECT_TRUE(satisfies_condition1(run.agents(), p) ||
              run.leader_count() >= 1);
}

TEST(Detection, DetectModeNeverWritesBits) {
  // In detection mode agents must not modify b (line 19 guards on
  // Construct): run the token machinery in all-Detect mode over a perfect
  // single-leader configuration and verify all b values stay put.
  const PlParams p = PlParams::make(16, 4);
  auto c = make_safe_config(p);
  for (PlState& s : c) s.clock = static_cast<std::uint16_t>(p.kappa_max);
  std::vector<std::uint8_t> bits;
  for (const PlState& s : c) bits.push_back(s.b);
  core::Runner<PlProtocol> run(p, c, 9);
  run.run(200'000);
  for (int i = 0; i < p.n; ++i)
    EXPECT_EQ(run.agent(i).b, bits[static_cast<std::size_t>(i)])
        << "agent " << i;
  // And no spurious leader was created (the configuration is perfect).
  EXPECT_EQ(run.leader_count(), 1);
}

TEST(Detection, LastFlagsClearWithoutLeader) {
  // §3.2: if there is no leader, all agents converge to last = 0 while
  // sweeps occur (the flag only stays 1 right of a leader).
  const PlParams p = PlParams::make(16, 4);
  auto c = leaderless_consistent(p, 0);
  for (PlState& s : c) s.last = 1;  // adversarial: everyone claims "last"
  core::Runner<PlProtocol> run(p, c, 5);
  // Drive a full counter-clockwise sweep seq_L(0, n): each interaction
  // updates the initiator's flag from its right neighbor.
  run.apply_sequence(core::seq_l(0, p.n, p.n));
  int lasts = 0;
  for (const PlState& s : run.agents()) lasts += s.last;
  EXPECT_EQ(lasts, 0);
}

TEST(Detection, CreationTimeScalesQuadratically) {
  // Lemma 3.7 + §3.2: from the hardest leaderless start the creation takes
  // O(n^2 log n); sanity check that doubling n roughly quadruples the time
  // (very generous bands; this is a smoke test).
  std::vector<double> medians;
  for (int n : {16, 32, 64}) {
    const PlParams p = PlParams::make(n, 2);
    std::vector<std::uint64_t> ts;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      core::Runner<PlProtocol> run(p, leaderless_consistent(p, 0), seed);
      const auto n64 = static_cast<std::uint64_t>(n);
      const auto hit = run.run_until(AnyLeaderPredicate{},
                                     400'000ULL * n64 * n64);
      ASSERT_TRUE(hit.has_value()) << "n=" << n;
      ts.push_back(*hit);
    }
    std::sort(ts.begin(), ts.end());
    medians.push_back(static_cast<double>(ts[2]));
  }
  EXPECT_GT(medians[1] / medians[0], 1.8);
  EXPECT_GT(medians[2] / medians[1], 1.8);
  EXPECT_LT(medians[2] / medians[0], 80.0);
}

TEST(Detection, NewLeaderIsBornArmedAndShielded) {
  // Both creation sites (lines 6 and 18) must produce (1, 2, 1, 0) so the
  // freshly fired live bullet is peaceful (the C_PB argument of §4.1).
  const PlParams p = PlParams::make(10, 4);
  auto c = leaderless_consistent(p, p.kappa_max);
  core::Runner<PlProtocol> run(p, c, 3);
  run.apply_arc(9);  // dist-path creation at u_0
  const PlState& s = run.agent(0);
  ASSERT_EQ(s.leader, 1);
  EXPECT_EQ(s.bullet, 2);
  EXPECT_EQ(s.shield, 1);
  EXPECT_EQ(s.signal_b, 0);
  EXPECT_TRUE(in_cpb(run.agents()));
}

}  // namespace
}  // namespace ppsim::pl
