// MoveToken (Algorithm 3): the Figure-2 trajectory, the ripple-carry
// increment semantics, collision rules, last-segment destruction and invalid
// token cleanup. These tests pin down the InvalidToken interpretation
// (README.md, Fidelity note 1): a wrong interval sense would break every one
// of them.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/runner.hpp"
#include "pl/invariants.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

/// Position of the black token in the configuration, if exactly one exists.
std::optional<int> black_token_pos(std::span<const PlState> c) {
  std::optional<int> found;
  for (int i = 0; i < static_cast<int>(c.size()); ++i) {
    if (c[static_cast<std::size_t>(i)].token_b.exists()) {
      if (found.has_value()) return std::nullopt;  // more than one
      found = i;
    }
  }
  return found;
}

/// Drives the black token generated by the leader/border u_0 through its full
/// trajectory with a deterministic schedule. Requires n >= 2*psi so the
/// trajectory fits without entering the last segment.
void walk_full_trajectory(core::Runner<PlProtocol>& run) {
  const int psi = run.params().psi;
  // Round 0 right leg: create at u_0 and push to the target u_psi.
  for (int j = 0; j < psi; ++j) run.apply_arc(j);
  // After round x's left leg (down to u_{x+1}) the token starts round x+1's
  // right leg (up to u_{psi+x+1}).
  for (int x = 0; x <= psi - 2; ++x) {
    for (int j = psi + x - 1; j >= x + 1; --j) run.apply_arc(j);  // left leg
    for (int j = x + 1; j <= psi + x; ++j) run.apply_arc(j);      // right leg
  }
}

TEST(TokenTrajectory, CreationInitializesRound0) {
  // psi = 4, n = 16: leader at 0 is the black border of S_0.
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p);
  core::Runner<PlProtocol> run(p, config, 1);
  const std::uint8_t b0 = run.agent(0).b;
  run.apply_arc(0);
  // Line 13 creates (psi, 1-b, b) at u_0; lines 23-25 immediately advance it
  // to u_1 with pos psi-1.
  const auto& t = run.agent(1).token_b;
  ASSERT_TRUE(t.exists());
  EXPECT_EQ(t.pos, p.psi - 1);
  EXPECT_EQ(t.value, 1 - b0);
  EXPECT_EQ(t.carry, b0);
}

TEST(TokenTrajectory, FollowsFigure2ZigZag) {
  const PlParams p = PlParams::make(16);  // psi = 4, 2psi | 16
  auto config = make_safe_config(p);
  core::Runner<PlProtocol> run(p, config, 1);
  const int psi = p.psi;

  std::vector<int> observed;  // token position after each move
  int moves = 0;
  auto drive = [&](int arc) {
    const auto before = black_token_pos(run.agents());
    run.apply_arc(arc);
    const auto after = black_token_pos(run.agents());
    if (after != before) {
      ++moves;
      if (after.has_value()) observed.push_back(*after);
    }
  };

  // Round 0 right leg.
  for (int j = 0; j < psi; ++j) drive(j);
  // Rounds 0..psi-2: left leg to u_{x+1}, right leg to u_{psi+x+1}.
  for (int x = 0; x <= psi - 2; ++x) {
    for (int j = psi + x - 1; j >= x + 1; --j) drive(j);
    for (int j = x + 1; j <= psi + x; ++j) drive(j);
  }

  // Expected zig-zag of Figure 2 (positions after each move). The final move
  // lands on u_{2psi-1}, where lines 32-33 immediately delete the token
  // (trajectory complete), so that landing is never observable as a
  // position — drop it from the expectation; the move count still includes
  // it (the disappearance is the position change the final move produces).
  std::vector<int> expected;
  for (int j = 1; j <= psi; ++j) expected.push_back(j);  // 1..psi
  for (int x = 0; x <= psi - 2; ++x) {
    for (int j = psi + x - 1; j >= x + 1; --j) expected.push_back(j);
    for (int j = x + 2; j <= psi + x + 1; ++j) expected.push_back(j);
  }
  expected.pop_back();

  EXPECT_EQ(moves, p.trajectory_length());
  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < observed.size(); ++i)
    EXPECT_EQ(observed[i], expected[i]) << "at move " << i;
  EXPECT_FALSE(black_token_pos(run.agents()).has_value());
}

TEST(TokenTrajectory, MoveCountMatchesDefinition34) {
  for (int n : {8, 16, 32, 64, 128, 256, 512}) {  // psi = 3..9
    const PlParams p = PlParams::make(n);
    auto config = make_safe_config(p);
    core::Runner<PlProtocol> run(p, config, 1);
    int moves = 0;
    std::optional<int> prev = std::nullopt;
    auto drive = [&](int arc) {
      run.apply_arc(arc);
      const auto cur = black_token_pos(run.agents());
      if (cur != prev) ++moves;
      prev = cur;
    };
    const int psi = p.psi;
    for (int j = 0; j < psi; ++j) drive(j);
    for (int x = 0; x <= psi - 2; ++x) {
      for (int j = psi + x - 1; j >= x + 1; --j) drive(j);
      for (int j = x + 1; j <= psi + x; ++j) drive(j);
    }
    // Def. 3.4 counts 2psi^2-2psi+1 moves. The per-interaction position diff
    // sees each move as one change: creation+first-move appear together
    // (one change), and the final move appears as the disappearance.
    EXPECT_EQ(moves, p.trajectory_length()) << "n=" << n;
    EXPECT_FALSE(black_token_pos(run.agents()).has_value());
  }
}

TEST(TokenIncrement, WritesSuccessorSegmentId) {
  // Construction mode: after a full trajectory, iota(S_1) == iota(S_0) + 1.
  const PlParams p = PlParams::make(32);  // psi = 5
  for (long long id0 : {0LL, 1LL, 7LL, 15LL, 30LL, 31LL}) {
    auto config = make_safe_config(p, 0, id0);
    // Scramble S_1's bits; the token walk must rewrite them.
    for (int j = 0; j < p.psi; ++j)
      config[static_cast<std::size_t>(p.psi + j)].b =
          static_cast<std::uint8_t>((j * 7 + 1) % 2);
    core::Runner<PlProtocol> run(p, config, 1);
    walk_full_trajectory(run);
    long long got = 0;
    for (int j = p.psi - 1; j >= 0; --j)
      got = got * 2 + run.agent(p.psi + j).b;
    EXPECT_EQ(got, (id0 + 1) % p.id_modulus()) << "id0=" << id0;
  }
}

TEST(TokenDetection, MismatchInDetectModeCreatesLeader) {
  // All agents in detect mode, no leader, consistent dists, S_1 id wrong at
  // bit 0: the first token delivery (round 0) must promote the target.
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p, 0, 0);
  for (PlState& s : config) {
    s.clock = static_cast<std::uint16_t>(p.kappa_max);  // Detect
    s.leader = 0;
    s.shield = 0;
  }
  // iota(S_0) = 0 so the increment writes 1 (bit 0 set) at u_psi; make S_1's
  // bit 0 disagree with the expected value.
  config[static_cast<std::size_t>(p.psi)].b = 0;
  core::Runner<PlProtocol> run(p, config, 1);
  for (int j = 0; j < p.psi; ++j) run.apply_arc(j);  // round-0 delivery
  EXPECT_EQ(run.agent(p.psi).leader, 1);
  EXPECT_EQ(run.agent(p.psi).shield, 1);
  EXPECT_EQ(run.agent(p.psi).bullet, 2);
}

TEST(TokenDetection, MatchInDetectModeDoesNotCreateLeader) {
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p, 0, 0);
  for (PlState& s : config) {
    s.clock = static_cast<std::uint16_t>(p.kappa_max);
    s.leader = 0;
    s.shield = 0;
  }
  // Segment IDs are consecutive, so round-0 deliveries agree; no promotion
  // from the first delivery.
  core::Runner<PlProtocol> run(p, config, 1);
  for (int j = 0; j < p.psi; ++j) run.apply_arc(j);
  EXPECT_EQ(run.agent(p.psi).leader, 0);
}

TEST(TokenCollision, LeftTokenDiesWhenRightHasOne) {
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p);
  // Two valid right-movers: dist(u1)=1 with pos 4 -> tau 5 in [4,7];
  // dist(u2)=2 with pos 4 -> tau 6.
  config[1].token_b = Token{4, 1, 0};
  config[2].token_b = Token{4, 0, 1};
  core::Runner<PlProtocol> run(p, config, 1);
  run.apply_arc(1);  // (u1, u2): left token must die (line 14-15)
  EXPECT_FALSE(run.agent(1).token_b.exists());
  ASSERT_TRUE(run.agent(2).token_b.exists());
  EXPECT_EQ(run.agent(2).token_b.value, 0);  // the right token survived
}

TEST(TokenLastSegment, TokenDiesEnteringLastSegment) {
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p);
  // u_{12..15} form the last segment (zeta = 4, psi = 4).
  config[11].token_b = Token{2, 1, 1};  // dist(u11)=3... make it valid:
  // dist(u11) = 11 mod 8 = 3; pos 2 -> tau = 5 in [4,7]: valid right-mover
  // targeting u_13 (inside the last segment).
  core::Runner<PlProtocol> run(p, config, 1);
  ASSERT_EQ(run.agent(12).last, 1);
  run.apply_arc(11);  // (u11, u12): r.last = 1 kills the left token
  EXPECT_FALSE(run.agent(11).token_b.exists());
  EXPECT_FALSE(run.agent(12).token_b.exists());
}

TEST(TokenCleanup, InvalidTokensAreDeleted) {
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p);
  // dist(u2) = 2; pos 1 -> tau = 3 not in [4,7]: invalid right-mover.
  config[2].token_b = Token{1, 1, 1};
  core::Runner<PlProtocol> run(p, config, 1);
  run.apply_arc(2);  // any interaction touching u2 cleans it (lines 32-33)
  EXPECT_FALSE(run.agent(2).token_b.exists());
}

TEST(TokenCleanup, ValidTokenSurvivesCleanupCheck) {
  const PlParams p = PlParams::make(16);
  auto config = make_safe_config(p);
  // dist(u2) = 2; pos 4 -> tau = 6 in [4,7]: valid, moving right to u_6.
  config[2].token_b = Token{4, 1, 1};
  core::Runner<PlProtocol> run(p, config, 1);
  run.apply_arc(2);  // moves to u3 with pos 3
  ASSERT_TRUE(run.agent(3).token_b.exists());
  EXPECT_EQ(run.agent(3).token_b.pos, 3);
}

TEST(TokenValidity, Definition33Bands) {
  const PlParams p = PlParams::make(16);  // psi 4, 2psi 8
  PlState host;
  // Right-movers: valid iff (dist + pos + d) mod 8 in [4,7].
  host.dist = 0;
  EXPECT_TRUE(token_valid(host, Token{4, 0, 0}, 0, p));   // tau 4
  EXPECT_FALSE(token_valid(host, Token{2, 0, 0}, 0, p));  // tau 2
  host.dist = 6;
  EXPECT_TRUE(token_valid(host, Token{1, 0, 0}, 0, p));   // tau 7
  EXPECT_FALSE(token_valid(host, Token{3, 0, 0}, 0, p));  // tau 1 (wraps)
  // Left-movers: valid iff tau in [1, 3].
  host.dist = 5;
  EXPECT_TRUE(token_valid(host, Token{-2, 0, 0}, 0, p));   // tau 3
  EXPECT_FALSE(token_valid(host, Token{-1, 0, 0}, 0, p));  // tau 4... = 4? no:
  // dist 5 + (-1) = 4: tau 4 not in [1,3]: invalid — trajectory complete.
  // White tokens shift by d = psi.
  host.dist = 4;
  EXPECT_TRUE(token_valid(host, Token{4, 0, 0}, p.psi, p));  // tau 4+4+4=12%8=4
  EXPECT_FALSE(token_valid(host, Token{4, 0, 0}, 0, p));     // tau 0
}

TEST(WhiteTokens, MirrorBlackBehaviourOnWhitePair) {
  // White border u_psi drives (S_1, S_2); after its full trajectory,
  // iota(S_2) == iota(S_1) + 1.
  const PlParams p = PlParams::make(32);  // psi 5, zeta 7... n=32: zeta=7
  auto config = make_safe_config(p, 0, 4);
  // Scramble S_2.
  for (int j = 0; j < p.psi; ++j)
    config[static_cast<std::size_t>(2 * p.psi + j)].b =
        static_cast<std::uint8_t>(j % 2);
  core::Runner<PlProtocol> run(p, config, 1);
  const int base = p.psi;  // white border
  const int psi = p.psi;
  for (int j = base; j < base + psi; ++j) run.apply_arc(j);
  for (int x = 0; x <= psi - 2; ++x) {
    for (int j = base + psi + x - 1; j >= base + x + 1; --j) run.apply_arc(j);
    for (int j = base + x + 1; j <= base + psi + x; ++j) run.apply_arc(j);
  }
  long long got = 0;
  for (int j = psi - 1; j >= 0; --j)
    got = got * 2 + run.agent(2 * psi + j).b;
  EXPECT_EQ(got, (4 + 1 + 1) % p.id_modulus());
  // iota(S_1) = first_id + 1 = 5; successor = 6.
}

}  // namespace
}  // namespace ppsim::pl
