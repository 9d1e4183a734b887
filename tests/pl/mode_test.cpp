// DetermineMode() (Algorithm 4): signal generation, movement, absorption,
// TTL decrements via the lottery game, clock resets and clock advancement.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

const PlParams p16 = PlParams::make(16);  // psi 4, kappa_max 128

TEST(DetermineMode, LeaderInitiatorGeneratesAndForwardsSignal) {
  PlState l, r;
  l.leader = 1;
  PlProtocol::apply(l, r, p16);
  // Line 35 sets l.signalR = kappa_max; line 42 immediately moves it right.
  EXPECT_EQ(l.signal_r, 0);
  EXPECT_EQ(r.signal_r, p16.kappa_max);
}

TEST(DetermineMode, SignalResetsBothClocks) {
  PlState l, r;
  l.signal_r = 5;
  l.clock = 77;
  r.clock = 99;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(l.clock, 0);
  EXPECT_EQ(r.clock, 0);
}

TEST(DetermineMode, SignalMovesRight) {
  PlState l, r;
  l.signal_r = 42;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(l.signal_r, 0);
  EXPECT_EQ(r.signal_r, 42);
}

TEST(DetermineMode, LeftSignalAbsorbsWeakerRightSignal) {
  PlState l, r;
  l.signal_r = 42;
  r.signal_r = 10;
  r.hits = 2;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(l.signal_r, 0);
  EXPECT_EQ(r.signal_r, 42);  // max survives at r
  EXPECT_EQ(r.hits, 0);       // line 41: hits reset on left-absorbs-right
}

TEST(DetermineMode, StrongerRightSignalStaysPut) {
  PlState l, r;
  l.signal_r = 10;
  r.signal_r = 42;
  r.hits = 2;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(l.signal_r, 0);
  EXPECT_EQ(r.signal_r, 42);
  EXPECT_EQ(r.hits, 3);  // no line-41 reset; line 37 incremented it
}

TEST(DetermineMode, HitsTrackLotteryRuns) {
  PlState l, r;
  r.hits = 1;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(r.hits, 2);  // responder extends its run (line 37)
  EXPECT_EQ(l.hits, 0);  // initiator resets (line 36)
}

TEST(DetermineMode, HitsCappedAtPsi) {
  PlState l, r;
  r.hits = static_cast<std::uint8_t>(p16.psi);
  PlProtocol::apply(l, r, p16);
  EXPECT_LE(static_cast<int>(r.hits), p16.psi);
}

TEST(DetermineMode, LotteryWinAdvancesClockWithoutSignal) {
  PlState l, r;
  r.hits = static_cast<std::uint8_t>(p16.psi - 1);  // line 37 completes a run
  r.clock = 3;
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(r.clock, 4);  // lines 46-48
  EXPECT_EQ(r.hits, 0);
}

TEST(DetermineMode, LotteryWinDecrementsSignalTtl) {
  PlState l, r;
  l.signal_r = 10;
  r.hits = static_cast<std::uint8_t>(p16.psi - 1);
  PlProtocol::apply(l, r, p16);
  // The signal moved to r with TTL 10, then lines 43-45 decrement it. But
  // note line 40-41: l.signalR(10) >= r.signalR(0)? The guard needs
  // r.signalR > 0, so no hits reset; hits reaches psi and fires.
  EXPECT_EQ(r.signal_r, 9);
  EXPECT_EQ(r.hits, 0);
  EXPECT_EQ(r.clock, 0);  // the same win never also advances the clock
}

TEST(DetermineMode, ClockCapsAtKappaMax) {
  PlState l, r;
  r.clock = static_cast<std::uint16_t>(p16.kappa_max);
  r.hits = static_cast<std::uint8_t>(p16.psi - 1);
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(r.clock, p16.kappa_max);
  EXPECT_TRUE(in_detect_mode(r, p16.kappa_max));
}

TEST(DetermineMode, SignalTtlReachingZeroDisappears) {
  PlState l, r;
  l.signal_r = 1;
  r.hits = static_cast<std::uint8_t>(p16.psi - 1);
  PlProtocol::apply(l, r, p16);
  EXPECT_EQ(r.signal_r, 0);  // decremented to zero: the signal is gone
}

TEST(ModeDynamics, LeaderlessPopulationEventuallyAllDetect) {
  // Lemma 3.7 dynamics: no leader, no signals -> every clock must climb to
  // kappa_max (or a leader appears first — excluded here by keeping dist
  // consistent and ids consecutive... the token path may still promote, so
  // we only require: all-detect OR a leader, within the w.h.p. budget).
  const PlParams p = PlParams::make(8, 4);  // c1=4 keeps the test fast
  auto config = leaderless_consistent(p, 0);
  core::Runner<PlProtocol> run(p, config, 77);
  const auto hit = run.run_until(
      [](Config c, const PlParams& pp) {
        if (count_leaders(c) > 0) return true;
        return AllDetectPredicate{}(c, pp);
      },
      20'000'000);
  ASSERT_TRUE(hit.has_value());
}

TEST(ModeDynamics, LeaderKeepsPopulationInConstruction) {
  // Lemma 3.6 dynamics: from a safe configuration, no agent reaches Detect
  // within a Theta(kappa_max n^2) window w.h.p.
  const PlParams p = PlParams::make(16);  // paper-faithful c1 = 32
  core::Runner<PlProtocol> run(p, make_safe_config(p), 5);
  const std::uint64_t window = 4ULL * static_cast<std::uint64_t>(p.n) *
                               static_cast<std::uint64_t>(p.n) *
                               static_cast<std::uint64_t>(p.kappa_max);
  const auto hit = run.run_until(
      [](Config c, const PlParams& pp) {
        for (const PlState& s : c)
          if (in_detect_mode(s, pp.kappa_max)) return true;
        return false;
      },
      window);
  EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(run.last_leader_change(), 0u);
}

}  // namespace
}  // namespace ppsim::pl
