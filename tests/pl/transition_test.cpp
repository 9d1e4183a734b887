// Line-level tests of CreateLeader() (Algorithm 2): dist propagation (lines
// 4-8), leader creation on dist inconsistency in detect mode (lines 5-6), and
// the last-segment flag update (line 9).
#include <gtest/gtest.h>

#include <limits>

#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "pl/state.hpp"

namespace ppsim::pl {
namespace {

PlParams params_n16() { return PlParams::make(16); }  // psi = 4

PlState construct_mode_agent() { return PlState{}; }  // clock 0 => Construct

PlState detect_mode_agent(const PlParams& p) {
  PlState s;
  s.clock = static_cast<std::uint16_t>(p.kappa_max);
  return s;
}

TEST(CreateLeader, ConstructionWritesDistFromLeft) {
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  l.dist = 3;
  r.dist = 7;  // wrong; must become 4
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.dist, 4);
  EXPECT_EQ(r.leader, 0);
}

TEST(CreateLeader, ConstructionWrapsModulo2Psi) {
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  l.dist = static_cast<std::uint16_t>(p.two_psi() - 1);  // 7
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.dist, 0);
}

TEST(CreateLeader, LeaderResponderHasDistZero) {
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  l.dist = 5;
  r.leader = 1;
  r.dist = 9;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.dist, 0);
  EXPECT_EQ(r.leader, 1);
}

TEST(CreateLeader, DetectModeMismatchCreatesLeader) {
  const PlParams p = params_n16();
  PlState l = detect_mode_agent(p);
  PlState r = detect_mode_agent(p);
  l.dist = 2;
  r.dist = 5;  // expected 3: inconsistent
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.leader, 1);
  // Line 6: fresh leader fires a live bullet and shields itself.
  EXPECT_EQ(r.bullet, 2);
  EXPECT_EQ(r.shield, 1);
  EXPECT_EQ(r.signal_b, 0);
  // Detect mode does not overwrite dist (line 7 guards on Construct).
  EXPECT_EQ(r.dist, 5);
}

TEST(CreateLeader, DetectModeConsistentPairStaysFollower) {
  const PlParams p = params_n16();
  PlState l = detect_mode_agent(p);
  PlState r = detect_mode_agent(p);
  l.dist = 2;
  r.dist = 3;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.leader, 0);
}

TEST(CreateLeader, DetectModeLeaderResponderExpectsZero) {
  const PlParams p = params_n16();
  PlState l = detect_mode_agent(p);
  PlState r = detect_mode_agent(p);
  r.leader = 1;
  r.dist = 0;
  l.dist = 6;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.leader, 1);  // tmp = 0 == dist: no (re-)creation, stays leader
}

TEST(LastFlag, SetWhenRightNeighborIsLeader) {
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  r.leader = 1;
  l.last = 0;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(l.last, 1);
}

TEST(LastFlag, ClearedWhenRightNeighborIsBorder) {
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  l.dist = static_cast<std::uint16_t>(p.psi - 1);
  r.dist = static_cast<std::uint16_t>(p.psi);  // border (consistent)
  l.last = 1;
  r.last = 1;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(l.last, 0);
}

TEST(LastFlag, CopiedFromInteriorRightNeighbor) {
  const PlParams p = params_n16();
  for (int rlast : {0, 1}) {
    PlState l = construct_mode_agent();
    PlState r = construct_mode_agent();
    l.dist = 1;
    r.dist = 2;  // consistent, not a border
    r.last = static_cast<std::uint8_t>(rlast);
    l.last = static_cast<std::uint8_t>(1 - rlast);
    PlProtocol::apply(l, r, p);
    EXPECT_EQ(l.last, rlast);
  }
}

TEST(LastFlag, Line9UsesPostUpdateDistOfResponder) {
  // In construction mode r.dist is rewritten (line 8) before line 9 reads it:
  // l.dist = psi-1 makes r a border (dist becomes psi), so l.last <- 0 even
  // though r's stale dist was interior.
  const PlParams p = params_n16();
  PlState l = construct_mode_agent();
  PlState r = construct_mode_agent();
  l.dist = static_cast<std::uint16_t>(p.psi - 1);
  r.dist = 1;  // stale: interior
  l.last = 1;
  r.last = 1;
  PlProtocol::apply(l, r, p);
  EXPECT_EQ(r.dist, p.psi);
  EXPECT_EQ(l.last, 0);
}

TEST(Params, FactoryValidation) {
  EXPECT_THROW((void)PlParams::make(1), std::invalid_argument);
  EXPECT_THROW((void)PlParams::make(8, 0), std::invalid_argument);
  EXPECT_THROW((void)PlParams::make(8, 32, -1), std::invalid_argument);
  const PlParams p = PlParams::make(100);
  EXPECT_EQ(p.psi, 7);  // ceil(log2 100)
  EXPECT_EQ(p.kappa_max, 32 * 7);
  EXPECT_GE(p.id_modulus(), 100);
}

TEST(Params, RegimesTheStateCannotHoldThrow) {
  // kappa_max must fit PlState::clock and signal_r (16 bits): a clock
  // stored as 120,000 would read 54,464, never equal kappa_max, and a
  // leaderless ring would never detect it.
  EXPECT_THROW((void)PlParams::make(64, 20000), std::invalid_argument);
  EXPECT_THROW((void)PlParams::make(8, std::numeric_limits<int>::max()),
               std::invalid_argument);  // c1 * psi overflows int
  EXPECT_EQ(PlParams::make(4, 32767).kappa_max, 65534);   // psi = 2
  EXPECT_THROW((void)PlParams::make(4, 32768), std::invalid_argument);
  // psi must keep id_modulus() = 2^psi a signed 64-bit value.
  const PlParams widest = PlParams::make(8, 1000, 59);
  EXPECT_EQ(widest.psi, PlParams::kMaxPsi);
  EXPECT_EQ(widest.kappa_max, 62000);
  EXPECT_EQ(widest.id_modulus(), 1LL << 62);
  EXPECT_THROW((void)PlParams::make(8, 1, 60), std::invalid_argument);
  EXPECT_THROW((void)PlParams::make(8, 1, std::numeric_limits<int>::max()),
               std::invalid_argument);
}

TEST(Params, PsiFloorIsTwo) {
  EXPECT_EQ(PlParams::make(2).psi, 2);
  EXPECT_EQ(PlParams::make(3).psi, 2);
  EXPECT_EQ(PlParams::make(4).psi, 2);
  EXPECT_EQ(PlParams::make(5).psi, 3);
}

TEST(Params, TrajectoryLengthFormula) {
  EXPECT_EQ(PlParams::make(16).trajectory_length(), 2 * 16 - 8 + 1);  // psi=4
  EXPECT_EQ(PlParams::make(100).trajectory_length(), 2 * 49 - 14 + 1);
}

TEST(Params, Zeta) {
  EXPECT_EQ(PlParams::make(16).zeta(), 4);   // psi 4
  EXPECT_EQ(PlParams::make(17).zeta(), 4);   // psi 5, ceil(17/5)
  EXPECT_EQ(PlParams::make(5).zeta(), 2);    // psi 3
}

TEST(Mode, DerivedFromClock) {
  const PlParams p = params_n16();
  PlState s;
  EXPECT_FALSE(in_detect_mode(s, p.kappa_max));
  s.clock = static_cast<std::uint16_t>(p.kappa_max - 1);
  EXPECT_FALSE(in_detect_mode(s, p.kappa_max));
  s.clock = static_cast<std::uint16_t>(p.kappa_max);
  EXPECT_TRUE(in_detect_mode(s, p.kappa_max));
}

}  // namespace
}  // namespace ppsim::pl
