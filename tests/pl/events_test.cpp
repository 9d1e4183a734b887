// Event instrumentation: exact lifecycle accounting of tokens (Def. 3.4),
// resetting signals (Lemma 3.11 machinery), clocks and bullets.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/events.hpp"
#include "pl/invariants.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

using IPl = InstrumentedPlProtocol;

core::Runner<IPl> instrumented_runner(const PlParams& p,
                                      std::vector<PlState> init,
                                      EventCounters& sink,
                                      std::uint64_t seed) {
  return core::Runner<IPl>(IPl::Params::make(p, &sink), std::move(init),
                           seed);
}

TEST(Events, FullTrajectoryCountsExactly) {
  // Drive one black token deterministically: exactly 1 creation,
  // trajectory_length moves, 1 completion, psi deliveries (one per round),
  // zero other deaths for the black color.
  const PlParams p = PlParams::make(16);  // psi 4
  EventCounters ev;
  auto run = instrumented_runner(p, make_safe_config(p), ev, 1);
  const int psi = p.psi;
  for (int j = 0; j < psi; ++j) run.apply_arc(j);
  for (int x = 0; x <= psi - 2; ++x) {
    for (int j = psi + x - 1; j >= x + 1; --j) run.apply_arc(j);
    for (int j = x + 1; j <= psi + x; ++j) run.apply_arc(j);
  }
  EXPECT_EQ(ev.tokens_created[1], 1u);
  EXPECT_EQ(ev.token_moves[1],
            static_cast<std::uint64_t>(p.trajectory_length()));
  EXPECT_EQ(ev.completions[1], 1u);
  EXPECT_EQ(ev.deaths_collision[1], 0u);
  EXPECT_EQ(ev.deaths_invalid[1], 0u);
  EXPECT_EQ(ev.deliveries_written[1], static_cast<std::uint64_t>(psi));
  EXPECT_EQ(ev.created_via_dist + ev.created_via_token, 0u);
}

TEST(Events, TokenBirthsEventuallyBalanceDeaths) {
  const PlParams p = PlParams::make(32, 4);
  EventCounters ev;
  auto run = instrumented_runner(p, make_safe_config(p), ev, 7);
  run.run(500'000);
  for (bool black : {false, true}) {
    const auto born = ev.tokens_created[black ? 1 : 0];
    const auto died = ev.token_deaths(black);
    EXPECT_GT(born, 100u) << "black=" << black;
    // At most n tokens can be alive at the end.
    EXPECT_LE(died, born);
    EXPECT_LE(born - died, static_cast<std::uint64_t>(p.n));
  }
}

TEST(Events, CompletionsDominateInSafeSteadyState) {
  // In S_PL the working pairs complete trajectories over and over; the only
  // other death cause is the last-segment boundary.
  const PlParams p = PlParams::make(32, 4);  // psi 5, zeta 7
  EventCounters ev;
  auto run = instrumented_runner(p, make_safe_config(p), ev, 3);
  run.run(1'000'000);
  EXPECT_GT(ev.completions[1], 0u);
  EXPECT_GT(ev.completions[0], 0u);
  EXPECT_EQ(ev.deaths_invalid[0] + ev.deaths_invalid[1], 0u);
  EXPECT_EQ(ev.created_via_dist + ev.created_via_token, 0u);
  EXPECT_EQ(ev.leaders_killed, 0u);
  // Every completion walked a full Def. 3.4 trajectory; tokens that die on
  // the way only add moves.
  const auto len = static_cast<std::uint64_t>(p.trajectory_length());
  for (int c : {0, 1})
    EXPECT_GE(ev.token_moves[c], ev.completions[c] * len) << "black=" << c;
}

TEST(Events, SignalsBalanceAndKeepFlowing) {
  const PlParams p = PlParams::make(16, 4);
  EventCounters ev;
  auto run = instrumented_runner(p, make_safe_config(p), ev, 5);
  run.run(500'000);
  EXPECT_GT(ev.signals_generated, 10u);
  // Dead signals = absorbed + expired; alive <= n.
  const auto dead = ev.signals_absorbed + ev.signals_expired;
  EXPECT_LE(dead, ev.signals_generated);
  EXPECT_LE(ev.signals_generated - dead, static_cast<std::uint64_t>(p.n));
  EXPECT_GT(ev.signal_moves, ev.signals_generated);  // they travel
}

TEST(Events, LeaderlessRunExpiresAllSignalsAndRaisesClocks) {
  const PlParams p = PlParams::make(16, 2);
  EventCounters ev;
  auto run = instrumented_runner(p, stale_signals_everywhere(p), ev, 9);
  const auto hit = run.run_until(
      [](Config c, const IPl::Params& pp) {
        return count_leaders(c) > 0 || AllDetectPredicate{}(c, pp.pl);
      },
      400'000'000ULL);
  ASSERT_TRUE(hit.has_value());
  // The stale signals must have drained (they are only *generated* by a
  // leader, and only once one has been created by detection).
  EXPECT_GT(ev.signals_absorbed + ev.signals_expired, 0u);
  if (count_leaders(run.agents()) == 0) {
    EXPECT_EQ(ev.signals_generated, 0u);
  } else {
    EXPECT_GT(ev.created_via_dist + ev.created_via_token, 0u);
  }
  EXPECT_GT(ev.clock_advances, 0u);
  EXPECT_GT(ev.detect_entries, 0u);
}

TEST(Events, EliminationAccountingFromAllLeaders) {
  const PlParams p = PlParams::make(16, 4);
  EventCounters ev;
  auto run = instrumented_runner(p, all_leaders(p), ev, 11);
  const auto hit = run.run_until(
      [](Config c, const IPl::Params&) { return count_leaders(c) == 1; },
      400'000'000ULL);
  ASSERT_TRUE(hit.has_value());
  // Conservation: n initial leaders + creations - kills = 1 survivor.
  EXPECT_EQ(ev.leaders_killed,
            static_cast<std::uint64_t>(p.n) - 1 + ev.created_via_dist +
                ev.created_via_token);
  EXPECT_GT(ev.live_fired, 0u);
  EXPECT_GT(ev.dummy_fired, 0u);
  EXPECT_GE(ev.bullets_absorbed, ev.leaders_killed);
}

TEST(Events, DetectionSiteAttribution) {
  // dist-path creation (line 6).
  {
    const PlParams p = PlParams::make(10, 4);
    EventCounters ev;
    auto run =
        instrumented_runner(p, leaderless_consistent(p, p.kappa_max), ev, 3);
    run.apply_arc(9);
    EXPECT_EQ(ev.created_via_dist, 1u);
    EXPECT_EQ(ev.created_via_token, 0u);
  }
  // token-path creation (line 18): 2psi | n, consistent dists, broken id.
  {
    const PlParams p = PlParams::make(16, 4);
    auto c = make_safe_config(p, 0, 0);
    for (PlState& s : c) {
      s.clock = static_cast<std::uint16_t>(p.kappa_max);
      s.leader = 0;
      s.shield = 0;
    }
    c[static_cast<std::size_t>(p.psi)].b = 0;  // break bit 0 of S_1
    EventCounters ev;
    auto run = instrumented_runner(p, c, ev, 5);
    for (int j = 0; j < p.psi; ++j) run.apply_arc(j);
    EXPECT_EQ(ev.created_via_token, 1u);
    EXPECT_EQ(ev.created_via_dist, 0u);
  }
}

TEST(Events, NullSinkKeepsPlainProtocolIdentical) {
  // The instrumented and plain paths must produce bit-identical executions.
  const PlParams p = PlParams::make(24, 4);
  core::Xoshiro256pp rng(13);
  const auto init = random_config(p, rng);
  core::Runner<PlProtocol> plain(p, init, 99);
  EventCounters ev;
  auto inst = instrumented_runner(p, init, ev, 99);
  plain.run(100'000);
  inst.run(100'000);
  for (int i = 0; i < p.n; ++i)
    ASSERT_EQ(plain.agent(i), inst.agent(i)) << "agent " << i;
}

}  // namespace
}  // namespace ppsim::pl
