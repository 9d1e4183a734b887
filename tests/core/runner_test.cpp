#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/ring.hpp"
#include "core/statistics.hpp"

namespace ppsim::core {
namespace {

/// Toy directed protocol: the responder copies the initiator's value + 1.
struct CountProto {
  struct State {
    int v = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&) { r.v = l.v + 1; }
};

/// Toy leader protocol: leaders annihilate pairwise when a "token" meets one.
struct LeaderProto {
  struct State {
    int leader = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&) {
    if (l.leader == 1 && r.leader == 1) r.leader = 0;
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
};

/// Oracle-consuming toy protocol: responder becomes leader when told none
/// exists.
struct OracleProto {
  struct State {
    int leader = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State&, State& r, const Params&,
                    const InteractionContext& ctx) {
    if (ctx.no_leader) r.leader = 1;
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
};

TEST(Runner, AppliesDirectedArc) {
  Runner<CountProto> run({4}, std::vector<CountProto::State>(4), 1);
  run.apply_arc(0);  // (u0, u1)
  EXPECT_EQ(run.agent(1).v, 1);
  run.apply_arc(3);  // (u3, u0): wraps
  EXPECT_EQ(run.agent(0).v, 1);
  EXPECT_EQ(run.steps(), 2u);
}

TEST(Runner, AppliesSequence) {
  Runner<CountProto> run({5}, std::vector<CountProto::State>(5), 1);
  run.apply_sequence(seq_r(0, 4, 5));  // sweep: v ramps 1,2,3,4
  EXPECT_EQ(run.agent(4).v, 4);
}

TEST(Runner, TracksLeaderCountIncrementally) {
  std::vector<LeaderProto::State> init(6);
  init[0].leader = init[3].leader = 1;
  Runner<LeaderProto> run({6}, init, 1);
  EXPECT_EQ(run.leader_count(), 2);
  run.run(5000);
  // The protocol only removes adjacent leader pairs; with leaders at 0 and 3
  // nothing ever changes.
  EXPECT_EQ(run.leader_count(), 2);
}

TEST(Runner, LeaderCountAfterAnnihilation) {
  std::vector<LeaderProto::State> init(4);
  init[0].leader = init[1].leader = 1;
  Runner<LeaderProto> run({4}, init, 1);
  run.apply_arc(0);  // leaders at 0,1 annihilate the responder
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.last_leader_change(), 1u);
}

TEST(Runner, OracleReportsAbsence) {
  Runner<OracleProto> run({4}, std::vector<OracleProto::State>(4), 1);
  EXPECT_EQ(run.leader_count(), 0);
  run.apply_arc(0);
  EXPECT_EQ(run.leader_count(), 1);  // oracle fired immediately
  run.apply_arc(1);
  EXPECT_EQ(run.leader_count(), 1);  // leader exists: oracle silent
}

TEST(Runner, RunUntilReportsHittingStep) {
  Runner<CountProto> run({4}, std::vector<CountProto::State>(4), 99);
  const auto hit = run.run_until(
      [](std::span<const CountProto::State> c, const CountProto::Params&) {
        for (const auto& s : c)
          if (s.v >= 3) return true;
        return false;
      },
      100000, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(*hit, 0u);
  EXPECT_LE(*hit, 100000u);
}

TEST(Runner, RunUntilTimesOut) {
  Runner<LeaderProto> run({4}, std::vector<LeaderProto::State>(4), 3);
  const auto hit = run.run_until(
      [](std::span<const LeaderProto::State> c, const LeaderProto::Params&) {
        for (const auto& s : c)
          if (s.leader) return true;
        return false;
      },
      1000, 10);
  EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(run.steps(), 1000u);
}

TEST(Runner, SchedulerIsUniformOverArcs) {
  // Count which arcs fire via an observer; chi-square against uniform.
  Runner<CountProto> run({8}, std::vector<CountProto::State>(8), 7);
  std::vector<std::uint64_t> counts(8, 0);
  run.run_observed(80000, [&](const Runner<CountProto>&, int arc) {
    ++counts[static_cast<std::size_t>(arc)];
  });
  // 7 dof; 1e-5 tail is ~33. Allow slack.
  EXPECT_LT(chi_square_uniform(counts), 45.0);
}

TEST(Runner, SetAgentUpdatesLeaderCensusAndChangeStep) {
  std::vector<LeaderProto::State> init(4);
  init[0].leader = 1;
  Runner<LeaderProto> run({4}, init, 1);
  run.run(100);  // the protocol can't change anything here
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.last_leader_change(), 0u);

  // Fault injection deleting the unique leader: the census recounts AND the
  // change step reflects the injection (previously it stayed stale).
  LeaderProto::State follower;
  run.set_agent(0, follower);
  EXPECT_EQ(run.leader_count(), 0);
  EXPECT_EQ(run.last_leader_change(), 100u);

  // Injecting a state that does not flip the leader output leaves the
  // change step untouched.
  run.run(50);
  LeaderProto::State still_follower;
  run.set_agent(1, still_follower);
  EXPECT_EQ(run.last_leader_change(), 100u);

  // Re-creating a leader is a change again.
  LeaderProto::State leader;
  leader.leader = 1;
  run.set_agent(2, leader);
  EXPECT_EQ(run.leader_count(), 1);
  EXPECT_EQ(run.last_leader_change(), 150u);
}

TEST(Runner, SetAgentIntoLeaderlessRingKeepsOracleReport) {
  // Omega? reports at once: a non-leader fault into a leaderless ring
  // leaves no_leader true at the very next step, and so does injecting the
  // last leader away.
  Runner<OracleProto> run({4}, std::vector<OracleProto::State>(4), 1);
  run.set_agent(0, OracleProto::State{});  // fault injection, still leaderless
  run.apply_arc(0);
  EXPECT_EQ(run.leader_count(), 1);  // agent 1 promoted at step 1
  run.set_agent(1, OracleProto::State{});  // the last leader injected away
  EXPECT_EQ(run.leader_count(), 0);
  EXPECT_EQ(run.last_leader_change(), 1u);
  run.apply_arc(2);
  EXPECT_EQ(run.leader_count(), 1);  // agent 3 promoted at step 2
  EXPECT_EQ(run.last_leader_change(), 2u);
}

TEST(Runner, SnapshotViaCopy) {
  Runner<CountProto> run({4}, std::vector<CountProto::State>(4), 1);
  run.run(100);
  Runner<CountProto> snap = run;
  run.run(100);
  EXPECT_EQ(snap.steps() + 100, run.steps());
}

TEST(Runner, InitialConfigurationOfWrongSizeThrows) {
  EXPECT_THROW(Runner<CountProto>({4}, std::vector<CountProto::State>(3), 1),
               std::invalid_argument);
  EXPECT_THROW(Runner<CountProto>({4}, std::vector<CountProto::State>(5), 1),
               std::invalid_argument);
}

TEST(Runner, RingSizeBelowOneThrows) {
  for (const int n : {0, -3}) {
    EXPECT_THROW(Runner<CountProto>({n}, std::vector<CountProto::State>(), 1),
                 std::invalid_argument)
        << "n=" << n;
  }
}

TEST(Runner, AgentIndexOutOfRangeThrows) {
  Runner<CountProto> run({4}, std::vector<CountProto::State>(4), 1);
  EXPECT_THROW((void)run.agent(4), std::out_of_range);
  EXPECT_THROW(run.set_agent(-1, CountProto::State{}), std::out_of_range);
}

}  // namespace
}  // namespace ppsim::core
