// Batched-vs-stepwise engine equivalence: Runner::run (fused fast path,
// delta census) must produce bit-identical trajectories and census values to
// Runner::run_unbatched (the per-step reference path) — same RNG stream, same
// agent states, same leader/token bookkeeping — for every census shape the
// engine specializes on: no outputs, leader output only, and leader + token
// census with the oracle, with and without oracle delay; plus step() on the
// shared stream. The study protocols get the same comparison (lanes A and B)
// with fault storms in tests/verification/differential_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"

namespace ppsim::core {
namespace {

/// Toy protocol without outputs (exercises the bare-loop specialization).
struct PlainProto {
  struct State {
    std::uint32_t v = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&) {
    r.v = l.v * 2654435761u + 1;
  }
};

/// Toy leader protocol (exercises the leader-only census path).
struct LeaderProto {
  struct State {
    std::uint8_t leader = 0;
    std::uint8_t age = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&) {
    ++r.age;
    if (l.leader == 1 && r.leader == 1) r.leader = 0;
    if (l.age == 0xFF && r.leader == 0) {
      r.leader = 1;  // occasionally revive a leader so counts keep moving
      l.age = 0;
    }
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
};

/// Oracle + token census toy (exercises the snapshot-skip path: small state,
/// has_token, frequent no-op interactions).
struct OracleTokenProto {
  struct State {
    std::uint8_t leader = 0;
    std::uint8_t token = 0;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&,
                    const InteractionContext& ctx) {
    if (ctx.no_leader) {
      r.leader = 1;
      r.token = 1;
    } else if (l.token == 1 && r.leader == 1) {
      l.token = 0;
      r.leader = 0;  // a token reaching a leader deposes it
    } else if (l.token == 1 && r.token == 0) {
      l.token = 0;
      r.token = 1;
    }
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
  static bool has_token(const State& s, const Params&) {
    return s.token == 1;
  }
};

/// Drive one runner with run_unbatched and a copy with run over the same
/// schedule of chunk lengths, comparing full state and census at every sync
/// point. `Eq(a, b)` compares agent states.
template <typename P, typename Eq>
void expect_equivalent(Runner<P> a, std::uint64_t total_steps, Eq&& eq) {
  Runner<P> b = a;  // identical snapshot: same RNG state, same agents
  // Uneven chunking on the batched side exercises block boundaries.
  const std::uint64_t chunks[] = {1, 7, 1024, 4096, 5000, 333};
  std::uint64_t done = 0;
  std::size_t c = 0;
  while (done < total_steps) {
    const std::uint64_t k =
        std::min(chunks[c++ % std::size(chunks)], total_steps - done);
    a.run_unbatched(k);
    b.run(k);
    done += k;
    ASSERT_EQ(a.steps(), b.steps());
    ASSERT_EQ(a.leader_count(), b.leader_count());
    ASSERT_EQ(a.last_leader_change(), b.last_leader_change());
    for (int i = 0; i < a.n(); ++i) {
      ASSERT_TRUE(eq(a.agent(i), b.agent(i)))
          << "agent " << i << " diverged at step " << a.steps();
    }
  }
}

TEST(BatchedRunner, PlainProtocolIdenticalOver100kSteps) {
  std::vector<PlainProto::State> init(33);
  expect_equivalent(Runner<PlainProto>({33}, init, 42), 100'000,
                    [](const PlainProto::State& x, const PlainProto::State& y) {
                      return x.v == y.v;
                    });
}

TEST(BatchedRunner, LeaderCensusIdenticalOver100kSteps) {
  std::vector<LeaderProto::State> init(16);
  init[0].leader = init[5].leader = init[6].leader = 1;
  expect_equivalent(Runner<LeaderProto>({16}, init, 7), 100'000,
                    [](const LeaderProto::State& x, const LeaderProto::State& y) {
                      return x.leader == y.leader && x.age == y.age;
                    });
}

TEST(BatchedRunner, OracleTokenCensusIdenticalOver100kSteps) {
  std::vector<OracleTokenProto::State> init(12);
  expect_equivalent(
      Runner<OracleTokenProto>({12}, init, 99), 100'000,
      [](const OracleTokenProto::State& x, const OracleTokenProto::State& y) {
        return x.leader == y.leader && x.token == y.token;
      });
}

TEST(BatchedRunner, OracleDelayIdentical) {
  std::vector<OracleTokenProto::State> init(8);
  Runner<OracleTokenProto> r({8}, init, 3);
  r.set_oracle_delay(50);
  expect_equivalent(
      std::move(r), 20'000,
      [](const OracleTokenProto::State& x, const OracleTokenProto::State& y) {
        return x.leader == y.leader && x.token == y.token;
      });
}

/// Mid-run fault-injection equivalence: drive mirrored runners (unbatched vs
/// batched) through uneven chunks with identical `set_agent` storms at every
/// sync point. Both paths must agree on the full trajectory, the incremental
/// leader/token censuses, `last_leader_change`, and — via the transitions of
/// oracle protocols, which read ctx.no_leader/no_token — the Omega? oracle
/// reports. A fresh runner built from the current configuration additionally
/// checks the incremental census against a ground-truth full recount.
template <typename P, typename MakeState, typename Eq>
void expect_equivalent_under_faults(Runner<P> a, std::uint64_t total_steps,
                                    MakeState&& mk, Eq&& eq) {
  Runner<P> b = a;  // identical snapshot: same RNG state, same agents
  Xoshiro256pp fault_rng(0xFA17);
  const std::uint64_t chunks[] = {1, 7, 503, 1024, 64, 333};
  std::uint64_t done = 0;
  std::size_t c = 0;
  while (done < total_steps) {
    const std::uint64_t k =
        std::min(chunks[c++ % std::size(chunks)], total_steps - done);
    a.run_unbatched(k);
    b.run(k);
    done += k;
    // Identical fault storm into both runners (1-3 corrupted agents).
    const int storm = 1 + static_cast<int>(fault_rng.bounded(3));
    for (int f = 0; f < storm; ++f) {
      const int idx =
          static_cast<int>(fault_rng.bounded(static_cast<std::uint64_t>(a.n())));
      const auto s = mk(fault_rng);
      a.set_agent(idx, s);
      b.set_agent(idx, s);
    }
    ASSERT_EQ(a.steps(), b.steps());
    ASSERT_EQ(a.leader_count(), b.leader_count());
    ASSERT_EQ(a.token_count(), b.token_count());
    ASSERT_EQ(a.last_leader_change(), b.last_leader_change());
    for (int i = 0; i < a.n(); ++i) {
      ASSERT_TRUE(eq(a.agent(i), b.agent(i)))
          << "agent " << i << " diverged at step " << a.steps();
    }
    // Incremental census (delta-maintained through set_agent) vs recount.
    Runner<P> fresh(a.params(),
                    std::vector<typename P::State>(a.agents().begin(),
                                                   a.agents().end()),
                    1);
    ASSERT_EQ(fresh.leader_count(), a.leader_count());
    ASSERT_EQ(fresh.token_count(), a.token_count());
  }
  // The post-fault histories must keep agreeing, oracle reports included.
  a.run_unbatched(5'000);
  b.run(5'000);
  ASSERT_EQ(a.leader_count(), b.leader_count());
  ASSERT_EQ(a.token_count(), b.token_count());
  ASSERT_EQ(a.last_leader_change(), b.last_leader_change());
  for (int i = 0; i < a.n(); ++i) ASSERT_TRUE(eq(a.agent(i), b.agent(i)));
}

TEST(BatchedRunnerFaults, OracleTokenCensusIdenticalUnderInjections) {
  std::vector<OracleTokenProto::State> init(12);
  expect_equivalent_under_faults(
      Runner<OracleTokenProto>({12}, init, 21), 50'000,
      [](Xoshiro256pp& rng) {
        OracleTokenProto::State s;
        s.leader = static_cast<std::uint8_t>(rng.bounded(2));
        s.token = static_cast<std::uint8_t>(rng.bounded(2));
        return s;
      },
      [](const OracleTokenProto::State& x, const OracleTokenProto::State& y) {
        return x.leader == y.leader && x.token == y.token;
      });
}

TEST(BatchedRunnerFaults, OracleDelayIdenticalUnderInjections) {
  std::vector<OracleTokenProto::State> init(8);
  Runner<OracleTokenProto> r({8}, init, 5);
  r.set_oracle_delay(64);
  expect_equivalent_under_faults(
      std::move(r), 20'000,
      [](Xoshiro256pp& rng) {
        OracleTokenProto::State s;
        s.leader = static_cast<std::uint8_t>(rng.bounded(2));
        s.token = static_cast<std::uint8_t>(rng.bounded(2));
        return s;
      },
      [](const OracleTokenProto::State& x, const OracleTokenProto::State& y) {
        return x.leader == y.leader && x.token == y.token;
      });
}

TEST(BatchedRunnerFaults, InjectionDoesNotResetOracleLeaderlessClock) {
  // A leaderless population since step 0 with oracle delay 10: the first
  // interaction at steps >= 10 sees no_leader and promotes a leader, i.e.
  // leader_count flips from 0 to 1 at step 11 exactly. A non-leader fault
  // injected at step 5 must not reset the oracle's leaderless clock (the
  // delay counts from the original onset of leaderlessness).
  std::vector<OracleTokenProto::State> init(4);
  Runner<OracleTokenProto> r({4}, init, 9);
  r.set_oracle_delay(10);
  r.run(5);
  OracleTokenProto::State fault;
  fault.token = 1;  // flips the token census but not the leader census
  r.set_agent(0, fault);
  ASSERT_EQ(r.leader_count(), 0);
  ASSERT_EQ(r.token_count(), 1);
  r.run(5);  // steps 6..10: oracle still reports presence until step 10
  EXPECT_EQ(r.leader_count(), 0);
  r.run(1);  // the interaction at steps_ == 10 promotes
  EXPECT_EQ(r.leader_count(), 1);
  EXPECT_EQ(r.last_leader_change(), 11u);
}

TEST(BatchedRunner, MixedPathsShareOneStream) {
  // step(), run(), run_unbatched() interleaved on one runner equal a pure
  // unbatched runner: all three consume the same RNG stream.
  const auto p = pl::PlParams::make(16, 4);
  core::Xoshiro256pp rng(12);
  const auto init = pl::random_config(p, rng);
  Runner<pl::PlProtocol> mixed(p, init, 77);
  Runner<pl::PlProtocol> pure(p, init, 77);
  mixed.run(1000);
  for (int i = 0; i < 500; ++i) mixed.step();
  mixed.run_unbatched(250);
  mixed.run(1250);
  pure.run_unbatched(3000);
  ASSERT_EQ(mixed.steps(), pure.steps());
  for (int i = 0; i < p.n; ++i) EXPECT_EQ(mixed.agent(i), pure.agent(i));
  EXPECT_EQ(mixed.leader_count(), pure.leader_count());
  EXPECT_EQ(mixed.last_leader_change(), pure.last_leader_change());
}

}  // namespace
}  // namespace ppsim::core
