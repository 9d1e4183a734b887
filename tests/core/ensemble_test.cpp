// Ensemble-vs-Runner equivalence: every ring of an EnsembleRunner must be
// bit-identical to a standalone Runner constructed with the same params,
// initial configuration and seed — trajectory, steps, leader/token census,
// last_leader_change, oracle reports (via oracle-protocol transitions) and
// run_until_each hitting steps — for every census shape the engine
// specializes on, on directed and undirected rings, and for the four study
// protocols. On top of the engine-level checks, the migrated analysis
// drivers (measure_convergence / measure_convergence_parallel /
// measure_recovery) are compared trial-for-trial against the retained
// per-trial reference paths (detail::convergence_trial /
// detail::recovery_trial) across thread counts — the acceptance bar for the
// trial-batched campaign engine is "not a single published number changes".
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/experiment.hpp"
#include "analysis/scenario.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/ensemble.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::core {
namespace {

/// Toy leader protocol (leader-only census path).
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
      r.leader = 1;
      l.age = 0;
    }
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
};

/// Undirected variant (2n arcs — exercises the reverse-arc mapping shared
/// through core::arc_endpoints).
struct UndirectedLeaderProto : LeaderProto {
  static constexpr bool directed = false;
};

/// Oracle + token census toy (snapshot-skip path + InteractionContext).
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
      r.leader = 0;
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

/// Mirror an R-ring ensemble against R standalone Runners through uneven
/// run() chunks, comparing full per-ring state and bookkeeping at every sync
/// point. `Eq(a, b)` compares agent states.
template <typename P, typename Eq>
void expect_rings_equivalent(const typename P::Params& params,
                             std::vector<std::vector<typename P::State>> inits,
                             std::uint64_t total_steps, Eq&& eq,
                             std::uint64_t oracle_delay = 0) {
  const int R = static_cast<int>(inits.size());
  EnsembleRunner<P> ensemble(params, R);
  std::vector<Runner<P>> runners;
  for (int r = 0; r < R; ++r) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(r) * 77;
    ensemble.add_ring(inits[static_cast<std::size_t>(r)], seed);
    runners.emplace_back(params, inits[static_cast<std::size_t>(r)], seed);
  }
  if (oracle_delay != 0) {
    ensemble.set_oracle_delay(oracle_delay);
    for (auto& rn : runners) rn.set_oracle_delay(oracle_delay);
  }
  ASSERT_EQ(ensemble.ring_count(), R);

  const std::uint64_t chunks[] = {1, 7, 501, 1024, 63, 333};
  std::uint64_t done = 0;
  std::size_t c = 0;
  while (done < total_steps) {
    const std::uint64_t k =
        std::min(chunks[c++ % std::size(chunks)], total_steps - done);
    ensemble.run(k);
    done += k;
    for (int r = 0; r < R; ++r) {
      auto& rn = runners[static_cast<std::size_t>(r)];
      rn.run(k);
      ASSERT_EQ(ensemble.steps(r), rn.steps()) << "ring " << r;
      ASSERT_EQ(ensemble.leader_count(r), rn.leader_count()) << "ring " << r;
      ASSERT_EQ(ensemble.token_count(r), rn.token_count()) << "ring " << r;
      ASSERT_EQ(ensemble.last_leader_change(r), rn.last_leader_change())
          << "ring " << r;
      for (int i = 0; i < params.n; ++i) {
        ASSERT_TRUE(eq(ensemble.agent(r, i), rn.agent(i)))
            << "ring " << r << " agent " << i << " at step " << rn.steps();
      }
    }
  }
}

TEST(EnsembleRunner, LeaderCensusRingsMatchStandaloneRunners) {
  const LeaderProto::Params p{16};
  std::vector<std::vector<LeaderProto::State>> inits;
  for (int r = 0; r < 7; ++r) {
    std::vector<LeaderProto::State> init(16);
    init[static_cast<std::size_t>(r % 16)].leader = 1;
    if (r % 2 == 0) init[5].leader = 1;
    inits.push_back(std::move(init));
  }
  expect_rings_equivalent<LeaderProto>(
      p, std::move(inits), 30'000,
      [](const LeaderProto::State& x, const LeaderProto::State& y) {
        return x.leader == y.leader && x.age == y.age;
      });
}

TEST(EnsembleRunner, UndirectedRingsMatchStandaloneRunners) {
  const UndirectedLeaderProto::Params p{12};
  std::vector<std::vector<UndirectedLeaderProto::State>> inits;
  for (int r = 0; r < 5; ++r) {
    std::vector<UndirectedLeaderProto::State> init(12);
    init[static_cast<std::size_t>((3 * r) % 12)].leader = 1;
    inits.push_back(std::move(init));
  }
  expect_rings_equivalent<UndirectedLeaderProto>(
      p, std::move(inits), 30'000,
      [](const UndirectedLeaderProto::State& x,
         const UndirectedLeaderProto::State& y) {
        return x.leader == y.leader && x.age == y.age;
      });
}

TEST(EnsembleRunner, OracleTokenRingsMatchWithOracleDelay) {
  const OracleTokenProto::Params p{10};
  std::vector<std::vector<OracleTokenProto::State>> inits(
      6, std::vector<OracleTokenProto::State>(10));
  expect_rings_equivalent<OracleTokenProto>(
      p, std::move(inits), 25'000,
      [](const OracleTokenProto::State& x, const OracleTokenProto::State& y) {
        return x.leader == y.leader && x.token == y.token;
      },
      /*oracle_delay=*/37);
}

TEST(EnsembleRunner, StudyProtocolRingsMatchStandaloneRunners) {
  {
    const auto p = pl::PlParams::make(16, 4);
    core::Xoshiro256pp rng(5);
    std::vector<std::vector<pl::PlState>> inits;
    for (int r = 0; r < 5; ++r) inits.push_back(pl::random_config(p, rng));
    expect_rings_equivalent<pl::PlProtocol>(
        p, std::move(inits), 20'000,
        [](const pl::PlState& x, const pl::PlState& y) { return x == y; });
  }
  {
    const auto p = baselines::FjParams::make(14);
    core::Xoshiro256pp rng(6);
    std::vector<std::vector<baselines::FjState>> inits;
    for (int r = 0; r < 5; ++r)
      inits.push_back(baselines::fj_random_config(p, rng));
    expect_rings_equivalent<baselines::FischerJiang>(
        p, std::move(inits), 20'000,
        [](const baselines::FjState& x, const baselines::FjState& y) {
          return x == y;
        });
  }
  {
    const auto p = baselines::ModkParams::make(15, 2);
    core::Xoshiro256pp rng(7);
    std::vector<std::vector<baselines::ModkState>> inits;
    for (int r = 0; r < 5; ++r)
      inits.push_back(baselines::modk_random_config(p, rng));
    expect_rings_equivalent<baselines::Modk>(
        p, std::move(inits), 20'000,
        [](const baselines::ModkState& x, const baselines::ModkState& y) {
          return x == y;
        });
  }
  {
    const auto p = baselines::Y28Params::make(12);
    core::Xoshiro256pp rng(8);
    std::vector<std::vector<baselines::Y28State>> inits;
    for (int r = 0; r < 5; ++r)
      inits.push_back(baselines::y28_random_config(p, rng));
    expect_rings_equivalent<baselines::Yokota28>(
        p, std::move(inits), 20'000,
        [](const baselines::Y28State& x, const baselines::Y28State& y) {
          return x == y;
        });
  }
}

TEST(EnsembleRunner, RunRingAndSetAgentMatchStandaloneRunner) {
  // Ragged per-ring advancement (run_ring) interleaved with fault injection
  // through both set_agent surfaces — the exact-offset scheduling the
  // recovery engine uses.
  const OracleTokenProto::Params p{8};
  EnsembleRunner<OracleTokenProto> ensemble(p, 3);
  std::vector<Runner<OracleTokenProto>> runners;
  std::vector<OracleTokenProto::State> init(8);
  for (int r = 0; r < 3; ++r) {
    ensemble.add_ring(init, 50 + static_cast<std::uint64_t>(r));
    runners.emplace_back(p, init, 50 + static_cast<std::uint64_t>(r));
  }
  Xoshiro256pp fault_rng(0xFA17);
  for (int round = 0; round < 40; ++round) {
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t k = 1 + fault_rng.bounded(97) * static_cast<std::uint64_t>(r + 1);
      ensemble.run_ring(r, k);
      runners[static_cast<std::size_t>(r)].run(k);
      OracleTokenProto::State s;
      s.leader = static_cast<std::uint8_t>(fault_rng.bounded(2));
      s.token = static_cast<std::uint8_t>(fault_rng.bounded(2));
      const int idx = static_cast<int>(fault_rng.bounded(8));
      ensemble.set_agent(r, idx, s);
      runners[static_cast<std::size_t>(r)].set_agent(idx, s);
    }
    for (int r = 0; r < 3; ++r) {
      auto& rn = runners[static_cast<std::size_t>(r)];
      ASSERT_EQ(ensemble.steps(r), rn.steps());
      ASSERT_EQ(ensemble.leader_count(r), rn.leader_count());
      ASSERT_EQ(ensemble.token_count(r), rn.token_count());
      ASSERT_EQ(ensemble.last_leader_change(r), rn.last_leader_change());
      for (int i = 0; i < p.n; ++i) {
        ASSERT_EQ(ensemble.agent(r, i).leader, rn.agent(i).leader);
        ASSERT_EQ(ensemble.agent(r, i).token, rn.agent(i).token);
      }
    }
  }
}

TEST(EnsembleRunner, PackedModeDrivesModkBitIdentically) {
  // modk exposes the canonical state enumeration, so the ensemble runs it
  // through the precomputed pair-transition table. Trajectories, censuses
  // and last_leader_change must still match standalone Runners exactly —
  // including across in-domain set_agent faults, which keep packed mode on.
  const auto p = baselines::ModkParams::make(17, 2);
  core::Xoshiro256pp rng(9);
  EnsembleRunner<baselines::Modk> ensemble(p, 4);
  ASSERT_TRUE(ensemble.packed_mode());  // table built at construction
  std::vector<Runner<baselines::Modk>> runners;
  for (int r = 0; r < 4; ++r) {
    auto init = baselines::modk_random_config(p, rng);
    ensemble.add_ring(init, 600 + static_cast<std::uint64_t>(r));
    runners.emplace_back(p, std::move(init),
                         600 + static_cast<std::uint64_t>(r));
  }
  EXPECT_TRUE(ensemble.packed_mode());
  Xoshiro256pp fault_rng(0xF00D);
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t k = 1 + fault_rng.bounded(800);
    ensemble.run(k);
    for (int r = 0; r < 4; ++r) runners[static_cast<std::size_t>(r)].run(k);
    // One in-domain fault per round into a rotating ring.
    const int r = round % 4;
    const int idx = static_cast<int>(fault_rng.bounded(17));
    const auto s = baselines::modk_random_state(p, fault_rng);
    ensemble.set_agent(r, idx, s);
    runners[static_cast<std::size_t>(r)].set_agent(idx, s);
    ASSERT_TRUE(ensemble.packed_mode());
    for (int q = 0; q < 4; ++q) {
      auto& rn = runners[static_cast<std::size_t>(q)];
      ASSERT_EQ(ensemble.steps(q), rn.steps());
      ASSERT_EQ(ensemble.leader_count(q), rn.leader_count());
      ASSERT_EQ(ensemble.last_leader_change(q), rn.last_leader_change());
      for (int i = 0; i < p.n; ++i)
        ASSERT_EQ(ensemble.agent(q, i), rn.agent(i))
            << "ring " << q << " agent " << i;
    }
  }
}

TEST(EnsembleRunner, ScalarOnlyBuildsNoLutAndTracksThePackedLane) {
  // kScalarOnly (Runner's ring 0, differential lane C) never builds the
  // LUT, its ring owns its States, and it tracks the packed lane step for
  // step. tests/core/word_kernel_test.cpp covers the word lane.
  const auto p = baselines::ModkParams::make(17, 2);
  core::Xoshiro256pp rng(17);
  const auto init = baselines::modk_random_config(p, rng);
  EnsembleRunner<baselines::Modk> packed(p, 1);
  EnsembleRunner<baselines::Modk> scalar(kScalarOnly, p, 1);
  packed.add_ring(init, 5);
  scalar.add_ring(init, 5);
  ASSERT_TRUE(packed.packed_mode());
  ASSERT_FALSE(scalar.packed_mode());
  packed.run(3000);
  scalar.run(3000);
  EXPECT_EQ(scalar.ring_owner(0), RingOwner::kStates);
  EXPECT_EQ(scalar.leader_count(0), packed.leader_count(0));
  EXPECT_EQ(scalar.last_leader_change(0), packed.last_leader_change(0));
  for (int i = 0; i < p.n; ++i)
    ASSERT_EQ(scalar.agent(0, i), packed.agent(0, i)) << "agent " << i;
}

TEST(EnsembleRunner, OutOfDomainFaultFallsBackToGenericPathExactly) {
  // A state outside the canonical enumeration (lab >= k) cannot be packed;
  // the ensemble must drop to the generic path — permanently — and keep
  // producing exactly the Runner trajectory, not a corrupted table lookup.
  const auto p = baselines::ModkParams::make(9, 2);
  EnsembleRunner<baselines::Modk> ensemble(p, 2);
  std::vector<Runner<baselines::Modk>> runners;
  for (int r = 0; r < 2; ++r) {
    std::vector<baselines::ModkState> init(9);
    ensemble.add_ring(init, 80 + static_cast<std::uint64_t>(r));
    runners.emplace_back(p, std::move(init),
                         80 + static_cast<std::uint64_t>(r));
  }
  EXPECT_TRUE(ensemble.packed_mode());
  ensemble.run(777);
  for (auto& rn : runners) rn.run(777);

  baselines::ModkState weird;
  weird.lab = 7;  // out of Z_2
  weird.leader = 1;
  ensemble.set_agent(0, 3, weird);
  runners[0].set_agent(3, weird);
  EXPECT_FALSE(ensemble.packed_mode());

  ensemble.run(2'000);
  for (int r = 0; r < 2; ++r) {
    auto& rn = runners[static_cast<std::size_t>(r)];
    rn.run(2'000);
    ASSERT_EQ(ensemble.leader_count(r), rn.leader_count());
    ASSERT_EQ(ensemble.last_leader_change(r), rn.last_leader_change());
    for (int i = 0; i < p.n; ++i)
      ASSERT_EQ(ensemble.agent(r, i), rn.agent(i)) << "ring " << r;
  }
}

TEST(EnsembleRunner, RunUntilEachMatchesPerRingRunUntil) {
  // Hitting steps (including the retire-and-compact bookkeeping) must equal
  // Runner::run_until ring for ring, for mixed convergence speeds and
  // timeouts, and the retired rings must stop consuming randomness: after
  // the call, resuming every ring must still track the standalone runners.
  const auto p = pl::PlParams::make(12, 4);
  core::Xoshiro256pp rng(42);
  const int R = 9;
  EnsembleRunner<pl::PlProtocol> ensemble(p, R);
  std::vector<Runner<pl::PlProtocol>> runners;
  for (int r = 0; r < R; ++r) {
    // A mix of already-safe rings (hit at step 0), random rings (hit later)
    // and — via the tiny budget below — timeouts.
    auto init = (r % 3 == 0) ? pl::make_safe_config(p)
                             : pl::random_config(p, rng);
    const std::uint64_t seed = 7 + static_cast<std::uint64_t>(r);
    ensemble.add_ring(init, seed);
    runners.emplace_back(p, std::move(init), seed);
  }
  const std::uint64_t max_steps = 40'000;
  const std::uint64_t check_every = 64;
  const auto hits =
      ensemble.run_until_each(pl::SafePredicate{}, max_steps, check_every);
  ASSERT_EQ(hits.size(), static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    const auto want = runners[static_cast<std::size_t>(r)].run_until(
        pl::SafePredicate{}, max_steps, check_every);
    EXPECT_EQ(hits[static_cast<std::size_t>(r)],
              want.value_or(Runner<pl::PlProtocol>::npos))
        << "ring " << r;
    ASSERT_EQ(ensemble.steps(r), runners[static_cast<std::size_t>(r)].steps());
  }
  // Streams stayed aligned through retirement: resume and re-compare.
  ensemble.run(500);
  for (int r = 0; r < R; ++r) {
    auto& rn = runners[static_cast<std::size_t>(r)];
    rn.run(500);
    ASSERT_EQ(ensemble.steps(r), rn.steps());
    for (int i = 0; i < p.n; ++i)
      ASSERT_EQ(ensemble.agent(r, i), rn.agent(i)) << "ring " << r;
  }
}

TEST(EnsembleRunner, RunUntilEachStaggeredRetirementsMatchRunners) {
  // P_PL at n = 16 is below kWordCrossoverN: as rings retire one by one the
  // active set regroups every pass, so rings leave a lockstep group for the
  // scalar loop (their States take over) and rejoin one later (re-packed).
  // Widths 9..17 cover one to two full groups plus every leftover count at
  // both lockstep widths. Every ring must still equal its per-trial Runner.
  static_assert(16 < EnsembleRunner<pl::PlProtocol>::kWordCrossoverN);
  const auto p = pl::PlParams::make(16, 4);
  constexpr std::uint64_t npos = Runner<pl::PlProtocol>::npos;
  for (int R = 9; R <= 17; ++R) {
    core::Xoshiro256pp rng(300 + static_cast<std::uint64_t>(R));
    EnsembleRunner<pl::PlProtocol> ensemble(p, R);
    std::vector<Runner<pl::PlProtocol>> runners;
    for (int r = 0; r < R; ++r) {
      auto init = pl::random_config(p, rng);
      const auto seed = static_cast<std::uint64_t>(100 * R + r);
      ensemble.add_ring(init, seed);
      runners.emplace_back(p, std::move(init), seed);
    }
    const auto expect_rings_match = [&](const char* when) {
      for (int r = 0; r < R; ++r) {
        const auto& rn = runners[static_cast<std::size_t>(r)];
        ASSERT_EQ(ensemble.steps(r), rn.steps()) << when << " ring " << r;
        ASSERT_EQ(ensemble.leader_count(r), rn.leader_count())
            << when << " ring " << r;
        ASSERT_EQ(ensemble.last_leader_change(r), rn.last_leader_change())
            << when << " ring " << r;
        for (int i = 0; i < p.n; ++i)
          ASSERT_EQ(ensemble.agent(r, i), rn.agent(i))
              << when << " ring " << r << " agent " << i;
      }
    };
    const std::uint64_t max_steps = 200'000;
    const std::uint64_t check_every = 16;
    const auto hits =
        ensemble.run_until_each(pl::SafePredicate{}, max_steps, check_every);
    std::set<std::uint64_t> distinct;
    for (int r = 0; r < R; ++r) {
      const auto want = runners[static_cast<std::size_t>(r)].run_until(
          pl::SafePredicate{}, max_steps, check_every);
      EXPECT_EQ(hits[static_cast<std::size_t>(r)], want.value_or(npos))
          << "R=" << R << " ring " << r;
      distinct.insert(hits[static_cast<std::size_t>(r)]);
    }
    EXPECT_GE(distinct.size(), static_cast<std::size_t>(R) / 2)
        << "retirements should be staggered, R=" << R;
    expect_rings_match("after run_until_each");
    ensemble.run(333);  // streams stayed aligned: resume and re-compare
    for (auto& rn : runners) rn.run(333);
    expect_rings_match("after resume");
  }
}

TEST(EnsembleRunner, RunUntilEachZeroBudgetMatchesRunner) {
  const auto p = pl::PlParams::make(8, 2);
  core::Xoshiro256pp rng(3);
  EnsembleRunner<pl::PlProtocol> ensemble(p, 2);
  std::vector<Runner<pl::PlProtocol>> runners;
  for (int r = 0; r < 2; ++r) {
    auto init = r == 0 ? pl::make_safe_config(p) : pl::random_config(p, rng);
    ensemble.add_ring(init, 11);
    runners.emplace_back(p, std::move(init), 11);
  }
  const auto hits = ensemble.run_until_each(pl::SafePredicate{}, 0);
  EXPECT_EQ(hits[0], runners[0].run_until(pl::SafePredicate{}, 0).value_or(
                         Runner<pl::PlProtocol>::npos));
  EXPECT_EQ(hits[1], runners[1].run_until(pl::SafePredicate{}, 0).value_or(
                         Runner<pl::PlProtocol>::npos));
  EXPECT_EQ(hits[0], 0u);                              // already safe
  EXPECT_EQ(hits[1], Runner<pl::PlProtocol>::npos);    // no budget to hit
}

/// Runner::run_until and a one-ring run_until_each from the same state
/// after `warm` steps, with an unbounded budget (max_steps = UINT64_MAX) and
/// a predicate that holds on its second call: both engines must report the
/// same hitting step. With a wrapping `steps + max_steps` deadline, Runner
/// returns nullopt without running while the ensemble runs a block.
template <typename P>
void expect_unbounded_budget_agrees(const typename P::Params& p,
                                    std::vector<typename P::State> init,
                                    int lane) {
  constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kWarm = 37;
  constexpr std::uint64_t kCheckEvery = 16;
  EnsembleRunner<P> ensemble(p, 1);
  ensemble.add_ring(init, 99);
  EXPECT_EQ(ensemble.packed_mode(), lane == 1);
  EXPECT_EQ(ensemble.word_kernel_mode(), lane == 2);
  Runner<P> runner(p, std::move(init), 99);
  ensemble.run(kWarm);
  runner.run(kWarm);
  int ens_calls = 0;
  int run_calls = 0;
  const auto second_call = [](int& calls) {
    return [&calls](std::span<const typename P::State>,
                    const typename P::Params&) { return ++calls >= 2; };
  };
  const auto hits =
      ensemble.run_until_each(second_call(ens_calls), kUnbounded, kCheckEvery);
  const auto want = runner.run_until(second_call(run_calls), kUnbounded,
                                     kCheckEvery);
  ASSERT_TRUE(want.has_value()) << "lane " << lane;
  EXPECT_EQ(*want, kWarm + kCheckEvery);
  EXPECT_EQ(hits[0], *want) << "lane " << lane;
  EXPECT_EQ(ensemble.steps(0), runner.steps());
}

TEST(EnsembleRunner, UnboundedBudgetFromRunningRingMatchesRunnerOnEveryLane) {
  core::Xoshiro256pp rng(17);
  const auto pm = baselines::ModkParams::make(15, 2);
  expect_unbounded_budget_agrees<baselines::Modk>(
      pm, baselines::modk_random_config(pm, rng), 1);
  const auto pp = pl::PlParams::make(16, 4);
  expect_unbounded_budget_agrees<pl::PlProtocol>(
      pp, pl::random_config(pp, rng), 2);
  const auto py = baselines::Y28Params::make(12);
  expect_unbounded_budget_agrees<baselines::Yokota28>(
      py, baselines::y28_random_config(py, rng), 0);
}

// ---------------------------------------------------------------------------
// Engine misuse throws in every build type instead of reading or writing
// past the state block.

/// A two-ring ensemble of n = 4 leader rings.
EnsembleRunner<LeaderProto> two_rings() {
  EnsembleRunner<LeaderProto> ens(LeaderProto::Params{4}, 2);
  const std::vector<LeaderProto::State> init(4);
  ens.add_ring(init, 1);
  ens.add_ring(init, 2);
  return ens;
}

TEST(EnsembleMisuse, RingIndexOutOfRangeThrows) {
  auto ens = two_rings();
  const auto none = [](std::span<const LeaderProto::State>,
                       const LeaderProto::Params&) { return false; };
  std::vector<std::uint64_t> hits(2, EnsembleRunner<LeaderProto>::npos);
  for (const int r : {-1, 2}) {
    EXPECT_THROW((void)ens.agents(r), std::out_of_range) << r;
    EXPECT_THROW((void)ens.agent(r, 0), std::out_of_range) << r;
    EXPECT_THROW((void)ens.steps(r), std::out_of_range) << r;
    EXPECT_THROW((void)ens.leader_count(r), std::out_of_range) << r;
    EXPECT_THROW(ens.run_ring(r, 10), std::out_of_range) << r;
    EXPECT_THROW(ens.set_agent(r, 0, LeaderProto::State{}), std::out_of_range)
        << r;
    EXPECT_THROW(ens.run_until_each({0, r}, none, 10, 0, hits),
                 std::out_of_range)
        << r;
  }
}

TEST(EnsembleMisuse, AgentIndexOutOfRangeThrows) {
  auto ens = two_rings();
  for (const int i : {-1, 4}) {
    EXPECT_THROW((void)ens.agent(1, i), std::out_of_range) << i;
    EXPECT_THROW(ens.set_agent(1, i, LeaderProto::State{}), std::out_of_range)
        << i;
  }
  EXPECT_EQ(ens.steps(0), 0u);  // nothing advanced or written
}

TEST(EnsembleMisuse, AddRingOfWrongSizeThrows) {
  auto ens = two_rings();
  EXPECT_THROW(ens.add_ring(std::vector<LeaderProto::State>(3), 3),
               std::invalid_argument);
  EXPECT_THROW(ens.add_ring(std::vector<LeaderProto::State>(5), 3),
               std::invalid_argument);
  EXPECT_EQ(ens.ring_count(), 2);
}

TEST(EnsembleMisuse, RunUntilEachHitsOfWrongSizeThrows) {
  auto ens = two_rings();
  const auto none = [](std::span<const LeaderProto::State>,
                       const LeaderProto::Params&) { return false; };
  std::vector<std::uint64_t> hits(1, EnsembleRunner<LeaderProto>::npos);
  EXPECT_THROW(ens.run_until_each({0}, none, 10, 0, hits),
               std::invalid_argument);
  EXPECT_EQ(ens.steps(0), 0u);
}

/// A ring listed twice in the subset run_until_each would advance twice per
/// pass (or take two SIMD lanes over one ring's words): it throws before
/// any ring advances or any hit is written, on every lane.
template <typename P>
void expect_duplicate_ring_throws(const typename P::Params& p,
                                  const std::vector<typename P::State>& init,
                                  int lane) {
  EnsembleRunner<P> ens(p, 3);
  for (std::uint64_t s = 0; s < 3; ++s) ens.add_ring(init, 40 + s);
  EXPECT_EQ(ens.packed_mode(), lane == 1);
  EXPECT_EQ(ens.word_kernel_mode(), lane == 2);
  const auto none = [](std::span<const typename P::State>,
                       const typename P::Params&) { return false; };
  std::vector<std::uint64_t> hits(3, EnsembleRunner<P>::npos);
  EXPECT_THROW(ens.run_until_each({0, 2, 0}, none, 100, 0, hits),
               std::invalid_argument)
      << "lane " << lane;
  EXPECT_THROW(ens.run_until_each({1, 1}, none, 100, 0, hits),
               std::invalid_argument)
      << "lane " << lane;
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(ens.steps(r), 0u) << "lane " << lane;
    EXPECT_EQ(hits[static_cast<std::size_t>(r)], EnsembleRunner<P>::npos);
  }
}

TEST(EnsembleMisuse, RunUntilEachDuplicateRingThrowsOnEveryLane) {
  core::Xoshiro256pp rng(23);
  const auto pm = baselines::ModkParams::make(15, 2);
  expect_duplicate_ring_throws<baselines::Modk>(
      pm, baselines::modk_random_config(pm, rng), 1);
  const auto pp = pl::PlParams::make(16, 4);
  expect_duplicate_ring_throws<pl::PlProtocol>(
      pp, pl::random_config(pp, rng), 2);
  const auto py = baselines::Y28Params::make(12);
  expect_duplicate_ring_throws<baselines::Yokota28>(
      py, baselines::y28_random_config(py, rng), 0);
}

TEST(EnsembleMisuse, TopologySizeMismatchThrows) {
  EXPECT_THROW(EnsembleRunner<LeaderProto>(RingTopology(8),
                                           LeaderProto::Params{4}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Migrated analysis drivers vs the retained per-trial reference paths.

TEST(EnsembleMigration, MeasureConvergenceParallelMatchesReferenceAllThreads) {
  const auto p = pl::PlParams::make(8, 2);
  auto gen = [&](core::Xoshiro256pp& r) { return pl::random_config(p, r); };
  pl::SafePredicate pred{};
  const int trials = 50;
  const std::uint64_t max_steps = 50'000'000, seed_base = 13, tag = 9;
  std::vector<std::uint64_t> want(trials);
  for (int t = 0; t < trials; ++t) {
    want[static_cast<std::size_t>(t)] =
        analysis::detail::convergence_trial<pl::PlProtocol>(
            p, gen, pred, max_steps, seed_base, tag,
            static_cast<std::uint64_t>(t), 0);
  }
  for (int threads : {1, 2, 5}) {
    const auto stats = analysis::measure_convergence_parallel<pl::PlProtocol>(
        p, gen, pred, trials, max_steps, seed_base, tag, threads);
    EXPECT_EQ(stats.raw, want) << "threads=" << threads;
  }
}

TEST(EnsembleMigration, MeasureRecoveryMatchesPerTrialReferenceAllThreads) {
  // Storm schedule (exact-offset injections mid-recovery) on two protocols;
  // the folded stats (raw vectors included) compared against
  // detail::recovery_trial run trial for trial.
  {
    const auto p = pl::PlParams::make(12, 4);
    analysis::TrialPlan plan;
    plan.trials = 11;  // not a multiple of any shard width
    plan.max_steps = 50'000'000;
    plan.seed_base = 21;
    plan.tag = analysis::campaign_tag(6, p.n, 3);
    const auto spec = analysis::make_recovery_scenario<pl::PlProtocol>(
        "storm", analysis::storm_schedule(3, 17), plan);
    std::vector<analysis::RecoveryTrial> want;
    for (int t = 0; t < plan.trials; ++t)
      want.push_back(analysis::detail::recovery_trial<pl::PlProtocol>(
          p, spec, static_cast<std::uint64_t>(t)));
    for (int threads : {1, 3}) {
      auto spec_t = spec;
      spec_t.plan.threads = threads;
      const auto stats = analysis::measure_recovery<pl::PlProtocol>(p, spec_t);
      const auto want_stats = analysis::detail::fold_recovery(want);
      EXPECT_EQ(stats.raw, want_stats.raw) << "threads=" << threads;
      EXPECT_EQ(stats.stabilization_failures, want_stats.stabilization_failures);
      EXPECT_EQ(stats.recovery_failures, want_stats.recovery_failures);
      EXPECT_EQ(stats.trials, want_stats.trials);
    }
  }
  {
    const auto p = baselines::FjParams::make(12);
    analysis::TrialPlan plan;
    plan.trials = 9;
    plan.max_steps = 50'000'000;
    plan.seed_base = 23;
    plan.tag = analysis::campaign_tag(7, p.n, 2);
    const auto spec = analysis::make_recovery_scenario<baselines::FischerJiang>(
        "burst", analysis::burst_schedule(2), plan);
    std::vector<analysis::RecoveryTrial> want;
    for (int t = 0; t < plan.trials; ++t)
      want.push_back(analysis::detail::recovery_trial<baselines::FischerJiang>(
          p, spec, static_cast<std::uint64_t>(t)));
    const auto stats =
        analysis::measure_recovery<baselines::FischerJiang>(p, spec);
    const auto want_stats = analysis::detail::fold_recovery(want);
    EXPECT_EQ(stats.raw, want_stats.raw);
    EXPECT_EQ(stats.stabilization_failures, want_stats.stabilization_failures);
    EXPECT_EQ(stats.recovery_failures, want_stats.recovery_failures);
  }
  {
    // modk runs the whole recovery campaign in packed mode (injections stay
    // inside the canonical domain): the table path must reproduce the
    // per-trial Runner numbers too.
    const auto p = baselines::ModkParams::make(13, 2);
    analysis::TrialPlan plan;
    plan.trials = 10;
    plan.max_steps = 50'000'000;
    plan.seed_base = 29;
    plan.tag = analysis::campaign_tag(8, p.n, 2);
    const auto spec = analysis::make_recovery_scenario<baselines::Modk>(
        "storm", analysis::storm_schedule(2, 13), plan);
    std::vector<analysis::RecoveryTrial> want;
    for (int t = 0; t < plan.trials; ++t)
      want.push_back(analysis::detail::recovery_trial<baselines::Modk>(
          p, spec, static_cast<std::uint64_t>(t)));
    const auto stats = analysis::measure_recovery<baselines::Modk>(p, spec);
    const auto want_stats = analysis::detail::fold_recovery(want);
    EXPECT_EQ(stats.raw, want_stats.raw);
    EXPECT_EQ(stats.stabilization_failures, want_stats.stabilization_failures);
    EXPECT_EQ(stats.recovery_failures, want_stats.recovery_failures);
  }
}

}  // namespace
}  // namespace ppsim::core
