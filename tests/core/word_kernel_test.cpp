// The word-kernel engine lanes (core::WordGroupDriver wired into
// EnsembleRunner, the only accelerated engine): bit-identity of the
// single-ring and cross-ring lockstep lanes against Runner's scalar
// reference paths, fault-storm behavior (in-domain fast path and the
// documented fall-back-to-generic on out-of-domain states), capacity-probe
// gating, and thread-count byte-identity of the differential campaign
// driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "verification/differential.hpp"

namespace ppsim {
namespace {

using core::EnsembleRunner;
using core::Runner;
using pl::PlParams;
using pl::PlProtocol;
using pl::PlState;

static_assert(EnsembleRunner<PlProtocol>::kWordable,
              "P_PL must satisfy the word-kernel concept");
static_assert(!EnsembleRunner<PlProtocol>::kPackable,
              "P_PL's state space must be far beyond the LUT lane");

void expect_ring_same(const Runner<PlProtocol>& ref,
                      EnsembleRunner<PlProtocol>& ens, int r,
                      const char* what) {
  ASSERT_EQ(ref.steps(), ens.steps(r)) << what;
  ASSERT_EQ(ref.leader_count(), ens.leader_count(r)) << what;
  ASSERT_EQ(ref.last_leader_change(), ens.last_leader_change(r)) << what;
  const auto sa = ref.agents();
  const auto sb = ens.agents(r);
  for (int i = 0; i < ref.n(); ++i)
    ASSERT_EQ(sa[i], sb[i]) << what << " ring " << r << " agent " << i;
}

TEST(WordKernelEnsemble, WordPathMatchesUnbatchedReference) {
  // A ring that advances alone (one ring, or a leftover of run()'s lockstep
  // groups) runs the scalar loop on its States below kWordCrossoverN and
  // the grouped driver's one entry, WordGroupDriver::run_block, on its
  // words from there up; lockstep rings always own their words. Faults go
  // into whichever copy owns the ring, before anything unpacks it, so
  // set_agent's word-owned path (States stay stale) and State-owned path
  // both run. The multi-ring variant ends with an out-of-domain injection
  // into a word-owned ring while leftover rings own their States: the lane
  // drops without overwriting them.
  constexpr int kCrossover = EnsembleRunner<PlProtocol>::kWordCrossoverN;
  for (const int n : {4, 16, 64, 257, kCrossover - 1, kCrossover, 1024}) {
    for (const int rings : {1, 11}) {
      const auto p = PlParams::make(n, 4);
      std::vector<Runner<PlProtocol>> refs;  // scalar reference per ring
      EnsembleRunner<PlProtocol> word(p, rings);
      for (int r = 0; r < rings; ++r) {
        core::Xoshiro256pp cfg(900 + n + 31 * r);
        const auto init = pl::random_config(p, cfg);
        refs.emplace_back(p, init, 42 + r);
        word.add_ring(init, 42 + static_cast<std::uint64_t>(r));
      }
      ASSERT_TRUE(word.word_kernel_mode());
      const std::string what =
          "n=" + std::to_string(n) + " rings=" + std::to_string(rings);
      core::Xoshiro256pp faults(77);
      int mirror_faults = 0;
      int state_faults = 0;
      for (int round = 0; round < 6; ++round) {
        const std::uint64_t k = 500 + 37 * round;
        for (auto& ref : refs) ref.run_unbatched(k);
        word.run(k);
        if (rings == 1) {
          EXPECT_EQ(word.ring_owner(0), n >= kCrossover
                                            ? core::RingOwner::kMirror
                                            : core::RingOwner::kStates)
              << what;
        }
        // In-domain fault storm through both engines' set_agent.
        for (int f = 0; f < 3 * rings; ++f) {
          const int r = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(rings)));
          const int idx = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(n)));
          const PlState s = pl::random_state(p, faults);
          (word.ring_owner(r) == core::RingOwner::kMirror ? mirror_faults
                                                          : state_faults)++;
          refs[static_cast<std::size_t>(r)].set_agent(idx, s);
          word.set_agent(r, idx, s);
        }
        for (int r = 0; r < rings; ++r)
          expect_ring_same(refs[static_cast<std::size_t>(r)], word, r,
                           what.c_str());
      }
      EXPECT_TRUE(word.word_kernel_mode()) << what;  // in-domain storms
      if (rings > 1 || n >= kCrossover) {
        EXPECT_GT(mirror_faults, 0) << what;
      }
      if (n < kCrossover) {
        EXPECT_GT(state_faults, 0) << what;
      }
      if (rings == 1) continue;
      // Out of the word domain, into a word-owned ring while the leftovers
      // own their States (n < kCrossover).
      for (auto& ref : refs) ref.run_unbatched(300);
      word.run(300);
      int target = -1;
      int state_owned = 0;
      for (int r = 0; r < rings; ++r) {
        if (word.ring_owner(r) == core::RingOwner::kMirror) target = r;
        if (word.ring_owner(r) == core::RingOwner::kStates) ++state_owned;
      }
      ASSERT_GE(target, 0) << what;
      if (n < kCrossover) {
        EXPECT_GT(state_owned, 0) << what;
      }
      PlState bad;
      bad.token_b = pl::Token{1, 7, 0};  // value outside {0, 1}
      refs[static_cast<std::size_t>(target)].set_agent(3 % n, bad);
      word.set_agent(target, 3 % n, bad);
      EXPECT_FALSE(word.word_kernel_mode()) << what;
      for (auto& ref : refs) ref.run_unbatched(400);
      word.run(400);
      for (int r = 0; r < rings; ++r)
        expect_ring_same(refs[static_cast<std::size_t>(r)], word, r,
                         what.c_str());
    }
  }
}

TEST(WordKernelEnsemble, CapacityExceededKeepsScalarPath) {
  // psi_slack blows the 64-bit layout; the capacity probe must refuse and
  // the ensemble must never activate the word lane (and still be exact).
  const auto p = PlParams::make(8, 32, /*psi_slack=*/5000);
  EXPECT_FALSE(pl::PackedLayout::make(p).fits());
  // All-zero initial configuration: make_safe_config's segment-ID modulus
  // (1 << psi) has no 64-bit representation at this psi, and the protocol
  // accepts any configuration anyway.
  const std::vector<PlState> init(static_cast<std::size_t>(p.n));
  EnsembleRunner<PlProtocol> ens(p, 1);
  ens.add_ring(init, 1);
  EXPECT_FALSE(ens.word_kernel_mode());
  Runner<PlProtocol> r(p, init, 1);
  Runner<PlProtocol> ref(p, init, 1);
  r.run(200);
  ens.run(200);
  ref.run_unbatched(200);
  expect_ring_same(ref, ens, 0, "capacity-refused ensemble");
  ASSERT_EQ(r.steps(), ref.steps());
  ASSERT_EQ(r.leader_count(), ref.leader_count());
  ASSERT_EQ(r.last_leader_change(), ref.last_leader_change());
  for (int i = 0; i < p.n; ++i) ASSERT_EQ(r.agent(i), ref.agent(i));
}

TEST(WordKernelEnsemble, KernelLaneMatchesGenericLaneAndRunner) {
  // Trajectory/census/last_leader_change equivalence vs the generic lane
  // for P_PL at n in {4, 16, 64}, mid-run set_agent storms included. The
  // small-c1 regimes (16, 3) and (64, 1) pack into at most 32 bits and run
  // on the same u64 word lane. The ensemble run() path is the cross-ring
  // lockstep driver.
  for (const auto [n, c1] : {std::pair{4, 4}, std::pair{16, 4},
                             std::pair{64, 4}, std::pair{16, 3},
                             std::pair{64, 1}}) {
    const auto p = PlParams::make(n, c1);
    const int R = 11;  // not a multiple of the lane width: leftover rings
                       // (on the scalar loop at these n)
    EnsembleRunner<PlProtocol> word(p, R);
    EnsembleRunner<PlProtocol> generic(p, R);
    generic.force_generic_path();
    std::vector<Runner<PlProtocol>> refs;
    for (int t = 0; t < R; ++t) {
      core::Xoshiro256pp cfg(50 + t);
      const auto init = pl::random_config(p, cfg);
      word.add_ring(init, 500 + t);
      generic.add_ring(init, 500 + t);
      refs.emplace_back(p, init, 500 + t);
    }
    ASSERT_TRUE(word.word_kernel_mode());
    ASSERT_FALSE(generic.word_kernel_mode());
    core::Xoshiro256pp faults(123);
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t k = 400 + 91 * round;
      word.run(k);
      generic.run(k);
      for (auto& ref : refs) ref.run_unbatched(k);
      for (int t = 0; t < R; ++t) {
        expect_ring_same(refs[t], word, t, "word lane");
        expect_ring_same(refs[t], generic, t, "generic lane");
      }
      // Storm: same faults into every engine.
      for (int f = 0; f < 4; ++f) {
        const int t = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(R)));
        const int idx = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(n)));
        const PlState s = pl::random_state(p, faults);
        word.set_agent(t, idx, s);
        generic.set_agent(t, idx, s);
        refs[static_cast<std::size_t>(t)].set_agent(idx, s);
      }
    }
    EXPECT_TRUE(word.word_kernel_mode());
  }
}

TEST(WordKernelEnsemble, CrossRingLockstepMatchesPerRingAdvancement) {
  const auto p = PlParams::make(16, 4);
  const int R = 9;
  EnsembleRunner<PlProtocol> lockstep(p, R);
  EnsembleRunner<PlProtocol> per_ring(p, R);
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(70 + t);
    const auto init = pl::random_config(p, cfg);
    lockstep.add_ring(init, 900 + t);
    per_ring.add_ring(init, 900 + t);
  }
  lockstep.run(3000);  // cross-ring lanes
  for (int t = 0; t < R; ++t) per_ring.run_ring(t, 3000);  // one at a time
  for (int t = 0; t < R; ++t) {
    ASSERT_EQ(lockstep.steps(t), per_ring.steps(t));
    ASSERT_EQ(lockstep.leader_count(t), per_ring.leader_count(t));
    ASSERT_EQ(lockstep.last_leader_change(t), per_ring.last_leader_change(t));
    const auto sa = lockstep.agents(t);
    const auto sb = per_ring.agents(t);
    for (int i = 0; i < p.n; ++i) ASSERT_EQ(sa[i], sb[i]);
  }
}

TEST(WordKernelEnsemble, OutOfDomainInjectionDropsLaneNotTrajectory) {
  const auto p = PlParams::make(16, 4);
  EnsembleRunner<PlProtocol> ens(p, 2);
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < 2; ++t) {
    core::Xoshiro256pp cfg(5 + t);
    const auto init = pl::random_config(p, cfg);
    ens.add_ring(init, 40 + t);
    refs.emplace_back(p, init, 40 + t);
  }
  ens.run(500);
  for (auto& r : refs) r.run_unbatched(500);
  PlState bad;
  bad.token_b = pl::Token{1, 7, 0};  // value outside {0, 1}
  ens.set_agent(1, 3, bad);
  refs[1].set_agent(3, bad);
  EXPECT_FALSE(ens.word_kernel_mode());
  ens.run(500);
  for (auto& r : refs) r.run_unbatched(500);
  for (int t = 0; t < 2; ++t) expect_ring_same(refs[t], ens, t, "fallback");
}

TEST(WordKernelEnsemble, RunUntilEachMatchesRunnerRunUntil) {
  const auto p = PlParams::make(16, 4);
  const int R = 10;
  EnsembleRunner<PlProtocol> ens(p, R);
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(400 + t);
    const auto init = pl::random_config(p, cfg);
    ens.add_ring(init, 4000 + t);
    refs.emplace_back(p, init, 4000 + t);
  }
  const auto unique_leader = [](std::span<const PlState> c, const PlParams&) {
    int leaders = 0;
    for (const auto& s : c) leaders += s.leader == 1 ? 1 : 0;
    return leaders == 1;
  };
  const std::uint64_t max_steps = 200000;
  const auto hits = ens.run_until_each(unique_leader, max_steps, 64);
  for (int t = 0; t < R; ++t) {
    const auto want = refs[static_cast<std::size_t>(t)].run_until(
        unique_leader, max_steps, 64);
    if (want.has_value()) {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)], *want) << "ring " << t;
    } else {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)],
                EnsembleRunner<PlProtocol>::npos)
          << "ring " << t;
    }
  }
}

TEST(WordKernelCampaign, DifferentialReportsByteIdenticalAcrossThreads) {
  const auto p = PlParams::make(24, 4);
  verification::FuzzConfig cfg;
  cfg.steps = 2048;
  cfg.check_every = 64;
  cfg.fault_storms = 2;
  cfg.faults_per_storm = 2;
  const auto make_init = [](const PlParams& pp, core::Xoshiro256pp& rng) {
    return pl::random_config(pp, rng);
  };
  const auto fault = [](const PlParams& pp, core::Xoshiro256pp& rng,
                        const PlState&, int) {
    return pl::random_state(pp, rng);
  };
  const auto one = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 1, make_init, fault);
  const auto four = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 4, make_init, fault);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t t = 0; t < one.size(); ++t) {
    EXPECT_TRUE(one[t].ok) << one[t].divergence;
    EXPECT_EQ(one[t].digest, four[t].digest);
    EXPECT_EQ(one[t].final_digest, four[t].final_digest);
    EXPECT_TRUE(one[t].packed_lane);  // one-ring word lane stayed active
    EXPECT_TRUE(one[t].lockstep_lane);  // lane G rode the vector-RNG driver
  }
}

}  // namespace
}  // namespace ppsim
