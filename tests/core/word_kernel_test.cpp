// The word-kernel engine lanes (core::WordGroupDriver wired into
// Runner::run and EnsembleRunner): bit-identity against the scalar
// reference paths, fault-storm behavior (in-domain fast path and the
// documented fall-back-to-scalar on out-of-domain states), the cross-ring
// lockstep ensemble lane, capacity-probe gating, and thread-count
// byte-identity of the differential campaign driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"
#include "verification/differential.hpp"

namespace ppsim {
namespace {

using core::EnsembleRunner;
using core::Runner;
using pl::PlParams;
using pl::PlProtocol;
using pl::PlState;

static_assert(Runner<PlProtocol>::kWordKernel,
              "P_PL must satisfy the word-kernel concept");
static_assert(EnsembleRunner<PlProtocol>::kWordable);
static_assert(!EnsembleRunner<PlProtocol>::kPackable,
              "P_PL's state space must be far beyond the LUT lane");

void expect_same(const Runner<PlProtocol>& a, const Runner<PlProtocol>& b,
                 const char* what) {
  ASSERT_EQ(a.steps(), b.steps()) << what;
  ASSERT_EQ(a.leader_count(), b.leader_count()) << what;
  ASSERT_EQ(a.last_leader_change(), b.last_leader_change()) << what;
  const auto sa = a.agents();
  const auto sb = b.agents();
  for (int i = 0; i < a.n(); ++i)
    ASSERT_EQ(sa[i], sb[i]) << what << " agent " << i;
}

TEST(WordKernelRunner, WordPathMatchesUnbatchedReference) {
  for (const int n : {4, 16, 64, 257, 1024}) {
    const auto p = PlParams::make(n, 4);
    core::Xoshiro256pp cfg(900 + n);
    const auto init = pl::random_config(p, cfg);
    Runner<PlProtocol> ref(p, init, 42);   // scalar reference
    Runner<PlProtocol> word(p, init, 42);  // word kernel
    word.force_word_path();  // past the small-n engagement gate
    ASSERT_TRUE(word.word_path_active());
    core::Xoshiro256pp faults(77);
    for (int round = 0; round < 6; ++round) {
      const std::uint64_t k = 500 + 37 * round;
      ref.run_unbatched(k);
      word.run(k);
      expect_same(ref, word, "word vs unbatched");
      // In-domain fault storm through both engines' set_agent.
      for (int f = 0; f < 3; ++f) {
        const int idx = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(n)));
        const PlState s = pl::random_state(p, faults);
        ref.set_agent(idx, s);
        word.set_agent(idx, s);
      }
      expect_same(ref, word, "word vs unbatched after storm");
    }
    EXPECT_TRUE(word.word_path_active());  // in-domain storms keep the lane
  }
}

TEST(WordKernelRunner, ForceScalarPathIsBitIdentical) {
  const auto p = PlParams::make(64, 4);
  const auto init = pl::make_safe_config(p);
  Runner<PlProtocol> word(p, init, 7);
  word.force_word_path();
  Runner<PlProtocol> scalar(p, init, 7);
  scalar.force_scalar_path();
  EXPECT_FALSE(scalar.word_path_active());
  word.run(5000);
  scalar.run(5000);
  expect_same(word, scalar, "forced scalar vs word");
}

TEST(WordKernelRunner, OutOfDomainInjectionDropsToScalarExactly) {
  const auto p = PlParams::make(32, 4);
  core::Xoshiro256pp cfg(3);
  const auto init = pl::random_config(p, cfg);
  Runner<PlProtocol> ref(p, init, 9);
  Runner<PlProtocol> word(p, init, 9);
  word.force_word_path();
  word.run(1000);
  ref.run_unbatched(1000);
  PlState bad;
  bad.dist = 60000;  // far outside [0, 2psi)
  ref.set_agent(5, bad);
  word.set_agent(5, bad);
  word.run(1000);  // round-trip check fails -> permanent scalar fallback
  ref.run_unbatched(1000);
  EXPECT_FALSE(word.word_path_active());
  word.force_word_path();  // the fallback is permanent: no resurrection
  EXPECT_FALSE(word.word_path_active());
  expect_same(ref, word, "after out-of-domain fault");
}

TEST(WordKernelRunner, EngagementGateRoutesSmallRingsToScalar) {
  // The word path only engages by default when the grouped driver's
  // disjointness estimate clears the threshold; tiny rings go scalar (the
  // honest sub-1x cells), big rings engage, and force_word_path restores
  // the kernel — bit-identically — wherever it is structurally capable.
  const auto p_small = PlParams::make(16, 4);
  core::Xoshiro256pp cfg(31);
  const auto init = pl::random_config(p_small, cfg);
  Runner<PlProtocol> gated(p_small, init, 13);
  EXPECT_FALSE(gated.word_path_active());  // capable, but below threshold
  Runner<PlProtocol> ref(p_small, init, 13);
  gated.run(2000);
  ref.run_unbatched(2000);
  expect_same(ref, gated, "gated-off runner (scalar batched)");
  gated.force_word_path();
  EXPECT_TRUE(gated.word_path_active());
  gated.run(2000);
  ref.run_unbatched(2000);
  expect_same(ref, gated, "forced back onto the word kernel");

  const auto p_big = PlParams::make(1024, 4);
  const std::vector<PlState> zeros(static_cast<std::size_t>(p_big.n));
  Runner<PlProtocol> big(p_big, zeros, 13);
  EXPECT_TRUE(big.word_path_active());  // engaged without forcing
}

TEST(WordKernelRunner, CapacityExceededKeepsScalarPath) {
  // psi_slack blows the 64-bit layout; the capacity probe must refuse and
  // the runner must never activate the word path (and still be exact).
  const auto p = PlParams::make(8, 32, /*psi_slack=*/5000);
  EXPECT_FALSE(pl::PackedLayout::make(p).fits());
  // All-zero initial configuration: make_safe_config's segment-ID modulus
  // (1 << psi) has no 64-bit representation at this psi, and the protocol
  // accepts any configuration anyway.
  const std::vector<PlState> init(static_cast<std::size_t>(p.n));
  Runner<PlProtocol> r(p, init, 1);
  EXPECT_FALSE(r.word_path_active());
  Runner<PlProtocol> ref(p, init, 1);
  r.run(200);
  ref.run_unbatched(200);
  expect_same(r, ref, "capacity-refused runner");
  EnsembleRunner<PlProtocol> ens(p, 1);
  ens.add_ring(init, 1);
  EXPECT_FALSE(ens.word_kernel_mode());
}

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
    EXPECT_TRUE(one[t].packed_lane);  // ensemble kernel lane participated
    EXPECT_TRUE(one[t].word_lane);    // Runner word path stayed active
    EXPECT_TRUE(one[t].lockstep_lane);  // lane G rode the vector-RNG driver
  }
}

}  // namespace
}  // namespace ppsim
