// The stream-tag registry (core/stream_tags.hpp) IS the repo's determinism
// contract: every committed trajectory — BENCH artifacts, golden tests,
// cross-engine bit-identity — was produced under these exact tag values and
// derivation scheme. This suite pins all of it at runtime, mirroring the
// registry's compile-time structural checks, so any drift (a re-valued tag,
// a "cleaner" mixing step in stream_seed/derive_seed) fails loudly here
// instead of silently re-seeding every experiment in the repo.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/modk.hpp"
#include "core/ensemble.hpp"
#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "core/stream_tags.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"

namespace {

using namespace ppsim;
using namespace ppsim::core;

// --- Registry values and structure ---------------------------------------

TEST(StreamTags, RegisteredValuesArePinned) {
  // Changing any of these re-seeds every stream derived from it; the
  // registry header documents the blast radius. This is the golden copy.
  EXPECT_EQ(streams::kConfig, 0xC0FFEEULL);
  EXPECT_EQ(streams::kFaults, 0xFA5EEDULL);
  EXPECT_EQ(streams::kLoss, 0x1055ULL);
  EXPECT_EQ(streams::kLockstepDecoy, 0x10C5ULL);
  EXPECT_EQ(streams::kDifferentialTrial, 0xD1FFULL);
  EXPECT_EQ(streams::kDigest, 0x5EEDEDULL);
  EXPECT_EQ(streams::kFailpoint, 0xFA17ULL);
  EXPECT_EQ(streams::kRetryJitter, 0xB0FFULL);
  EXPECT_EQ(streams::kCount, 8);
  EXPECT_EQ(kLossStreamTag, streams::kLoss);
}

TEST(StreamTags, PairwiseDistinctAndHammingFloor) {
  // Runtime mirror of the registry's static_asserts (std::popcount as the
  // independent implementation).
  int min_distance = 64;
  for (int i = 0; i < streams::kCount; ++i) {
    for (int j = i + 1; j < streams::kCount; ++j) {
      EXPECT_NE(streams::kAll[i], streams::kAll[j]) << i << " vs " << j;
      min_distance = std::min(
          min_distance, std::popcount(streams::kAll[i] ^ streams::kAll[j]));
    }
  }
  EXPECT_GE(min_distance, streams::kMinTagHammingDistance);
  // The floor is the *real* minimum, not slack: kLoss/kLockstepDecoy sit
  // exactly on it. If this fails the floor can (and should) be raised.
  EXPECT_EQ(min_distance, streams::kMinTagHammingDistance);
}

// --- Derivation scheme golden values --------------------------------------

TEST(StreamTags, StreamSeedIsTheHistoricalXor) {
  // stream_seed must stay a plain XOR: the committed recovery artifacts
  // and every golden trajectory were produced under seed ^ tag.
  constexpr std::uint64_t s = 0x0123456789ABCDEFULL;
  static_assert(stream_seed(s, streams::kConfig) == (s ^ 0xC0FFEEULL));
  EXPECT_EQ(stream_seed(s, streams::kFaults), s ^ 0xFA5EEDULL);
  EXPECT_EQ(stream_seed(0, streams::kLoss), 0x1055ULL);
}

TEST(StreamTags, DeriveSeedGoldenValues) {
  EXPECT_EQ(derive_seed(1, 2, 3), 0x92726824c964f498ULL);
  EXPECT_EQ(derive_seed(42, streams::kDifferentialTrial, 0),
            0x5474b128516f881fULL);
  EXPECT_EQ(derive_seed(42, streams::kLockstepDecoy, 7),
            0x5e4f0eda5def9de3ULL);
}

TEST(StreamTags, FirstDrawsOfEachTrialStreamArePinned) {
  // End-to-end: trial seed -> registered side stream -> first xoshiro
  // output. Pins SplitMix64 state expansion + xoshiro256++ + the tags in
  // one shot.
  const std::uint64_t trial = derive_seed(5, 1, 0);
  EXPECT_EQ(Xoshiro256pp(stream_seed(trial, streams::kConfig))(),
            0x3b5cf3c2aa93a23eULL);
  EXPECT_EQ(Xoshiro256pp(stream_seed(trial, streams::kFaults))(),
            0x116957d6b9d234edULL);
  EXPECT_EQ(Xoshiro256pp(stream_seed(trial, streams::kLoss))(),
            0x2ed8b61ac5cf5f6bULL);
}

// --- Cross-engine fault-stream normalization (satellite regression) -------
//
// Runner and EnsembleRunner must derive the omission-loss stream of a ring
// seeded `s` identically — stream_seed(s, streams::kLoss) — for every way
// the stream can be (re)established: at construction, via
// set_scheduler_faults before stepping, and via set_scheduler_faults after
// rings already exist. A divergence in any path shows up as different
// faulted trajectories on the same seeds. `faults` defaults to loss only;
// a bias table goes through the same derivation.

template <typename P>
void expect_cross_engine_fault_identity(
    const typename P::Params& params,
    std::span<const typename P::State> initial, std::uint64_t steps,
    const SchedulerFaults& faults = {.loss_p = 0.25, .arc_weights = {}}) {
  constexpr int kRings = 3;
  EnsembleRunner<P> ensemble(params, kRings);
  std::vector<std::uint64_t> seeds;
  for (int r = 0; r < kRings; ++r) {
    const auto seed = derive_seed(99, streams::kDifferentialTrial,
                                  static_cast<std::uint64_t>(r));
    seeds.push_back(seed);
    ensemble.add_ring(initial, seed);
  }
  // Re-derivation path: faults configured AFTER the rings exist.
  ensemble.set_scheduler_faults(faults);

  for (int r = 0; r < kRings; ++r) {
    Runner<P> runner(params,
                           std::vector<typename P::State>(initial.begin(),
                                                          initial.end()),
                           seeds[static_cast<std::size_t>(r)]);
    runner.set_scheduler_faults(faults);
    runner.run(steps);
    ensemble.run_ring(r, steps);
    const auto ring = ensemble.agents(r);
    ASSERT_EQ(ring.size(), runner.agents().size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ASSERT_TRUE(ring[i] == runner.agents()[i])
          << "ring " << r << " agent " << i
          << ": faulted trajectories diverged — loss-stream derivation is "
             "not normalized across engines";
    }
    EXPECT_EQ(ensemble.steps(r), runner.steps());
  }
}

TEST(StreamTags, CrossEngineFaultStreamBitIdentityModk) {
  const auto params = baselines::ModkParams::make(12, 5);
  Xoshiro256pp rng(stream_seed(derive_seed(7, 3, 0), streams::kConfig));
  std::vector<baselines::Modk::State> initial(
      static_cast<std::size_t>(params.n));
  for (auto& s : initial) {
    s.leader = static_cast<std::uint8_t>(rng.bounded(2));
    s.lab = static_cast<std::uint8_t>(
        rng.bounded(static_cast<std::uint64_t>(params.k)));
  }
  expect_cross_engine_fault_identity<baselines::Modk>(params, initial, 4096);
}

TEST(StreamTags, CrossEngineFaultStreamBitIdentityPl) {
  const auto params = pl::PlParams::make(8, 2);
  Xoshiro256pp rng(stream_seed(derive_seed(7, 3, 1), streams::kConfig));
  std::vector<pl::PlProtocol::State> initial(
      static_cast<std::size_t>(params.n));
  expect_cross_engine_fault_identity<pl::PlProtocol>(params, initial, 4096);

  // Loss plus a biased arc table (zero-weight arcs included), from a
  // random configuration.
  const auto biased_params = pl::PlParams::make(10, 4);
  SchedulerFaults biased;
  biased.loss_p = 0.2;
  for (int a = 0; a < arc_count(biased_params.n, pl::PlProtocol::directed);
       ++a)
    biased.arc_weights.push_back(a % 4 == 0 ? 0.0 : 1.0 + a % 3);
  const auto random_initial = pl::random_config(biased_params, rng);
  expect_cross_engine_fault_identity<pl::PlProtocol>(
      biased_params, random_initial, 4000, biased);
}

}  // namespace
