// The stream-tag registry (core/stream_tags.hpp) IS the repo's determinism
// contract: every committed trajectory — BENCH artifacts, golden tests,
// cross-engine bit-identity — was produced under these exact tag values and
// derivation scheme. This suite pins all of it at runtime, mirroring the
// registry's compile-time structural checks, so any drift (a re-valued tag,
// a "cleaner" mixing step in stream_seed/derive_seed) fails loudly here
// instead of silently re-seeding every experiment in the repo.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/rng.hpp"
#include "core/stream_tags.hpp"

namespace {

using namespace ppsim;
using namespace ppsim::core;

// --- Registry values and structure ---------------------------------------

TEST(StreamTags, RegisteredValuesArePinned) {
  // Changing any of these re-seeds every stream derived from it; the
  // registry header documents the blast radius. This is the golden copy.
  EXPECT_EQ(streams::kConfig, 0xC0FFEEULL);
  EXPECT_EQ(streams::kFaults, 0xFA5EEDULL);
  EXPECT_EQ(streams::kLockstepDecoy, 0x10C5ULL);
  EXPECT_EQ(streams::kDifferentialTrial, 0xD1FFULL);
  EXPECT_EQ(streams::kDigest, 0x5EEDEDULL);
  EXPECT_EQ(streams::kFailpoint, 0xFA17ULL);
  EXPECT_EQ(streams::kRetryJitter, 0xB0FFULL);
  EXPECT_EQ(streams::kCount, 7);
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
  // The floor is the *real* minimum, not slack: kDifferentialTrial and
  // kRetryJitter sit exactly on it. If this fails the floor can (and
  // should) be raised.
  EXPECT_EQ(min_distance, streams::kMinTagHammingDistance);
}

// --- Derivation scheme golden values --------------------------------------

TEST(StreamTags, StreamSeedIsTheHistoricalXor) {
  // stream_seed must stay a plain XOR: the committed recovery artifacts
  // and every golden trajectory were produced under seed ^ tag.
  constexpr std::uint64_t s = 0x0123456789ABCDEFULL;
  static_assert(stream_seed(s, streams::kConfig) == (s ^ 0xC0FFEEULL));
  EXPECT_EQ(stream_seed(s, streams::kFaults), s ^ 0xFA5EEDULL);
  EXPECT_EQ(stream_seed(0, streams::kRetryJitter), 0xB0FFULL);
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
}

}  // namespace
