#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "core/statistics.hpp"

namespace ppsim::core {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro, ReproducibleStreams) {
  Xoshiro256pp a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Xoshiro, BoundedStaysInRange) {
  Xoshiro256pp rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng.bounded(bound);
      ASSERT_LT(v, bound);
    }
  }
}

TEST(Xoshiro, BoundedOneAlwaysZero) {
  Xoshiro256pp rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro, BoundedIsApproximatelyUniform) {
  Xoshiro256pp rng(2024);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBuckets)];
  // chi-square with 15 dof: 99.999-percentile ~ 44; use a generous bound.
  EXPECT_LT(chi_square_uniform(counts), 60.0);
}

TEST(Xoshiro, Uniform01InRange) {
  Xoshiro256pp rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, CoinIsFair) {
  Xoshiro256pp rng(31);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.coin() ? 1 : 0;
  EXPECT_NEAR(heads / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, HoistedThresholdStreamMatchesBoundedStream) {
  // The engines' scalar loops depend on this: draws with the rejection
  // threshold hoisted out of the loop must consume the same generator stream
  // and produce the same values as repeated bounded().
  for (std::uint64_t bound : {1ULL, 2ULL, 5ULL, 64ULL, 1000003ULL,
                              (1ULL << 32)}) {
    Xoshiro256pp hoisted_rng(77), step_rng(77);
    const std::uint64_t threshold = Xoshiro256pp::rejection_threshold(bound);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ(hoisted_rng.bounded_with_threshold(bound, threshold),
                step_rng.bounded(bound))
          << "bound=" << bound << " i=" << i;
    }
    // Streams stay aligned after the block (same number of raw draws).
    ASSERT_EQ(hoisted_rng(), step_rng());
  }
}

TEST(Xoshiro, BoundedWithThresholdMatchesBounded) {
  for (std::uint64_t bound : {3ULL, 7ULL, 1024ULL, 999999937ULL}) {
    Xoshiro256pp a(123), b(123);
    const std::uint64_t threshold = Xoshiro256pp::rejection_threshold(bound);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.bounded_with_threshold(bound, threshold), b.bounded(bound));
    }
  }
}

TEST(Xoshiro, BoundedWithThresholdIsApproximatelyUniform) {
  // Chi-square uniformity of the hoisted-threshold arc sampler, including a
  // non-power-of-two bucket count (the rejection path must not bias it).
  for (int buckets : {16, 13}) {
    Xoshiro256pp rng(20230515 + buckets);
    constexpr int kDrawsPerBucket = 10000;
    const auto bound = static_cast<std::uint64_t>(buckets);
    const std::uint64_t threshold = Xoshiro256pp::rejection_threshold(bound);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(buckets), 0);
    for (int i = 0; i < buckets * kDrawsPerBucket; ++i) {
      const std::uint64_t v = rng.bounded_with_threshold(bound, threshold);
      ASSERT_LT(v, bound);
      ++counts[v];
    }
    // 12-15 dof: 99.999-percentile < 48; use a generous bound.
    EXPECT_LT(chi_square_uniform(counts), 60.0) << "buckets=" << buckets;
  }
}

// The lane-parallel engine's whole contract is per-column bit-identity:
// column r of XoshiroLanes loaded from engines e[0..G) must replay stream
// e[r] exactly — raw draws, bounded draws (including every Lemire
// rejection redraw), and the stored-back stream position.
template <typename V>
void check_lanes_bit_identity() {
  constexpr int G = kLanesOf<V>;
  // Includes bounds with negligible rejection probability and a bound just
  // past 2^63 whose rejection threshold fires on ~half of all raw draws —
  // the redraw fixup path is load-bearing there, not theoretical.
  for (const std::uint64_t bound :
       {3ULL, 1024ULL, 999999937ULL, (1ULL << 32), (1ULL << 63) + 1ULL,
        ~0ULL - 5ULL}) {
    const std::uint64_t threshold = Xoshiro256pp::rejection_threshold(bound);
    Xoshiro256pp scalar[G];
    Xoshiro256pp column[G];
    for (int r = 0; r < G; ++r) {
      const std::uint64_t seed = derive_seed(4242, bound, r);
      scalar[r] = Xoshiro256pp(seed);
      column[r] = Xoshiro256pp(seed);
    }
    XoshiroLanes<V> lanes;
    lanes.load(column);
    for (int i = 0; i < 4000; ++i) {
      const V hi = lanes.bounded_with_threshold(bound, threshold);
      for (int r = 0; r < G; ++r) {
        ASSERT_EQ(hi[r], scalar[r].bounded_with_threshold(bound, threshold))
            << "bound=" << bound << " draw=" << i << " column=" << r;
      }
    }
    // Stored-back streams sit at the same position as the scalar ones:
    // the next raw draw agrees per column.
    lanes.store(column);
    for (int r = 0; r < G; ++r)
      ASSERT_EQ(column[r](), scalar[r]()) << "bound=" << bound << " r=" << r;
  }
}

TEST(XoshiroLanes, FourColumnsBitIdenticalToScalarStreams) {
  check_lanes_bit_identity<WordVec>();
}

TEST(XoshiroLanes, EightColumnsBitIdenticalToScalarStreams) {
  check_lanes_bit_identity<WordVec8>();
}

TEST(XoshiroLanes, RawNextMatchesScalarOperator) {
  Xoshiro256pp scalar[kWordLanes];
  Xoshiro256pp column[kWordLanes];
  for (int r = 0; r < kWordLanes; ++r)
    scalar[r] = column[r] = Xoshiro256pp(derive_seed(5, 0, r));
  XoshiroLanes<WordVec> lanes;
  lanes.load(column);
  for (int i = 0; i < 1000; ++i) {
    const WordVec v = lanes.next();
    for (int r = 0; r < kWordLanes; ++r) ASSERT_EQ(v[r], scalar[r]());
  }
}

TEST(DeriveSeed, DistinctPerIndexAndTag) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t tag = 0; tag < 10; ++tag)
    for (std::uint64_t i = 0; i < 100; ++i)
      seeds.insert(derive_seed(99, tag, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeed, StableAcrossCalls) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

}  // namespace
}  // namespace ppsim::core
