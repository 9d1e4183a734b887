#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/histogram.hpp"

namespace ppsim::core {
namespace {

/// Brute-force mirror of the pinned quantile convention: sort the sample,
/// take the k = ceil(q * count)-th smallest (1-indexed), map it to its
/// bucket's upper bound, clamp into [min, max]; endpoints are the exact
/// sample extremes.
std::uint64_t ref_quantile(std::vector<std::uint64_t> sample, double q) {
  std::sort(sample.begin(), sample.end());
  if (q <= 0.0) return sample.front();
  if (q >= 1.0) return sample.back();
  auto k = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  k = std::clamp<std::uint64_t>(k, 1, sample.size());
  const std::uint64_t v = sample[static_cast<std::size_t>(k - 1)];
  std::size_t b = 0;
  while ((1ULL << b) <= v && b < 63) ++b;
  const std::uint64_t hi = b == 0 ? 0 : (1ULL << b) - 1;
  return std::clamp(hi, sample.front(), sample.back());
}

TEST(LogHistogram, BasicAccounting) {
  LogHistogram h;
  for (std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 100ULL, 1000ULL}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), (0 + 1 + 2 + 3 + 100 + 1000) / 6.0, 1e-9);
}

TEST(LogHistogram, QuantileMonotone) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 1024; ++v) h.add(v);
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.max());
}

TEST(LogHistogram, QuantileBucketBounds) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(5);  // all in bucket [4, 7]
  EXPECT_GE(h.quantile(0.5), 4u);
  EXPECT_LE(h.quantile(0.5), 7u);
}

TEST(LogHistogram, QuantileEndpointsAreExactExtremes) {
  // The q=0 off-by-one this pins down: a single sample of 4 lives in bucket
  // [4, 7]; quantile(0) must answer min() == 4, not the bucket bound 7.
  LogHistogram h;
  h.add(4);
  EXPECT_EQ(h.quantile(0.0), 4u);
  EXPECT_EQ(h.quantile(1.0), 4u);

  LogHistogram wide;
  for (std::uint64_t v : {3ULL, 10ULL, 1000ULL}) wide.add(v);
  EXPECT_EQ(wide.quantile(0.0), 3u);     // min, not 3's bucket bound
  EXPECT_EQ(wide.quantile(1.0), 1000u);  // max, not 1000's bucket bound 1023
  EXPECT_EQ(wide.quantile(-0.5), 3u);    // out-of-range q clamps to endpoint
  EXPECT_EQ(wide.quantile(1.5), 1000u);
}

TEST(LogHistogram, QuantileRankConventionPinned) {
  // Exact boundary hit: with two samples {1, 8}, q=0.5 has rank
  // k = ceil(0.5 * 2) = 1 — the *first* sample's bucket, not the second.
  LogHistogram h;
  h.add(1);
  h.add(8);
  EXPECT_EQ(h.quantile(0.5), 1u);    // bucket [1,1] upper bound
  EXPECT_EQ(h.quantile(0.51), 8u);   // rank 2 -> bucket [8,15], clamp to max
}

TEST(LogHistogram, QuantileClampedIntoObservedRange) {
  // Samples {9, 9, 10}: bucket [8, 15] holds all three, but min/max are
  // 9/10 — every quantile must stay inside [9, 10].
  LogHistogram h;
  h.add(9);
  h.add(9);
  h.add(10);
  for (double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    EXPECT_GE(h.quantile(q), 9u) << "q=" << q;
    EXPECT_LE(h.quantile(q), 10u) << "q=" << q;
  }
}

TEST(LogHistogram, QuantileExhaustiveSmallCounts) {
  // Every multiset (with repetition, order-free) of up to 4 samples drawn
  // from a value set that crosses several bucket boundaries, against the
  // brute-force reference, over a q-grid including the endpoints and exact
  // rank boundaries.
  const std::vector<std::uint64_t> values{0, 1, 2, 3, 5, 9, 17, 100};
  const std::vector<double> qs{0.0, 0.1, 0.25, 1.0 / 3, 0.5, 2.0 / 3,
                               0.75, 0.9, 1.0};
  const std::size_t v = values.size();
  for (std::size_t count = 1; count <= 4; ++count) {
    std::vector<std::size_t> idx(count, 0);
    for (;;) {
      if (std::is_sorted(idx.begin(), idx.end())) {  // order-free: multisets
        LogHistogram h;
        std::vector<std::uint64_t> sample;
        for (std::size_t i : idx) {
          h.add(values[i]);
          sample.push_back(values[i]);
        }
        for (double q : qs) {
          EXPECT_EQ(h.quantile(q), ref_quantile(sample, q))
              << "count=" << count << " q=" << q << " first=" << sample[0];
        }
      }
      // Odometer over value indices.
      std::size_t d = 0;
      while (d < count && ++idx[d] == v) idx[d++] = 0;
      if (d == count) break;
    }
  }
}

TEST(LogHistogram, RenderNonEmpty) {
  LogHistogram h;
  h.add(10);
  h.add(1000);
  const std::string r = h.render();
  EXPECT_NE(r.find('#'), std::string::npos);
  LogHistogram empty;
  EXPECT_EQ(empty.render(), "(empty)\n");
}

}  // namespace
}  // namespace ppsim::core
