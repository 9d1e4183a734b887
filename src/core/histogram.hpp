// Log-bucketed histogram for lifetime/latency distributions (token
// trajectories, signal lifetimes, recovery times).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace ppsim::core {

/// Power-of-two bucketed histogram over [0, 2^63).
class LogHistogram {
 public:
  void add(std::uint64_t value) {
    ++count_;
    sum_ += static_cast<double>(value);
    max_ = std::max(max_, value);
    min_ = count_ == 1 ? value : std::min(min_, value);
    std::size_t bucket = 0;
    while ((1ULL << bucket) <= value && bucket < 63) ++bucket;
    if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
    ++buckets_[bucket];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  /// Bucket-resolution quantile, with the endpoint and rank conventions
  /// pinned (tests/core/histogram_test.cpp):
  ///
  ///   * q <= 0 returns min() and q >= 1 returns max() — the exact sample
  ///     extremes, not bucket bounds. (Before the fix, q = 0 returned the
  ///     first non-empty bucket's *upper* bound: for a histogram of the
  ///     single value 4 it answered 7.)
  ///   * otherwise: let k = ceil(q * count), the 1-indexed rank of the
  ///     q-quantile. The result is the upper bound of the first bucket whose
  ///     cumulative count reaches k (cumulative >= k — an exact bucket
  ///     boundary hit selects the bucket that *contains* the k-th smallest
  ///     sample, not the next one), clamped into [min(), max()] so a
  ///     sparsely-filled extreme bucket cannot report a value outside the
  ///     observed range.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    auto k = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    k = std::clamp<std::uint64_t>(k, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen >= k) {
        const std::uint64_t hi = b == 0 ? 0 : (1ULL << b) - 1;
        return std::clamp(hi, min_, max_);
      }
    }
    return max_;
  }

  /// ASCII rendition, one row per non-empty bucket.
  [[nodiscard]] std::string render(int width = 40) const {
    std::string out;
    std::uint64_t peak = 0;
    for (auto b : buckets_) peak = std::max(peak, b);
    if (peak == 0) return "(empty)\n";
    char line[160];
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b] == 0) continue;
      const int bar = static_cast<int>(
          static_cast<double>(buckets_[b]) * width /
          static_cast<double>(peak));
      const unsigned long long lo = b == 0 ? 0 : (1ULL << (b - 1));
      const unsigned long long hi = (1ULL << b) - 1;
      std::snprintf(line, sizeof line, "[%10llu, %10llu] %8llu |", lo, hi,
                    static_cast<unsigned long long>(buckets_[b]));
      out += line;
      out.append(static_cast<std::size_t>(bar), '#');
      out += '\n';
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace ppsim::core
