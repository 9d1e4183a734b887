// Analysis layer: experiment driver, scaling fits, state accounting and the
// injective state packing that bounds every generated state by |Q(n)|.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "analysis/experiment.hpp"
#include "analysis/scaling.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::analysis {
namespace {

TEST(Experiment, MeasureConvergenceCollectsAllTrials) {
  const auto p = pl::PlParams::make(8, 2);
  const auto stats = measure_convergence_parallel<pl::PlProtocol>(
      p, [&](core::Xoshiro256pp&) { return pl::make_fresh_config(p); },
      pl::SafePredicate{}, 6, 50'000'000ULL, 1, 1, /*threads=*/1);
  EXPECT_EQ(stats.trials, 6);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.raw.size(), 6u);
  EXPECT_GT(stats.steps.median, 0.0);
}

TEST(Experiment, SeedsDecorrelateTrials) {
  const auto p = pl::PlParams::make(12, 4);
  const auto stats = measure_convergence_parallel<pl::PlProtocol>(
      p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
      pl::SafePredicate{}, 8, 100'000'000ULL, 3, 3, /*threads=*/1);
  ASSERT_EQ(stats.raw.size(), 8u);
  std::unordered_set<std::uint64_t> distinct(stats.raw.begin(),
                                             stats.raw.end());
  EXPECT_GT(distinct.size(), 1u);  // identical seeds would all coincide
}

TEST(Experiment, ParallelMatchesSerialBitIdentically) {
  // The acceptance bar for the trial-parallel engine: identical raw
  // hitting-time vectors (order included) for every thread count, on >= 100
  // trials, against one caller-only worker. n is kept small so the whole
  // matrix stays fast.
  const auto p = pl::PlParams::make(8, 2);
  auto gen = [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); };
  const int trials = 120;
  const auto serial = measure_convergence_parallel<pl::PlProtocol>(
      p, gen, pl::SafePredicate{}, trials, 50'000'000ULL, 11, 5,
      /*threads=*/1);
  ASSERT_EQ(serial.trials, trials);
  for (int threads : {2, 3, 4, 7}) {
    const auto par = measure_convergence_parallel<pl::PlProtocol>(
        p, gen, pl::SafePredicate{}, trials, 50'000'000ULL, 11, 5, threads);
    EXPECT_EQ(par.trials, serial.trials) << "threads=" << threads;
    EXPECT_EQ(par.failures, serial.failures) << "threads=" << threads;
    EXPECT_EQ(par.raw, serial.raw) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(par.steps.mean, serial.steps.mean)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(par.steps.median, serial.steps.median)
        << "threads=" << threads;
  }
}

TEST(Experiment, ParallelCountsFailures) {
  const auto p = pl::PlParams::make(16, 4);
  for (int threads : {1, 3}) {
    const auto stats = measure_convergence_parallel<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
        pl::SafePredicate{}, 4, /*max_steps=*/10, 2, 2, threads);
    EXPECT_EQ(stats.failures, 4) << "threads=" << threads;
    EXPECT_TRUE(stats.raw.empty()) << "threads=" << threads;
  }
}

TEST(Experiment, ScalingSweepIsDeterministic) {
  const std::vector<int> ns = {4, 8};
  auto run_sweep = [&](int threads) {
    return measure_scaling_sweep<pl::PlProtocol>(
        ns, [](int n) { return pl::PlParams::make(n, 2); },
        [](const pl::PlParams& pp, core::Xoshiro256pp& rng) {
          return pl::random_config(pp, rng);
        },
        pl::SafePredicate{}, 5, /*seed_base=*/21, /*tag_base=*/3, threads);
  };
  const auto a = run_sweep(1);
  const auto b = run_sweep(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].stats.raw, b[i].stats.raw);
  }
}

TEST(Experiment, CheckEveryQuantizesHittingTimes) {
  // check_every is the predicate granularity: reported hitting times land on
  // multiples of it, for one worker and for three identically.
  const auto p = pl::PlParams::make(8, 2);
  auto gen = [&](core::Xoshiro256pp&) { return pl::make_fresh_config(p); };
  const std::uint64_t check_every = 1'000;
  const auto serial = measure_convergence_parallel<pl::PlProtocol>(
      p, gen, pl::SafePredicate{}, 6, 50'000'000ULL, 4, 4, /*threads=*/1,
      check_every);
  ASSERT_EQ(serial.raw.size(), 6u);
  for (std::uint64_t h : serial.raw) EXPECT_EQ(h % check_every, 0u);
  const auto par = measure_convergence_parallel<pl::PlProtocol>(
      p, gen, pl::SafePredicate{}, 6, 50'000'000ULL, 4, 4, /*threads=*/3,
      check_every);
  EXPECT_EQ(par.raw, serial.raw);
}

TEST(Scaling, FitRecoversQuadratic) {
  std::vector<ScalingPoint> pts;
  for (int n : {8, 16, 32, 64}) {
    ScalingPoint pt;
    pt.n = n;
    pt.stats.raw = {static_cast<std::uint64_t>(5.0 * n * n)};
    pt.stats.steps = core::summarize_u64(pt.stats.raw);
    pts.push_back(pt);
  }
  const auto fit = fit_median_scaling(pts);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-6);
  EXPECT_NEAR(fit.constant, 5.0, 1e-3);
}

TEST(Scaling, Normalizations) {
  ScalingPoint pt;
  pt.n = 16;
  pt.stats.raw = {1024};
  pt.stats.steps = core::summarize_u64(pt.stats.raw);
  EXPECT_DOUBLE_EQ(normalized_n2(pt), 4.0);
  EXPECT_DOUBLE_EQ(normalized_n3(pt), 0.25);
  EXPECT_DOUBLE_EQ(normalized_n2logn(pt), 1.0);  // lg 16 = 4
}

TEST(Scaling, NormalizationsAreNaNWhenAllTrialsFailed) {
  // An all-failure point has no hitting times; its Summary median of 0 is an
  // artifact, and normalizing it used to print a plausible-looking 0 row.
  ScalingPoint pt;
  pt.n = 16;
  pt.stats.trials = 4;
  pt.stats.failures = 4;  // raw stays empty
  pt.stats.steps = core::summarize_u64(pt.stats.raw);
  EXPECT_TRUE(std::isnan(normalized_n2(pt)));
  EXPECT_TRUE(std::isnan(normalized_n3(pt)));
  EXPECT_TRUE(std::isnan(normalized_n2logn(pt)));
}

TEST(Scaling, FitSkipsAllFailureAndZeroMedianPoints) {
  std::vector<ScalingPoint> pts;
  for (int n : {8, 16, 32, 64}) {
    ScalingPoint pt;
    pt.n = n;
    pt.stats.raw = {static_cast<std::uint64_t>(5.0 * n * n)};
    pt.stats.steps = core::summarize_u64(pt.stats.raw);
    pts.push_back(pt);
  }
  ScalingPoint all_failed;
  all_failed.n = 128;
  all_failed.stats.trials = 3;
  all_failed.stats.failures = 3;
  pts.push_back(all_failed);
  ScalingPoint zero_median;  // pred held at step 0 for every trial
  zero_median.n = 256;
  zero_median.stats.raw = {0, 0, 0};
  zero_median.stats.steps = core::summarize_u64(zero_median.stats.raw);
  pts.push_back(zero_median);

  const auto fit = fit_median_scaling(pts);
  EXPECT_TRUE(fit.valid);
  EXPECT_EQ(fit.skipped, 2);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-6);

  // Only degenerate points left -> a clearly-marked invalid fit, not NaN
  // propagating silently out of a Release build.
  const std::vector<ScalingPoint> degenerate(pts.end() - 2, pts.end());
  const auto bad = fit_median_scaling(degenerate);
  EXPECT_FALSE(bad.valid);
  EXPECT_EQ(bad.skipped, 2);
  EXPECT_TRUE(std::isnan(bad.exponent));
}

TEST(StateCount, PlIsPolylog) {
  // The polylog signature: |Q| is polynomial in psi = Theta(log n), i.e.
  // log|Q| ~ 6 log psi + O(1). Fit |Q| against psi on a log-log axis: the
  // exponent must land near 6 (dist * tokens^2 * clock * hits * signalR).
  std::vector<double> psis, qs;
  for (int e : {8, 12, 16, 20, 24, 30}) {
    const auto p = pl::PlParams::make(1 << e, 32);
    psis.push_back(static_cast<double>(p.psi));
    qs.push_back(pl_state_count(p).states);
  }
  const auto fit = core::fit_power(psis, qs);
  EXPECT_GT(fit.exponent, 5.5);
  EXPECT_LT(fit.exponent, 6.5);
  EXPECT_GT(fit.r2, 0.999);
  // ... while yokota28's |Q| is linear in n.
  std::vector<double> ns2, qs2;
  for (int e : {8, 12, 16, 20, 24}) {
    ns2.push_back(std::pow(2.0, e));
    qs2.push_back(y28_state_count(1 << e).states);
  }
  const auto fit2 = core::fit_power(ns2, qs2);
  EXPECT_NEAR(fit2.exponent, 1.0, 0.05);
}

TEST(StateCount, ConstantBaselines) {
  EXPECT_DOUBLE_EQ(fj_state_count().states, 24.0);
  EXPECT_DOUBLE_EQ(modk_state_count(2).states, 48.0);
  EXPECT_DOUBLE_EQ(modk_state_count(3).states, 72.0);
}

TEST(StateCount, MatchesDeclaredDomainProduct) {
  const auto p = pl::PlParams::make(16, 4);  // psi 4, kappa 16
  const double token = 1 + (2 * 4 - 1) * 4;  // 29
  const double expect = 2 * 2 * 8 * 2 * token * token * 17 * 5 * 17 * 3 * 2 *
                        2;
  EXPECT_DOUBLE_EQ(pl_state_count(p).states, expect);
  // psi slack (the O(1) in psi = ceil(lg n) + O(1)) only widens domains.
  EXPECT_GT(pl_state_count(pl::PlParams::make(16, 4, 1)).states, expect);
}

TEST(PackPlState, InjectiveOnRandomStates) {
  const auto p = pl::PlParams::make(64, 4);
  core::Xoshiro256pp rng(7);
  std::unordered_set<std::uint64_t> keys;
  std::vector<pl::PlState> states;
  for (int i = 0; i < 20000; ++i) {
    const auto s = pl::random_state(p, rng);
    const auto key = pack_pl_state(s, p);
    const auto [it, inserted] = keys.insert(key);
    if (!inserted) {
      // A repeated key must mean a repeated state (collisions forbidden).
      bool found_equal = false;
      for (const auto& old : states)
        if (old == s) found_equal = true;
      EXPECT_TRUE(found_equal) << "hash collision for distinct states";
    }
    states.push_back(s);
  }
  EXPECT_GT(keys.size(), 15000u);
}

TEST(PackPlState, BoundedByDeclaredCount) {
  const auto p = pl::PlParams::make(32, 4);
  core::Xoshiro256pp rng(13);
  const double declared = pl_state_count(p).states;
  for (int i = 0; i < 5000; ++i) {
    const auto s = pl::random_state(p, rng);
    EXPECT_LT(static_cast<double>(pack_pl_state(s, p)), declared);
  }
}

}  // namespace
}  // namespace ppsim::analysis
