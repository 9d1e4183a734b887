// Scenario campaign engine: determinism across thread counts, recovery
// semantics of the phase diagram (stabilize -> inject -> recover), the
// protocol-agnostic adversary layer, the campaign driver, and the release
// checks on a spec's callbacks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace ppsim::analysis {
namespace {

std::uint64_t budget(int n, int kappa_max) {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 600ULL * n_u * n_u * static_cast<std::uint64_t>(kappa_max) +
         2'000'000;
}

TEST(Scenario, ScheduleHelpers) {
  const auto burst = burst_schedule(5);
  ASSERT_EQ(burst.size(), 1u);
  EXPECT_EQ(burst[0].at_step, 0u);
  EXPECT_EQ(burst[0].faults, 5);
  EXPECT_EQ(total_faults(burst), 5);

  const auto storm = storm_schedule(3, 100);
  ASSERT_EQ(storm.size(), 3u);
  EXPECT_EQ(storm[0].at_step, 0u);
  EXPECT_EQ(storm[1].at_step, 100u);
  EXPECT_EQ(storm[2].at_step, 200u);
  EXPECT_EQ(total_faults(storm), 3);
}

TEST(Scenario, MeasureRecoveryBitIdenticalAcrossThreads) {
  // The acceptance bar inherited from the parallel experiment engine: the
  // raw recovery-time vector (trial order included) must be identical for
  // every thread count.
  const auto p = pl::PlParams::make(12, 4);
  auto make = [&](int threads) {
    TrialPlan plan;
    plan.trials = 24;
    plan.max_steps = budget(p.n, p.kappa_max);
    plan.seed_base = 5;
    plan.tag = campaign_tag(1, p.n, 2);
    plan.threads = threads;
    return make_recovery_scenario<pl::PlProtocol>(
        "burst", burst_schedule(2), plan);
  };
  const auto serial = measure_recovery<pl::PlProtocol>(p, make(1));
  ASSERT_EQ(serial.trials, 24);
  EXPECT_EQ(serial.stabilization_failures, 0);
  EXPECT_EQ(serial.recovery_failures, 0);
  for (int threads : {2, 3, 4, 7}) {
    const auto par = measure_recovery<pl::PlProtocol>(p, make(threads));
    EXPECT_EQ(par.raw, serial.raw) << "threads=" << threads;
    EXPECT_EQ(par.stabilization_failures, serial.stabilization_failures);
    EXPECT_EQ(par.recovery_failures, serial.recovery_failures);
    EXPECT_DOUBLE_EQ(par.recovery.median, serial.recovery.median);
  }
}

TEST(Scenario, SeedsDecorrelateTrials) {
  const auto p = pl::PlParams::make(12, 4);
  TrialPlan plan;
  plan.trials = 8;
  plan.max_steps = budget(p.n, p.kappa_max);
  plan.seed_base = 6;
  plan.tag = campaign_tag(2, p.n, 3);
  const auto stats = measure_recovery<pl::PlProtocol>(
      p, make_recovery_scenario<pl::PlProtocol>("burst", burst_schedule(3),
                                                plan));
  ASSERT_EQ(stats.raw.size(), 8u);
  std::unordered_set<std::uint64_t> distinct(stats.raw.begin(),
                                             stats.raw.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Scenario, EmptyScheduleRecoversInstantly) {
  // No injections: the recovery phase starts in the safe set, so every
  // recovery time is 0 (run_until checks the predicate before stepping).
  const auto p = pl::PlParams::make(8, 2);
  TrialPlan plan;
  plan.trials = 4;
  plan.max_steps = budget(p.n, p.kappa_max);
  plan.seed_base = 7;
  plan.tag = campaign_tag(3, p.n, 0);
  const auto stats = measure_recovery<pl::PlProtocol>(
      p, make_recovery_scenario<pl::PlProtocol>("noop", {}, plan));
  ASSERT_EQ(stats.raw.size(), 4u);
  for (std::uint64_t r : stats.raw) EXPECT_EQ(r, 0u);
  EXPECT_EQ(stats.recovery.median, 0.0);
}

TEST(Scenario, UnsortedSchedulesAreNormalizedToStepOrder) {
  // The schedule contract (executed in at_step order) is enforced by a
  // stable per-trial sort, not just documented: declaration order must not
  // change the measurement.
  const auto p = pl::PlParams::make(8, 2);
  auto run = [&](std::vector<FaultEvent> schedule) {
    TrialPlan plan;
    plan.trials = 6;
    plan.max_steps = budget(p.n, p.kappa_max);
    plan.seed_base = 12;
    plan.tag = campaign_tag(10, p.n, 2);
    return measure_recovery<pl::PlProtocol>(
        p, make_recovery_scenario<pl::PlProtocol>("burst", std::move(schedule),
                                                  plan));
  };
  const auto sorted = run({FaultEvent{0, 1}, FaultEvent{16, 1}});
  const auto unsorted = run({FaultEvent{16, 1}, FaultEvent{0, 1}});
  EXPECT_EQ(sorted.raw, unsorted.raw);
  EXPECT_EQ(sorted.recovery_failures, unsorted.recovery_failures);
}

TEST(Scenario, StabilizationFailuresAreNotRecoveryFailures) {
  // A random initial configuration cannot reach S_PL in 10 steps: every
  // trial must be a *stabilization* failure and no recovery is attempted.
  const auto p = pl::PlParams::make(16, 4);
  ScenarioSpec<pl::PlProtocol> spec;
  spec.name = "hopeless";
  spec.initial = [](const pl::PlParams& pp, core::Xoshiro256pp& rng) {
    return pl::random_config(pp, rng);
  };
  spec.schedule = burst_schedule(1);
  spec.inject = [](core::RingView<pl::PlProtocol> r, int faults,
                   core::Xoshiro256pp& rng) {
    inject_random_faults(r, faults, rng);
  };
  spec.recovered = [](std::span<const pl::PlState> c, const pl::PlParams& pp) {
    return pl::is_safe(c, pp);
  };
  spec.plan.trials = 4;
  spec.plan.max_steps = 10;
  spec.plan.seed_base = 8;
  spec.plan.tag = campaign_tag(4, p.n, 1);
  const auto stats = measure_recovery<pl::PlProtocol>(p, spec);
  EXPECT_EQ(stats.stabilization_failures, 4);
  EXPECT_EQ(stats.recovery_failures, 0);
  EXPECT_TRUE(stats.raw.empty());
}

/// Both entry points reject `spec` before running any trial, with an
/// std::invalid_argument whose message names `field`.
void expect_rejected(const ScenarioSpec<pl::PlProtocol>& spec,
                     const std::string& field) {
  const auto p = pl::PlParams::make(8, 2);
  for (const bool ensemble : {true, false}) {
    try {
      if (ensemble) {
        (void)measure_recovery<pl::PlProtocol>(p, spec);
      } else {
        (void)detail::recovery_trial<pl::PlProtocol>(p, spec, 0);
      }
      ADD_FAILURE() << field << ": no exception (ensemble=" << ensemble
                    << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

ScenarioSpec<pl::PlProtocol> runnable_spec() {
  TrialPlan plan;
  plan.trials = 5;  // several shards at 3 threads: the check precedes them
  plan.threads = 3;
  plan.seed_base = 4;
  return make_recovery_scenario<pl::PlProtocol>("burst", burst_schedule(1),
                                                plan);
}

TEST(ScenarioMisuse, EmptyInitialThrows) {
  auto spec = runnable_spec();
  spec.initial = nullptr;
  expect_rejected(spec, "initial");
}

TEST(ScenarioMisuse, EmptyRecoveredThrows) {
  auto spec = runnable_spec();
  spec.recovered = {};
  expect_rejected(spec, "recovered");
}

TEST(ScenarioMisuse, EmptyInjectWithScheduleThrows) {
  auto spec = runnable_spec();
  spec.inject = nullptr;
  expect_rejected(spec, "inject");
  // With no scheduled fault, inject is never called and may stay empty.
  spec.schedule.clear();
  spec.plan.max_steps = budget(8, pl::PlParams::make(8, 2).kappa_max);
  const auto stats =
      measure_recovery<pl::PlProtocol>(pl::PlParams::make(8, 2), spec);
  EXPECT_EQ(stats.trials, 5);
  EXPECT_EQ(stats.stabilization_failures, 0);
}

/// All four covered protocols heal from a mid-run fault burst.
template <typename P>
void expect_heals(const typename P::Params& params, std::uint64_t max_steps,
                  std::uint64_t tag_base) {
  TrialPlan plan;
  plan.trials = 5;
  plan.max_steps = max_steps;
  plan.seed_base = 9;
  plan.tag = campaign_tag(tag_base, params.n, 3);
  const auto stats = measure_recovery<P>(
      params, make_recovery_scenario<P>("burst", burst_schedule(3), plan));
  EXPECT_EQ(stats.stabilization_failures, 0);
  EXPECT_EQ(stats.recovery_failures, 0);
  EXPECT_EQ(stats.raw.size(), 5u);
}

TEST(Scenario, PlHealsFromBurst) {
  const auto p = pl::PlParams::make(16, 4);
  expect_heals<pl::PlProtocol>(p, budget(p.n, p.kappa_max), 5);
}

TEST(Scenario, FischerJiangHealsFromBurst) {
  expect_heals<baselines::FischerJiang>(baselines::FjParams::make(16),
                                        50'000'000, 6);
}

TEST(Scenario, ModkHealsFromBurst) {
  expect_heals<baselines::Modk>(baselines::ModkParams::make(15, 2),
                                50'000'000, 7);
}

TEST(Scenario, Yokota28HealsFromBurst) {
  expect_heals<baselines::Yokota28>(baselines::Y28Params::make(16),
                                    50'000'000, 8);
}

TEST(Scenario, RunCampaignExecutesEveryCell) {
  const auto p = pl::PlParams::make(8, 2);
  std::vector<std::pair<pl::PlParams, ScenarioSpec<pl::PlProtocol>>> cells;
  for (int f : {1, 2}) {
    TrialPlan plan;
    plan.trials = 3;
    plan.max_steps = budget(p.n, p.kappa_max);
    plan.seed_base = 10;
    plan.tag = campaign_tag(9, p.n, f);
    cells.emplace_back(p, make_recovery_scenario<pl::PlProtocol>(
                              "burst", burst_schedule(f), plan));
  }
  const auto results = run_campaign<pl::PlProtocol>(
      std::span<const std::pair<pl::PlParams, ScenarioSpec<pl::PlProtocol>>>(
          cells));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].faults, 1);
  EXPECT_EQ(results[1].faults, 2);
  for (const auto& r : results) {
    EXPECT_EQ(r.scenario, "burst");
    EXPECT_EQ(r.n, p.n);
    EXPECT_EQ(r.stats.trials, 3);
    EXPECT_EQ(r.stats.recovery_failures, 0);
  }
}

/// Every named family of every covered protocol generates an in-domain,
/// runnable configuration (the sanitizer job turns domain breakage into a
/// hard failure).
template <typename P>
void expect_families_runnable(const typename P::Params& params) {
  const auto families = Adversary<P>::families();
  ASSERT_FALSE(families.empty());
  std::unordered_set<std::string> names;
  for (const auto& fam : families) {
    EXPECT_TRUE(names.insert(fam.name).second)
        << "duplicate family " << fam.name;
    core::Xoshiro256pp rng(3);
    auto config = fam.make(params, rng);
    ASSERT_EQ(static_cast<int>(config.size()), params.n) << fam.name;
    core::Runner<P> runner(params, std::move(config), 4);
    runner.run(2'000);
  }
}

TEST(Adversary, FamiliesRunnableForAllProtocols) {
  expect_families_runnable<pl::PlProtocol>(pl::PlParams::make(12, 4));
  expect_families_runnable<baselines::FischerJiang>(
      baselines::FjParams::make(12));
  expect_families_runnable<baselines::Modk>(baselines::ModkParams::make(13, 2));
  expect_families_runnable<baselines::Yokota28>(baselines::Y28Params::make(12));
}

/// The safe_config of each adversary must satisfy its recovered predicate
/// (otherwise recovery scenarios would never stabilize instantly).
template <typename P>
void expect_safe_config_recovered(const typename P::Params& params) {
  core::Xoshiro256pp rng(11);
  const auto c = Adversary<P>::safe_config(params, rng);
  EXPECT_TRUE(Adversary<P>::recovered(
      std::span<const typename P::State>(c), params));
}

TEST(Adversary, SafeConfigsSatisfySafePredicates) {
  expect_safe_config_recovered<pl::PlProtocol>(pl::PlParams::make(12, 4));
  expect_safe_config_recovered<baselines::FischerJiang>(
      baselines::FjParams::make(12));
  expect_safe_config_recovered<baselines::Modk>(
      baselines::ModkParams::make(13, 2));
  expect_safe_config_recovered<baselines::Yokota28>(
      baselines::Y28Params::make(12));
}

TEST(Adversary, CorruptConfigClampsAndPreservesSize) {
  const auto p = baselines::Y28Params::make(8);
  core::Xoshiro256pp rng(12);
  auto config = baselines::y28_safe_config(p);
  corrupt_config<baselines::Yokota28>(config, p, p.n + 100, rng);
  EXPECT_EQ(static_cast<int>(config.size()), p.n);
  auto untouched = baselines::y28_safe_config(p);
  corrupt_config<baselines::Yokota28>(untouched, p, 0, rng);
  EXPECT_EQ(untouched, baselines::y28_safe_config(p));
}

TEST(Adversary, InjectRandomFaultsKeepsCensusConsistent) {
  // After a fault storm through set_agent, the incremental leader census
  // must agree with a fresh full recount.
  const auto p = pl::PlParams::make(16, 4);
  core::Runner<pl::PlProtocol> runner(p, pl::make_safe_config(p), 13);
  core::Xoshiro256pp rng(14);
  inject_random_faults(runner, 8, rng);
  core::Runner<pl::PlProtocol> fresh(
      p, std::vector<pl::PlState>(runner.agents().begin(),
                                  runner.agents().end()),
      1);
  EXPECT_EQ(runner.leader_count(), fresh.leader_count());
}

}  // namespace
}  // namespace ppsim::analysis
