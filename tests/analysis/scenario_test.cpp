// Scenario campaign engine: determinism across thread counts, recovery
// semantics of the phase diagram (stabilize -> inject -> recover), the
// protocol-agnostic adversary layer, the campaign driver, the release
// checks on a spec's callbacks, and the unique-leader census gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "pl/packed_state.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

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

// Lane-multiple shard widths: the 3-argument form keeps its width, and a
// width rounds up to whole lockstep groups only when every worker has at
// least one group's worth of trials.
static_assert(detail::balanced_shard_width(256 * 22, 16, 2) == 3);
static_assert(detail::balanced_shard_width(256 * 22, 16, 2, 8) == 8);
static_assert(detail::balanced_shard_width(256 * 22, 15, 2, 8) == 2);
static_assert(detail::balanced_shard_width(256 * 22, 200, 2, 8) == 32);
static_assert(detail::balanced_shard_width(16384 * 22, 64, 1, 8) == 8);

TEST(Scenario, LaneMultipleShardsDoNotShowInTheOutput) {
  // Trial counts straddle lockstep_lanes() x workers at 1-3 workers, so the
  // shard width is rounded up to whole lockstep groups at some thread
  // counts and not at others; both drivers' raw vectors must not move.
  const auto p = pl::PlParams::make(16, 4);
  const auto gen = [&](core::Xoshiro256pp& rng) {
    return pl::random_config(p, rng);
  };
  for (const int trials : {7, 8, 15, 16, 17, 24}) {
    const auto converge = [&](int threads) {
      return measure_convergence_parallel<pl::PlProtocol>(
          p, gen, pl::SafePredicate{}, trials, sweep_budget(p.n), 3, 7,
          threads);
    };
    const auto recover = [&](int threads) {
      TrialPlan plan;
      plan.trials = trials;
      plan.max_steps = budget(p.n, p.kappa_max);
      plan.seed_base = 8;
      plan.tag = campaign_tag(4, p.n, 2);
      plan.threads = threads;
      return measure_recovery<pl::PlProtocol>(
          p, make_recovery_scenario<pl::PlProtocol>(
                 "storm", storm_schedule(2, 50), plan));
    };
    const auto conv1 = converge(1);
    const auto rec1 = recover(1);
    ASSERT_EQ(conv1.raw.size(), static_cast<std::size_t>(trials));
    ASSERT_EQ(rec1.raw.size(), static_cast<std::size_t>(trials));
    for (const int threads : {2, 3}) {
      const auto conv = converge(threads);
      const auto rec = recover(threads);
      EXPECT_EQ(conv.raw, conv1.raw)
          << "trials=" << trials << " threads=" << threads;
      EXPECT_EQ(conv.failures, conv1.failures)
          << "trials=" << trials << " threads=" << threads;
      EXPECT_EQ(rec.raw, rec1.raw)
          << "trials=" << trials << " threads=" << threads;
      EXPECT_EQ(rec.stabilization_failures, rec1.stabilization_failures);
      EXPECT_EQ(rec.recovery_failures, rec1.recovery_failures);
    }
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

/// Every entry point (measure_recovery, the per-trial reference path and
/// the CampaignService constructor) rejects `spec` before running any
/// trial, with an std::invalid_argument whose message names `field`.
void expect_rejected(const ScenarioSpec<pl::PlProtocol>& spec,
                     const std::string& field) {
  const auto p = pl::PlParams::make(8, 2);
  for (const int entry : {0, 1, 2}) {
    try {
      if (entry == 0) {
        (void)measure_recovery<pl::PlProtocol>(p, spec);
      } else if (entry == 1) {
        (void)detail::recovery_trial<pl::PlProtocol>(p, spec, 0);
      } else {
        service::CampaignService<pl::PlProtocol> svc({{p, spec}});
      }
      ADD_FAILURE() << field << ": no exception (entry " << entry << ")";
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

TEST(ScenarioMisuse, NegativeTrialsThrows) {
  auto spec = runnable_spec();
  spec.plan.trials = -1;
  expect_rejected(spec, "plan.trials");
}

TEST(ScenarioMisuse, NegativeThreadsThrows) {
  auto spec = runnable_spec();
  spec.plan.threads = -2;
  expect_rejected(spec, "plan.threads");
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
  inject_random_faults(core::RingView<pl::PlProtocol>(runner), 8, rng);
  core::Runner<pl::PlProtocol> fresh(
      p, std::vector<pl::PlState>(runner.agents().begin(),
                                  runner.agents().end()),
      1);
  EXPECT_EQ(runner.leader_count(), fresh.leader_count());
}

// --- The unique-leader trait (core::requires_unique_leader) ---------------
//
// A predicate that declares unique_leader() is rejected from the ring's
// leader census, without being called, whenever that count is not 1. The
// trait must be honest (no declaring predicate accepts such a ring), the
// gate must not change a result, and predicates without the member must
// stay ungated.

template <typename P>
int leaders_of(std::span<const typename P::State> c,
               const typename P::Params& p) {
  int k = 0;
  for (const auto& s : c) k += P::is_leader(s, p) ? 1 : 0;
  return k;
}

/// Applies every predicate of P that declares unique_leader() to `c`; none
/// may accept it when its leader count is not 1. Returns whether it was such
/// a configuration.
template <typename P>
bool expect_trait_honest(const std::vector<typename P::State>& config,
                         const typename P::Params& p,
                         const std::string& what) {
  const std::span<const typename P::State> c(config);
  if (leaders_of<P>(c, p) == 1) return false;
  const RecoveryPredicate<P> recovered =
      make_recovery_scenario<P>("trait", {}, TrialPlan{}).recovered;
  EXPECT_TRUE(recovered.unique_leader());
  EXPECT_FALSE(recovered(c, p)) << what;
  EXPECT_FALSE(InSafeSet<P>{}(c, p)) << what;
  if constexpr (std::is_same_v<P, pl::PlProtocol>) {
    const pl::PackedLayout l = pl::PackedLayout::make(p);
    std::vector<std::uint64_t> words;
    for (const pl::PlState& s : c) words.push_back(pl::pack_word(s, l));
    const pl::WordConfig view(words, l);
    EXPECT_FALSE(recovered(view, p)) << what;
    EXPECT_FALSE(InSafeSet<P>{}(view, p)) << what;
    EXPECT_FALSE(pl::SafePredicate{}(c, p)) << what;
    EXPECT_FALSE(pl::SafePredicate{}(view, p)) << what;
    EXPECT_FALSE(pl::UniqueLeaderPredicate{}(c, p)) << what;
  }
  return true;
}

/// Every family, 1000 random configurations and 4 x 250 safe
/// configurations corrupted with 1-4 faults, at n = p.n.
template <typename P>
void expect_trait_honest_at(const typename P::Params& p) {
  const std::string at = " n=" + std::to_string(p.n);
  int gated = 0;
  for (const auto& fam : Adversary<P>::families()) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      core::Xoshiro256pp rng(seed);
      gated += expect_trait_honest<P>(fam.make(p, rng), p, fam.name + at);
    }
  }
  core::Xoshiro256pp rng(31);
  for (int i = 0; i < 1000; ++i)
    gated += expect_trait_honest<P>(Adversary<P>::random_config(p, rng), p,
                                    "random " + std::to_string(i) + at);
  int corrupted = 0;
  for (int faults = 1; faults <= 4; ++faults) {
    for (int i = 0; i < 250; ++i) {
      auto c = Adversary<P>::safe_config(p, rng);
      corrupt_config<P>(c, p, faults, rng);
      corrupted += expect_trait_honest<P>(
          c, p, "safe + " + std::to_string(faults) + " faults" + at);
    }
  }
  // Not vacuous: most random rings and some corrupted ones are gated.
  EXPECT_GT(gated, 900) << at;
  EXPECT_GT(corrupted, 0) << at;
}

TEST(UniqueLeaderTrait, DeclaringPredicatesRejectEveryOtherLeaderCount) {
  static_assert(pl::SafePredicate::unique_leader());
  static_assert(pl::UniqueLeaderPredicate::unique_leader());
  for (int n : {16, 64}) {
    expect_trait_honest_at<pl::PlProtocol>(pl::PlParams::make(n, 4));
    expect_trait_honest_at<baselines::Modk>(baselines::ModkParams::make(n, 3));
    expect_trait_honest_at<baselines::Yokota28>(baselines::Y28Params::make(n));
    expect_trait_honest_at<baselines::FischerJiang>(
        baselines::FjParams::make(n));
  }
}

/// `spec` with make_recovery_scenario's default predicate behind a
/// span-only lambda: no view, no trait, called on every check.
template <typename P>
ScenarioSpec<P> stripped(ScenarioSpec<P> spec) {
  spec.recovered = [](std::span<const typename P::State> c,
                      const typename P::Params& p) {
    return Adversary<P>::recovered(c, p);
  };
  return spec;
}

void expect_same_stats(const RecoveryStats& a, const RecoveryStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.stabilization_failures, b.stabilization_failures) << what;
  EXPECT_EQ(a.recovery_failures, b.recovery_failures) << what;
  EXPECT_EQ(a.raw, b.raw) << what;
  for (const auto& [x, y] : {std::pair{a.recovery, b.recovery},
                             {a.stabilization, b.stabilization}}) {
    EXPECT_EQ(x.count, y.count) << what;
    EXPECT_EQ(x.mean, y.mean) << what;
    EXPECT_EQ(x.median, y.median) << what;
    EXPECT_EQ(x.max, y.max) << what;
  }
}

/// The gated default spec and its stripped twin give identical
/// RecoveryStats at 1 and 3 threads, and identical per-trial reference
/// runs.
template <typename P>
void expect_gate_invisible(const typename P::Params& params,
                           std::uint64_t max_steps, std::uint64_t tag_base) {
  for (int threads : {1, 3}) {
    TrialPlan plan;
    plan.trials = 12;
    plan.max_steps = max_steps;
    plan.seed_base = 21;
    plan.tag = campaign_tag(tag_base, params.n, 4);
    plan.threads = threads;
    const auto spec = make_recovery_scenario<P>(
        "storm", storm_schedule(4, static_cast<std::uint64_t>(params.n)),
        plan);
    const auto plain = stripped(spec);
    ASSERT_TRUE(spec.recovered.unique_leader());
    ASSERT_FALSE(plain.recovered.unique_leader());
    const std::string what = "n=" + std::to_string(params.n) +
                             " threads=" + std::to_string(threads);
    const auto gated = measure_recovery<P>(params, spec);
    EXPECT_EQ(gated.stabilization_failures, 0) << what;
    EXPECT_FALSE(gated.raw.empty()) << what;
    expect_same_stats(gated, measure_recovery<P>(params, plain), what);
    if (threads != 1) continue;
    for (std::uint64_t t = 0; t < 3; ++t) {
      const auto a = detail::recovery_trial<P>(params, spec, t);
      const auto b = detail::recovery_trial<P>(params, plain, t);
      EXPECT_EQ(a.stabilized, b.stabilized) << what;
      EXPECT_EQ(a.healed, b.healed) << what;
      EXPECT_EQ(a.stabilize_steps, b.stabilize_steps) << what;
      EXPECT_EQ(a.recovery_steps, b.recovery_steps) << what;
    }
  }
}

TEST(UniqueLeaderTrait, GateLeavesRecoveryStatsUnchanged) {
  const auto pl_p = pl::PlParams::make(16, 4);
  expect_gate_invisible<pl::PlProtocol>(pl_p, budget(pl_p.n, pl_p.kappa_max),
                                        11);
  expect_gate_invisible<baselines::Modk>(baselines::ModkParams::make(15, 2),
                                         50'000'000, 12);
  expect_gate_invisible<baselines::Yokota28>(baselines::Y28Params::make(16),
                                             50'000'000, 13);
  expect_gate_invisible<baselines::FischerJiang>(
      baselines::FjParams::make(16), 50'000'000, 14);
}

/// Forwards to Adversary<Modk>::recovered and counts its calls; declares
/// the trait when `kDeclares`.
template <bool kDeclares>
struct CountedModk {
  std::atomic<std::uint64_t>* calls;
  static constexpr bool unique_leader() noexcept { return kDeclares; }
  bool operator()(std::span<const baselines::ModkState> c,
                  const baselines::ModkParams& p) const {
    calls->fetch_add(1, std::memory_order_relaxed);
    return Adversary<baselines::Modk>::recovered(c, p);
  }
};

TEST(UniqueLeaderTrait, GateSkipsMostModkChecks) {
  const auto p = baselines::ModkParams::make(63, 2);
  TrialPlan plan;
  plan.trials = 16;
  plan.max_steps = 50'000'000;
  plan.seed_base = 22;
  plan.tag = campaign_tag(15, p.n, 4);
  plan.threads = 1;
  auto spec = make_recovery_scenario<baselines::Modk>("burst",
                                                      burst_schedule(4), plan);
  std::atomic<std::uint64_t> gated_calls{0};
  std::atomic<std::uint64_t> plain_calls{0};
  spec.recovered = CountedModk<true>{&gated_calls};
  ASSERT_TRUE(spec.recovered.unique_leader());
  const auto gated = measure_recovery<baselines::Modk>(p, spec);
  spec.recovered = CountedModk<false>{&plain_calls};
  ASSERT_FALSE(spec.recovered.unique_leader());
  const auto plain = measure_recovery<baselines::Modk>(p, spec);
  expect_same_stats(gated, plain, "modk n=63");
  EXPECT_EQ(gated.recovery_failures, 0);
  EXPECT_GT(gated_calls.load(), 0u);
#ifdef NDEBUG
  EXPECT_GT(plain_calls.load(), 10 * gated_calls.load())
      << plain_calls.load() << " vs " << gated_calls.load();
#else
  // Debug builds cross-check every census exit with one full call, so the
  // gated predicate is called exactly as often as the ungated one.
  EXPECT_EQ(plain_calls.load(), gated_calls.load());
#endif
}

/// A span-only lambda that accepts a leaderless ring, and a
/// RecoveryPredicate built from it, carry no trait: from a leaderless start
/// both hit at step 0 through Runner::run_until and run_until_each.
template <typename P>
void expect_leaderless_hits_at_zero(const typename P::Params& p,
                                    const std::vector<typename P::State>& c) {
  ASSERT_EQ(leaders_of<P>(std::span<const typename P::State>(c), p), 0);
  const auto leaderless = [](std::span<const typename P::State> a,
                             const typename P::Params& q) {
    return leaders_of<P>(a, q) == 0;
  };
  const RecoveryPredicate<P> erased = leaderless;
  EXPECT_FALSE(core::requires_unique_leader(leaderless));
  EXPECT_FALSE(core::requires_unique_leader(erased));
  EXPECT_FALSE(erased.unique_leader());
  const auto check = [&](const auto& pred) {
    core::Runner<P> runner(p, c, 3);
    EXPECT_EQ(runner.run_until(pred, 1000), std::optional<std::uint64_t>(0));
    core::EnsembleRunner<P> ensemble(p, 9);
    for (std::uint64_t r = 0; r < 9; ++r) ensemble.add_ring(c, 40 + r);
    for (const std::uint64_t hit : ensemble.run_until_each(pred, 1000))
      EXPECT_EQ(hit, 0u);
  };
  check(leaderless);
  check(erased);
}

TEST(UniqueLeaderTrait, PredicatesWithoutTheTraitStayUngated) {
  const auto pl_p = pl::PlParams::make(16, 4);
  expect_leaderless_hits_at_zero<pl::PlProtocol>(
      pl_p, pl::leaderless_consistent(pl_p, 0));
  const auto modk_p = baselines::ModkParams::make(15, 2);
  expect_leaderless_hits_at_zero<baselines::Modk>(
      modk_p,
      std::vector<baselines::ModkState>(static_cast<std::size_t>(modk_p.n)));
  // The declaring predicates are gated: the default recovery predicate
  // reports the trait through RecoveryPredicate.
  EXPECT_TRUE(core::requires_unique_leader(pl::SafePredicate{}));
  EXPECT_TRUE(core::requires_unique_leader(
      make_recovery_scenario<baselines::Modk>("t", {}, TrialPlan{})
          .recovered));
}

}  // namespace
}  // namespace ppsim::analysis
