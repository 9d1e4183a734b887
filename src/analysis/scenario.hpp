// Scenario campaign engine: declarative recovery-time measurement under
// scheduled fault injection — the self-stabilization claim (Def. 2.1)
// exercised the way the SS-LE literature evaluates it (recovery after k
// transient faults), rather than only convergence from initial
// configurations.
//
// A ScenarioSpec<P> is the cross product the campaign driver executes:
//
//   initial-configuration family x fault schedule x recovery predicate
//                                x trial plan
//
// Per trial (seeded derive_seed(seed_base, tag, t), same scheme as
// analysis/experiment.hpp):
//
//   1. build a Runner from spec.initial(params, cfg_rng)      [cfg stream]
//   2. run_until(spec.recovered) — the stabilization phase; a timeout here
//      is a *stabilization* failure and the trial ends
//   3. for each FaultEvent, advance the scheduler to exactly
//      `epoch + at_step` interactions (epoch = the stabilization hit) and
//      call spec.inject(runner, faults, fault_rng)            [fault stream]
//   4. run_until(spec.recovered) again — the recovery phase; the recovery
//      time is the hitting step minus the step of the last injection
//
// Determinism: the configuration stream (stream_seed(seed,
// streams::kConfig)) and the fault stream (stream_seed(seed,
// streams::kFaults)) are decorrelated per trial and independent of the
// scheduler stream, work is fanned over core::ThreadPool by *index* only,
// and injections happen at exact step offsets — so campaign results are
// bit-identical for every thread count (tests/analysis/scenario_test.cpp).
//
// Execution: measure_recovery shards the trial range into contiguous blocks,
// each run as one core::EnsembleRunner (struct-of-arrays state, blocked
// per-ring hot loop — the campaign-throughput win recorded in
// BENCH_ensemble.json). Ring t owns
// exactly the three RNG streams trial t's standalone Runner would own and
// rings never interact, so RecoveryStats is byte-identical to the historical
// per-trial path (kept as detail::recovery_trial, pinned by
// tests/core/ensemble_test.cpp). Injectors receive a core::RingView — one
// ring of either engine — rather than a whole Runner.
//
// Recovery checks: ScenarioSpec::recovered is a RecoveryPredicate, one
// type-erased object with the span overload every engine calls and, for
// protocols with a word kernel, an optional core::WordRingView overload
// (the way pl::SafePredicate carries both). A span-only lambda assigns to
// it unchanged. Given a view overload, a check on a ring whose u64 words
// own it reads them in place (EnsembleRunner::run_until_each); otherwise it
// reads the ring's States. It also carries the unique-leader trait of the
// callable it was built from: when that callable declares unique_leader(),
// a check on a ring whose leader census is not 1 fails in O(1), before any
// unpack or walk. make_recovery_scenario's default predicate (InSafeSet)
// declares the trait for all four protocols and carries the view for P_PL;
// a lambda, or a wrapper around the default, carries neither unless it
// forwards them, and is called on every check. measure_recovery and
// recovery_trial reject an empty `initial` or `recovered`, an empty
// `inject` with a non-empty schedule, and a negative `plan.trials` or
// `plan.threads`, with std::invalid_argument before any trial runs.
//
// Quantization: both run_until phases check the predicate every
// `plan.check_every` steps (0 = every ~n), so stabilization and recovery
// hitting times are quantized up to that granularity; fault injections
// themselves land at exact offsets.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/ensemble.hpp"
#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "core/statistics.hpp"
#include "core/stream_tags.hpp"

namespace ppsim::analysis {

/// One scheduled fault burst: corrupt `faults` agents once the scheduler
/// reaches `at_step` interactions past the stabilization point.
struct FaultEvent {
  std::uint64_t at_step = 0;
  int faults = 0;
};

/// One burst of `faults` corruptions immediately after stabilization — the
/// classic "corrupt a converged system" regime.
[[nodiscard]] inline std::vector<FaultEvent> burst_schedule(int faults) {
  return {FaultEvent{0, faults}};
}

/// `faults` single corruptions spaced `gap` steps apart (a fault storm the
/// protocol may be mid-recovery through).
[[nodiscard]] inline std::vector<FaultEvent> storm_schedule(
    int faults, std::uint64_t gap) {
  std::vector<FaultEvent> s;
  s.reserve(static_cast<std::size_t>(std::max(faults, 0)));
  for (int i = 0; i < faults; ++i)
    s.push_back(FaultEvent{gap * static_cast<std::uint64_t>(i), 1});
  return s;
}

/// 64-bit: a storm schedule over a service-scale campaign can carry more
/// corruptions than `int` holds, and the campaign aggregates it feeds are
/// 64-bit throughout (per-event counts stay `int` — one burst is bounded by
/// n).
[[nodiscard]] inline std::int64_t total_faults(
    std::span<const FaultEvent> schedule) {
  std::int64_t f = 0;
  for (const FaultEvent& ev : schedule) f += ev.faults;
  return f;
}

/// Trial plan shared by every trial of a scenario. `max_steps` budgets the
/// stabilization phase and the recovery phase separately. `trials` is
/// 64-bit: the resumable campaign service (src/service/campaign.hpp) plans
/// up to 1e9-trial cells, which must not overflow the plan or the folded
/// counters. Negative `trials` or `threads` are rejected (check_spec).
struct TrialPlan {
  std::int64_t trials = 8;
  std::uint64_t max_steps = 100'000'000;
  std::uint64_t seed_base = 1;
  std::uint64_t tag = 0;
  std::uint64_t check_every = 0;  ///< predicate granularity; 0 = every ~n
  int threads = 0;                ///< ThreadPool size; 0 = default
};

/// The stabilization/recovery predicate of a ScenarioSpec: one type-erased
/// callable with a span overload and, for protocols with a word kernel
/// (core::HasWordKernel), a core::WordRingView overload — the shape of
/// pl::SafePredicate. Built from any callable invocable with
/// (span, params); the view slot is filled when that callable is also
/// invocable with (view, params), so a span-only lambda assigns unchanged
/// and simply carries no view. Protocols without a word kernel have no view
/// slot at all. The unique-leader trait is carried the same way: built
/// from a callable that declares unique_leader() (pl::SafePredicate,
/// InSafeSet), the predicate reports the callable's value, so
/// run_until_each can reject a ring from its leader census; built from
/// anything else, it reports false and every check calls it.
template <typename P>
class RecoveryPredicate {
 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Span = std::span<const State>;
  using View = core::WordRingView<P>;
  static constexpr bool kHasViewSlot = core::HasWordKernel<P>;

  RecoveryPredicate() = default;
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, RecoveryPredicate> &&
             std::is_invocable_r_v<bool, const std::remove_cvref_t<F>&, Span,
                                   const Params&>)
  RecoveryPredicate(F&& f) {  // NOLINT: implicit, so lambdas assign directly
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kHasViewSlot) {
      if constexpr (std::is_invocable_r_v<bool, const Fn&, const View&,
                                          const Params&>)
        view_ = f;
    }
    unique_leader_ = core::requires_unique_leader(f);
    span_ = std::forward<F>(f);
  }

  /// False for a default-constructed (empty) predicate.
  explicit operator bool() const noexcept { return static_cast<bool>(span_); }
  /// True when the view overload is set (EnsembleRunner reads this before
  /// handing it a WordRingView).
  [[nodiscard]] bool has_view() const noexcept {
    if constexpr (kHasViewSlot) {
      return static_cast<bool>(view_);
    } else {
      return false;
    }
  }

  /// True when the callable it was built from declares unique_leader()
  /// (core::requires_unique_leader reads this).
  [[nodiscard]] bool unique_leader() const noexcept { return unique_leader_; }

  bool operator()(Span c, const Params& p) const { return span_(c, p); }
  /// Requires has_view().
  bool operator()(const View& c, const Params& p) const
    requires kHasViewSlot
  {
    return view_(c, p);
  }

 private:
  struct NoView {};
  std::function<bool(Span, const Params&)> span_;
  [[no_unique_address]] std::conditional_t<
      kHasViewSlot, std::function<bool(const View&, const Params&)>, NoView>
      view_;
  bool unique_leader_ = false;
};

/// Declarative recovery scenario for protocol P. `initial` draws the
/// initial-configuration family, `inject` corrupts a running system through
/// a core::RingView (RingView::set_agent keeps the census incremental, and
/// the view works for a standalone Runner and for one ring of an
/// EnsembleRunner alike), `recovered` is the stabilization/recovery
/// predicate (for the study protocols: membership in the safe set; see
/// RecoveryPredicate). analysis/adversary.hpp builds the standard
/// instances.
template <typename P>
struct ScenarioSpec {
  using Params = typename P::Params;
  using State = typename P::State;

  std::string name;
  std::function<std::vector<State>(const Params&, core::Xoshiro256pp&)>
      initial;
  /// Executed in at_step order (stably sorted per trial; same-step events
  /// keep their declared order).
  std::vector<FaultEvent> schedule;
  std::function<void(core::RingView<P>, int, core::Xoshiro256pp&)> inject;
  /// Assign any (span, params) -> bool callable; one that also takes a
  /// core::WordRingView lets word-owned rings skip the unpack per check.
  RecoveryPredicate<P> recovered;
  TrialPlan plan;
};

/// Outcome of one trial.
struct RecoveryTrial {
  bool stabilized = false;      ///< reached `recovered` before any injection
  bool healed = false;          ///< reached `recovered` after the last one
  std::uint64_t stabilize_steps = 0;  ///< steps to first stabilization
  std::uint64_t recovery_steps = 0;   ///< last injection -> re-stabilization
};

/// Folded campaign statistics. `raw` holds the recovery times of healed
/// trials in trial order (failures excluded), mirroring ConvergenceStats.
/// Counters are 64-bit to match TrialPlan::trials (service-scale campaigns;
/// values of every committed artifact are unchanged by the widening).
struct RecoveryStats {
  std::int64_t trials = 0;
  std::int64_t stabilization_failures = 0;  ///< never `recovered` pre-fault
  std::int64_t recovery_failures = 0;  ///< stabilized, never healed in budget
  core::Summary recovery;
  core::Summary stabilization;  ///< over trials that stabilized
  std::vector<std::uint64_t> raw;
};

/// Writes the `stabilization_failures, recovery_failures, median, mean, p90,
/// max` fields of `s` into the open JSON object, in that order: the one
/// field run every recovery artifact shares (`raw` is the caller's choice).
void write_recovery_summary(core::JsonWriter& w, const RecoveryStats& s);

namespace detail {

/// Reject a spec that cannot run, with std::invalid_argument naming the
/// field: an empty `initial` or `recovered`, an empty `inject` while the
/// schedule has events, or a negative `plan.trials` or `plan.threads`.
template <typename P>
void check_spec(const ScenarioSpec<P>& spec) {
  const auto reject = [&](const char* why) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name + "': " + why);
  };
  if (!spec.initial) reject("initial is empty");
  if (!spec.recovered) reject("recovered is empty");
  if (!spec.inject && !spec.schedule.empty())
    reject("inject is empty but the schedule is not");
  if (spec.plan.trials < 0) reject("plan.trials is negative");
  if (spec.plan.threads < 0) reject("plan.threads is negative");
}

/// `spec.schedule` stably sorted by at_step (same-step events keep their
/// declared order) — the execution order of every trial.
template <typename P>
[[nodiscard]] std::vector<FaultEvent> sorted_schedule(
    const ScenarioSpec<P>& spec) {
  std::vector<FaultEvent> schedule = spec.schedule;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_step < b.at_step;
                   });
  return schedule;
}

/// One scenario trial on a standalone Runner — the historical per-trial
/// path, kept as the byte-identity reference for the ensemble-sharded
/// driver (tests/core/ensemble_test.cpp compares the two trial for trial).
/// See the header comment for the phase diagram. Throws
/// std::invalid_argument on an unusable spec (check_spec).
template <typename P>
[[nodiscard]] RecoveryTrial recovery_trial(const typename P::Params& params,
                                           const ScenarioSpec<P>& spec,
                                           std::uint64_t t) {
  check_spec(spec);
  const TrialPlan& plan = spec.plan;
  const std::uint64_t seed = core::derive_seed(plan.seed_base, plan.tag, t);
  core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
  core::Xoshiro256pp fault_rng(
      core::stream_seed(seed, core::streams::kFaults));
  core::Runner<P> runner(params, spec.initial(params, cfg_rng), seed);

  RecoveryTrial out;
  const auto stab =
      runner.run_until(spec.recovered, plan.max_steps, plan.check_every);
  if (!stab) return out;
  out.stabilized = true;
  out.stabilize_steps = *stab;

  const std::uint64_t epoch = runner.steps();
  std::uint64_t last_injection = epoch;
  for (const FaultEvent& ev : sorted_schedule(spec)) {
    const std::uint64_t target = epoch + ev.at_step;
    if (target > runner.steps()) runner.run(target - runner.steps());
    spec.inject(core::RingView<P>(runner), ev.faults, fault_rng);
    last_injection = runner.steps();
  }

  const auto rec =
      runner.run_until(spec.recovered, plan.max_steps, plan.check_every);
  if (!rec) return out;
  out.healed = true;
  out.recovery_steps = *rec - last_injection;
  return out;
}

/// Run trials [first, first + count) of a scenario as one ensemble, writing
/// RecoveryTrial i into out[first + i]. Phase structure per ring is exactly
/// recovery_trial's: stabilize (run_until_each), inject at exact offsets
/// (run_ring + RingView), recover (run_until_each over the stabilized
/// subset, others frozen).
template <typename P>
void ensemble_recovery_shard(const typename P::Params& params,
                             const ScenarioSpec<P>& spec, std::size_t first,
                             std::size_t count, std::span<RecoveryTrial> out) {
  constexpr std::uint64_t npos = core::EnsembleRunner<P>::npos;
  const TrialPlan& plan = spec.plan;
  core::EnsembleRunner<P> ensemble(params, static_cast<int>(count));
  std::vector<core::Xoshiro256pp> fault_rngs;
  fault_rngs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = core::derive_seed(
        plan.seed_base, plan.tag, static_cast<std::uint64_t>(first + i));
    core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
    fault_rngs.emplace_back(core::stream_seed(seed, core::streams::kFaults));
    const auto initial = spec.initial(params, cfg_rng);
    ensemble.add_ring(initial, seed);
  }

  const auto stab =
      ensemble.run_until_each(spec.recovered, plan.max_steps,
                              plan.check_every);
  const auto schedule = sorted_schedule(spec);
  std::vector<int> recovering;
  std::vector<std::uint64_t> last_injection(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (stab[i] == npos) continue;  // stabilization failure; out stays default
    RecoveryTrial& trial = out[first + i];
    trial.stabilized = true;
    trial.stabilize_steps = stab[i];
    const int r = static_cast<int>(i);
    const std::uint64_t epoch = ensemble.steps(r);
    std::uint64_t last = epoch;
    for (const FaultEvent& ev : schedule) {
      const std::uint64_t target = epoch + ev.at_step;
      if (target > ensemble.steps(r))
        ensemble.run_ring(r, target - ensemble.steps(r));
      spec.inject(core::RingView<P>(ensemble, r), ev.faults, fault_rngs[i]);
      last = ensemble.steps(r);
    }
    last_injection[i] = last;
    recovering.push_back(r);
  }

  std::vector<std::uint64_t> rec(count, npos);
  ensemble.run_until_each(recovering, spec.recovered, plan.max_steps,
                          plan.check_every, rec);
  for (int r : recovering) {
    const auto i = static_cast<std::size_t>(r);
    if (rec[i] == npos) continue;  // recovery failure
    RecoveryTrial& trial = out[first + i];
    trial.healed = true;
    trial.recovery_steps = rec[i] - last_injection[i];
  }
}

[[nodiscard]] RecoveryStats fold_recovery(
    const std::vector<RecoveryTrial>& trials);

}  // namespace detail

/// Execute one scenario: `plan.trials` trials sharded into contiguous
/// ensembles fanned over a ThreadPool, bit-identical for any thread count
/// and to the per-trial reference path (indices only; see header comment).
/// Throws std::invalid_argument on an unusable spec before any shard runs
/// (detail::check_spec).
template <typename P>
[[nodiscard]] RecoveryStats measure_recovery(
    const typename P::Params& params, const ScenarioSpec<P>& spec) {
  detail::check_spec(spec);
  std::vector<RecoveryTrial> trials(static_cast<std::size_t>(spec.plan.trials));
  core::ThreadPool pool(spec.plan.threads);
  // Same cache-capped, load-balanced, lane-multiple sharding as the
  // convergence drivers; output-invisible (trials are seeded by global
  // index).
  const std::size_t shard = analysis::detail::balanced_shard_width(
      static_cast<std::size_t>(params.n) * sizeof(typename P::State),
      trials.size(), static_cast<std::size_t>(pool.size()),
      static_cast<std::size_t>(
          core::EnsembleRunner<P>::lockstep_lanes()));
  const std::size_t shards = (trials.size() + shard - 1) / shard;
  pool.for_index(shards, [&](std::size_t s) {
    const std::size_t first = s * shard;
    detail::ensemble_recovery_shard<P>(
        params, spec, first, std::min(shard, trials.size() - first), trials);
  });
  return detail::fold_recovery(trials);
}

/// One executed campaign cell.
struct CampaignResult {
  std::string scenario;
  int n = 0;
  std::int64_t faults = 0;  ///< total faults across the schedule
  RecoveryStats stats;
};

/// Execute a whole campaign (a list of params x spec cells) in order.
/// Give each cell a distinct plan.tag — campaign_tag below is collision-free
/// for n < 2^20 and faults < 2^12 — so cells stay decorrelated and
/// reproducible independent of campaign order.
template <typename P>
[[nodiscard]] std::vector<CampaignResult> run_campaign(
    std::span<const std::pair<typename P::Params, ScenarioSpec<P>>> cells) {
  std::vector<CampaignResult> out;
  out.reserve(cells.size());
  for (const auto& [params, spec] : cells) {
    CampaignResult r;
    r.scenario = spec.name;
    r.n = params.n;
    r.faults = total_faults(spec.schedule);
    r.stats = measure_recovery<P>(params, spec);
    out.push_back(std::move(r));
  }
  return out;
}

/// Per-cell experiment tag: tag_base | n | faults, collision-free for
/// n < 2^20, faults < 2^12.
[[nodiscard]] constexpr std::uint64_t campaign_tag(std::uint64_t tag_base,
                                                   int n,
                                                   int faults) noexcept {
  return (tag_base << 32) | (static_cast<std::uint64_t>(n) << 12) |
         static_cast<std::uint64_t>(faults);
}

}  // namespace ppsim::analysis
