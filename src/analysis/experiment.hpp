// Experiment driver: repeated-trial convergence measurement with decorrelated
// seeds, used by every bench harness and the integration tests.
//
// One driver, measure_convergence_parallel, seeds trial t with
// derive_seed(seed_base, tag, t) and its config RNG with
// stream_seed(seed, streams::kConfig) — the stream-tag registry,
// core/stream_tags.hpp. It shards the trial index range into contiguous
// blocks, runs each block as one core::EnsembleRunner (struct-of-arrays
// state, blocked per-ring hot loop — the campaign-throughput win measured
// in BENCH_ensemble.json) and fans the shards out over a core::ThreadPool;
// `threads` = 1 runs every shard on the caller. Because ring t of a shard
// owns exactly the RNG streams a standalone Runner for trial t would own
// and rings never interact, the returned ConvergenceStats — including the
// raw hitting-time vector, in trial order — is bit-identical to the
// historical per-trial Runner loop (kept as detail::convergence_trial,
// pinned by tests/core/ensemble_test.cpp) and identical for every thread
// count and shard width (tests/analysis/analysis_test.cpp).
//
// `gen` and `pred` are invoked concurrently from pool threads and must be
// safe to call in parallel (the stateless lambdas used by all harnesses are).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "core/statistics.hpp"
#include "core/stream_tags.hpp"

namespace ppsim::analysis {

struct ConvergenceStats {
  int trials = 0;
  int failures = 0;  ///< trials that did not converge within max_steps
  core::Summary steps;
  std::vector<std::uint64_t> raw;
};

namespace detail {

/// One trial of the convergence experiment on a standalone Runner; returns
/// the hitting step or Runner<P>::npos on timeout. This is the historical
/// per-trial path, kept as the byte-identity reference for the
/// ensemble-sharded drivers (tests/core/ensemble_test.cpp compares the two
/// trial for trial).
template <typename P, typename ConfigGen, typename Pred>
[[nodiscard]] std::uint64_t convergence_trial(
    const typename P::Params& params, ConfigGen& gen, Pred& pred,
    std::uint64_t max_steps, std::uint64_t seed_base, std::uint64_t tag,
    std::uint64_t t, std::uint64_t check_every) {
  const std::uint64_t seed = core::derive_seed(seed_base, tag, t);
  core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
  core::Runner<P> runner(params, gen(cfg_rng), seed);
  return runner.run_until(pred, max_steps, check_every)
      .value_or(core::Runner<P>::npos);
}

/// Shard width (rings per EnsembleRunner) for the trial-batched drivers:
/// capped so one shard's agent-state block stays cache-resident (~256 KiB),
/// floored at 1 ring for huge rings, capped at 64 for tiny ones. A function
/// of (n, state size) only — NOT of the thread count — so sharding can never
/// perturb results across machines or pool sizes (each trial is independent
/// and seeded by its global index; shard boundaries are invisible in the
/// output either way).
[[nodiscard]] constexpr std::size_t ensemble_shard_rings(
    std::size_t ring_state_bytes) noexcept {
  constexpr std::size_t kShardStateBudget = 256 * 1024;
  if (ring_state_bytes == 0) return 64;
  const std::size_t rings = kShardStateBudget / ring_state_bytes;
  return std::clamp<std::size_t>(rings, 1, 64);
}

/// Shard width for the *pool-parallel* drivers: the cache-capped width
/// above, further split so every worker sees several shards (per-trial
/// durations vary wildly across trials). `lanes` is the width of the
/// ensemble's cross-ring lockstep groups (EnsembleRunner::lockstep_lanes(),
/// 1 = no lockstep): when every worker has at least `lanes`
/// trials, the width rounds up to a multiple of it, so shards fill whole
/// lockstep groups instead of leaving rings to the scalar loop (P_PL
/// n = 256, 16 trials, 2 workers: 2 shards of 8 rather than 6 of 3). Shard
/// boundaries cannot affect any result — trials are seeded by global index
/// and rings never interact — so this balancing knob is output-invisible.
/// Shared by measure_convergence_parallel and measure_recovery so the two
/// drivers' sharding cannot drift.
[[nodiscard]] constexpr std::size_t balanced_shard_width(
    std::size_t ring_state_bytes, std::size_t work_items, std::size_t workers,
    std::size_t lanes = 1) noexcept {
  const std::size_t cap = ensemble_shard_rings(ring_state_bytes);
  const std::size_t per_worker = work_items / (4 * workers) + 1;
  const std::size_t width = std::max<std::size_t>(1, std::min(cap, per_worker));
  if (lanes <= 1 || work_items < lanes * workers) return width;
  return (width + lanes - 1) / lanes * lanes;
}

/// Run trials [first, first + count) as one ensemble, writing each trial's
/// hitting step (or npos) into hits[first + i]. Ring i is seeded exactly as
/// convergence_trial(t = first + i) seeds its Runner.
template <typename P, typename ConfigGen, typename Pred>
void ensemble_convergence_shard(const typename P::Params& params,
                                ConfigGen& gen, Pred& pred,
                                std::uint64_t max_steps,
                                std::uint64_t seed_base, std::uint64_t tag,
                                std::uint64_t check_every, std::size_t first,
                                std::size_t count,
                                std::vector<std::uint64_t>& hits) {
  core::EnsembleRunner<P> ensemble(params, static_cast<int>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = core::derive_seed(
        seed_base, tag, static_cast<std::uint64_t>(first + i));
    core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
    const auto initial = gen(cfg_rng);
    ensemble.add_ring(initial, seed);
  }
  const auto shard_hits =
      ensemble.run_until_each(pred, max_steps, check_every);
  std::copy(shard_hits.begin(), shard_hits.end(), hits.begin() + first);
}

/// Fold per-trial hitting times (npos = failure) into ConvergenceStats.
[[nodiscard]] ConvergenceStats fold_trials(
    const std::vector<std::uint64_t>& hits);

}  // namespace detail

/// Run `trials` executions of protocol P from configurations produced by
/// `gen(rng)` until `pred(agents, params)` holds, collecting hitting times,
/// on `threads` workers (0 = PPSIM_THREADS / hardware concurrency). Trials
/// exceeding `max_steps` count as failures and are excluded from the
/// summary; a negative `trials` means none. `check_every` is the predicate
/// check granularity in steps (0 = every ~n steps): reported hitting times
/// are quantized *up* to the first check at or after the true hit, so a
/// coarser granularity trades precision for throughput.
template <typename P, typename ConfigGen, typename Pred>
[[nodiscard]] ConvergenceStats measure_convergence_parallel(
    const typename P::Params& params, ConfigGen&& gen, Pred&& pred,
    int trials, std::uint64_t max_steps, std::uint64_t seed_base,
    std::uint64_t tag, int threads = 0, std::uint64_t check_every = 0) {
  std::vector<std::uint64_t> hits(
      static_cast<std::size_t>(std::max(trials, 0)));
  core::ThreadPool pool(threads);
  const std::size_t shard = detail::balanced_shard_width(
      static_cast<std::size_t>(params.n) * sizeof(typename P::State),
      hits.size(), static_cast<std::size_t>(pool.size()),
      static_cast<std::size_t>(core::EnsembleRunner<P>::lockstep_lanes()));
  const std::size_t shards = (hits.size() + shard - 1) / shard;
  pool.for_index(shards, [&](std::size_t s) {
    const std::size_t first = s * shard;
    detail::ensemble_convergence_shard<P>(
        params, gen, pred, max_steps, seed_base, tag, check_every, first,
        std::min(shard, hits.size() - first), hits);
  });
  return detail::fold_trials(hits);
}

/// One (n, statistics) point of a scaling sweep.
struct ScalingPoint {
  int n = 0;
  ConvergenceStats stats;
};

/// Step budget used by the convergence sweeps: enough for the Theta(n^3)
/// baselines at small n and the n^2 polylog protocols throughout.
[[nodiscard]] constexpr std::uint64_t sweep_budget(int n) noexcept {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 40'000ULL * n_u * n_u + 50'000'000ULL;
}

/// Step budget per recovery trial (fault-injection campaigns): covers the
/// Theta(n^3) baseline and P_PL's Theta(n^2 kappa) detection path.
[[nodiscard]] constexpr std::uint64_t recovery_budget(int n) noexcept {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 60'000ULL * n_u * n_u + 60'000'000ULL;
}

/// Shared ring-size sweep driver (Theorem 3.1 / Table 1 harnesses): for each
/// n, builds params via `mk(n)`, draws configurations via `gen(params, rng)`
/// and measures convergence to `pred` with the trial-parallel engine.
/// Per-point tag is `tag_base << 32 | params.n` — collision-free for any
/// n that fits 32 bits, so sweep points stay decorrelated and reproducible
/// independent of sweep order.
template <typename P, typename MakeParams, typename ConfigGen, typename Pred>
[[nodiscard]] std::vector<ScalingPoint> measure_scaling_sweep(
    const std::vector<int>& ns, MakeParams&& mk, ConfigGen&& gen, Pred&& pred,
    int trials, std::uint64_t seed_base, std::uint64_t tag_base,
    int threads = 0, std::uint64_t check_every = 0) {
  std::vector<ScalingPoint> points;
  points.reserve(ns.size());
  for (int n : ns) {
    const auto params = mk(n);
    ScalingPoint pt;
    pt.n = params.n;
    pt.stats = measure_convergence_parallel<P>(
        params,
        [&](core::Xoshiro256pp& rng) { return gen(params, rng); }, pred,
        trials, sweep_budget(params.n), seed_base,
        (tag_base << 32) | static_cast<std::uint64_t>(params.n), threads,
        check_every);
    points.push_back(std::move(pt));
  }
  return points;
}

/// Fits median hitting time ~ c * n^e over the sweep. All-failure points
/// and zero medians cannot be fit on log-log axes; they are skipped and
/// counted in the returned PowerFit::skipped, and the fit comes back with
/// valid == false (NaN values) when fewer than two usable points remain.
[[nodiscard]] core::PowerFit fit_median_scaling(
    const std::vector<ScalingPoint>& points);

/// median / (n^2 * log2 n) — the paper's Theorem-3.1 normalization.
/// All-failure points (stats.raw empty) yield NaN, never a misleading 0;
/// check point.stats.failures for the failure count.
[[nodiscard]] double normalized_n2logn(const ScalingPoint& point);
/// median / n^2 and median / n^3 (the neighboring normalizations); same
/// NaN-on-all-failure contract.
[[nodiscard]] double normalized_n2(const ScalingPoint& point);
[[nodiscard]] double normalized_n3(const ScalingPoint& point);

}  // namespace ppsim::analysis
