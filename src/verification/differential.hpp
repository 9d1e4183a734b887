// Cross-engine differential fuzzing: replay one seed-determined execution
// through every engine the repo has and assert they never disagree.
//
// The repo's determinism contract says these six lanes are bit-identical
// per step for the same (params, initial configuration, seed):
//
//   A  Runner::run_unbatched   — the reference scheduler path
//   B  Runner::run             — the fused scalar fast path: the ensemble's
//                                scalar loop on Runner's ScalarOnly ring 0
//   C  EnsembleRunner, generic — the same loop, built core::kScalarOnly
//   D  EnsembleRunner, packed  — the accelerated ensemble lane: the
//                                pair-transition LUT (HasPackedStates) or
//                                the word-kernel lane (core::HasWordKernel,
//                                P_PL — cross-checked against every scalar
//                                lane here, which is what certifies the
//                                packed kernel rather than assuming it).
//                                One ring, so for P_PL this is the
//                                single-ring grouped driver
//                                (WordGroupDriver::run_block) from
//                                EnsembleRunner::kWordCrossoverN up; below
//                                it the ring advances alone on the scalar
//                                loop, and only lane G runs the kernel
//   E  checker mirror          — ModelChecker<M>::successor driven by a
//                                cloned RNG stream: every step decodes,
//                                applies M::apply, re-encodes, so the
//                                checker adapter's pack/unpack/apply are
//                                cross-checked against the protocol proper
//   G  EnsembleRunner lockstep  — only for word-kernel protocols: ring 0
//                                (the lanes' seed + initial) plus decoy
//                                rings advanced together through run(), so
//                                ring 0 is carried by the cross-ring
//                                grouped driver and its lane-parallel
//                                vector RNG — certifying the column-r ==
//                                scalar-stream-r RNG contract against
//                                every scalar lane above
//
// There is no lane F: lane letters stay fixed so divergence messages keep
// their meaning.
//
// The harness advances all lanes in blocks of `check_every` interactions
// and, at every checkpoint, compares full configurations (operator==),
// step counters, the incremental leader/token censuses and
// last_leader_change, plus a from-scratch census recount as ground truth.
// Optional fault storms overwrite the same (agent, state) pairs in every
// lane mid-run through each engine's set_agent (delta census in all of
// them; the packed lane exercises its in-domain fast path or its
// documented fallback-to-generic, both of which must stay exact).
//
// Interaction schedules are never materialized: each lane owns an RNG
// seeded identically and the engines' documented stream identity
// (bounded == bounded_with_threshold value-for-value) makes the schedules
// equal by construction — which is exactly the contract being fuzzed.
// Fault schedules come from a *separate* RNG stream (stream_seed(seed,
// streams::kFaults), the scenario-engine convention) so storms never
// perturb the interaction
// schedule. With fault_storms == 0 the trajectory is independent of
// check_every (checkpoints only read state) — the quantized-hitting-time
// contract of analysis/experiment.hpp, pinned by
// tests/verification/differential_test.cpp.
//
// Topology and scheduler faults. The whole matrix is templated on a
// core::Topology (ring by default, bit-identical to the pre-topology
// harness): engines draw arcs from Topo::endpoints and the mirror from
// ModelChecker<M, MirrorTopo>::successor, so a single mis-mapped arc in
// either shows up as a named lane divergence at the next checkpoint.
// FuzzConfig::loss_p / arc_bias put the scheduler-fault loops themselves
// under differential fire — every engine lane gets the same
// core::SchedulerFaults and the mirror independently replays the
// loss-stream/bias-draw contract (see run_differential).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ensemble.hpp"
#include "core/model_checker.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "core/stream_tags.hpp"
#include "core/topology.hpp"

namespace ppsim::verification {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::uint64_t steps = 4096;      ///< interactions per lane
  std::uint64_t check_every = 64;  ///< checkpoint (and storm) granularity
  int fault_storms = 0;            ///< storms at random checkpoints
  int faults_per_storm = 0;        ///< set_agent calls per storm
  /// Scheduler faults (core::SchedulerFaults), applied to every engine lane
  /// AND replicated in the checker mirror: omission probability per drawn
  /// interaction (dedicated loss stream, seed ^ core::kLossStreamTag) and
  /// an optional non-uniform arc distribution (one raw main-stream draw per
  /// interaction). Active faults force every engine onto its scalar/generic
  /// path, so the accelerated lanes (D packed, G) drop out of the matrix —
  /// what remains is still a full cross-check of the faulted scalar loops
  /// against the mirror's independent replay.
  double loss_p = 0.0;
  std::vector<double> arc_bias;  ///< empty = uniform; else one weight/arc
};

struct FuzzReport {
  bool ok = true;
  std::uint64_t checkpoints = 0;
  std::uint64_t interactions = 0;
  std::uint64_t faults = 0;
  /// Fold of every checkpoint observation (configs + censuses + clocks):
  /// two runs agree on this iff they followed the same trajectory and
  /// checkpoint schedule.
  std::uint64_t digest = 0;
  /// Fold of the final configuration + censuses only: invariant across
  /// check_every granularities when fault_storms == 0.
  std::uint64_t final_digest = 0;
  bool packed_lane = false;  ///< lane D ran in (and stayed in) an
                             ///< accelerated mode (LUT or word kernel;
                             ///< a word-lane ring below kWordCrossoverN
                             ///< still advances on the scalar loop)
  bool mirror_lane = false;  ///< lane E (checker adapter) participated
  bool lockstep_lane = false;  ///< lane G ran (and stayed) in word-kernel
                               ///< mode, i.e. ring 0 went through the
                               ///< cross-ring vector-RNG driver
  std::string divergence;    ///< first mismatch, human readable; empty if ok
};

namespace detail {

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t h,
                                            std::uint64_t v) noexcept {
  std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Logical per-state fold: the describe() rendering when the protocol has
/// one (immune to padding bytes; same customization point the checker
/// adapters use, core::HasStateDescription), the canonical packed value
/// when enumerable, raw bytes as a last resort.
template <typename P>
[[nodiscard]] std::uint64_t fold_state(std::uint64_t h,
                                       const typename P::State& s,
                                       const typename P::Params& p) {
  if constexpr (core::HasPackedStates<P>) {
    return mix64(h, static_cast<std::uint64_t>(P::pack_state(s, p)));
  } else if constexpr (core::HasStateDescription<P>) {
    std::uint64_t f = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const char c : P::describe(s, p))
      f = (f ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return mix64(h, f);
  } else {
    static_assert(std::is_trivially_copyable_v<typename P::State>,
                  "differential digest needs describe(), pack_state() or a "
                  "trivially copyable state");
    std::uint64_t f = 0xcbf29ce484222325ULL;
    unsigned char bytes[sizeof(typename P::State)];
    std::memcpy(bytes, &s, sizeof(bytes));
    for (const unsigned char c : bytes) f = (f ^ c) * 0x100000001b3ULL;
    return mix64(h, f);
  }
}

template <typename P>
[[nodiscard]] std::string render_state(const typename P::State& s,
                                       const typename P::Params& p) {
  if constexpr (core::HasStateDescription<P>) {
    return P::describe(s, p);
  } else if constexpr (core::HasPackedStates<P>) {
    return "q" + std::to_string(P::pack_state(s, p));
  } else {
    return "(state)";
  }
}

}  // namespace detail

/// Replay one execution through every applicable lane. `initial` is the
/// shared starting configuration; `fault_state` generates storm payloads:
/// State fault_state(const Params&, core::Xoshiro256pp&, const State&
/// current, int agent) — the current state and position let input-carrying
/// protocols (P_OR's coloring) corrupt only their writable variables.
/// M names a checker adapter to mirror (void = no mirror lane; the mirror
/// also drops out when the adapter's state space exceeds id capacity).
/// Topo selects the interaction topology for every engine lane; MirrorTopo
/// (defaulting to Topo) is the mirror's — letting the canary test prove a
/// deliberately mis-mapped topology is caught and named as a lane E
/// divergence (tests/verification/topology_differential_test.cpp).
template <typename P, typename M = void, typename Topo = core::RingTopology,
          typename MirrorTopo = Topo, typename FaultState>
[[nodiscard]] FuzzReport run_differential(
    const typename P::Params& params,
    const std::vector<typename P::State>& initial, const FuzzConfig& cfg,
    FaultState&& fault_state) {
  using State = typename P::State;
  static_assert(std::equality_comparable<State>,
                "differential comparison needs operator== on states");
  constexpr bool kMirrorable = !std::is_void_v<M>;

  FuzzReport rep;
  const int n = params.n;
  const Topo topo(n);
  [[maybe_unused]] const auto arc_count =
      static_cast<std::uint64_t>(topo.arc_count(P::directed));

  // Lanes A-D.
  core::Runner<P, Topo> lane_a(params, initial, cfg.seed);
  core::Runner<P, Topo> lane_b(params, initial, cfg.seed);
  core::EnsembleRunner<P, Topo> lane_c(core::kScalarOnly, params, 1);
  lane_c.add_ring(initial, cfg.seed);
  core::EnsembleRunner<P, Topo> lane_d(params, 1);
  lane_d.add_ring(initial, cfg.seed);
  // Lane G: ring 0 shares the lanes' seed and initial configuration; the
  // decoys exist only to fill a full SIMD group so ring 0 is advanced as a
  // vector column of the cross-ring driver (word-kernel protocols only —
  // for everything else run() degenerates to lane C's per-ring loop).
  constexpr bool kHaveLaneG = core::EnsembleRunner<P, Topo>::kWordable;
  constexpr int kLockstepRings = 8;  // >= widest cross-ring group (WordVec8)
  std::optional<core::EnsembleRunner<P, Topo>> lane_g;
  if constexpr (kHaveLaneG) {
    lane_g.emplace(params, kLockstepRings);
    lane_g->add_ring(initial, cfg.seed);
    for (int r = 1; r < kLockstepRings; ++r)
      lane_g->add_ring(initial,
                       core::derive_seed(cfg.seed,
                                         core::streams::kLockstepDecoy,
                                         static_cast<std::uint64_t>(r)));
  }

  // Scheduler faults: identical in every engine lane (same loss stream,
  // same bias table), replicated by hand in the mirror below. Applied
  // BEFORE have_lane_d is measured — active faults force the generic path,
  // at which point lane D would only duplicate lane C.
  core::SchedulerFaults sched;
  sched.loss_p = cfg.loss_p;
  sched.arc_weights = cfg.arc_bias;
  const bool have_sched = sched.active();
  if (have_sched) {
    lane_a.set_scheduler_faults(sched);
    lane_b.set_scheduler_faults(sched);
    lane_c.set_scheduler_faults(sched);
    lane_d.set_scheduler_faults(sched);
    if constexpr (kHaveLaneG) lane_g->set_scheduler_faults(sched);
  }
  const bool have_lane_d =
      lane_d.packed_mode() || lane_d.word_kernel_mode();  // else duplicates C

  // Lane E: the checker mirror. Under scheduler faults it replays the exact
  // engine semantics: one (possibly biased) arc draw from the main stream
  // per interaction, then one loss draw from the dedicated stream — a lost
  // interaction is a no-op that still advances the step count.
  [[maybe_unused]] std::uint64_t mirror_id = 0;
  [[maybe_unused]] core::Xoshiro256pp mirror_rng(cfg.seed);
  [[maybe_unused]] core::Xoshiro256pp mirror_loss_rng(
      core::stream_seed(cfg.seed, core::streams::kLoss));
  [[maybe_unused]] const std::uint64_t mirror_loss_threshold =
      have_sched ? core::detail::probability_threshold(cfg.loss_p) : 0;
  [[maybe_unused]] const core::detail::BiasTable mirror_bias =
      cfg.arc_bias.empty()
          ? core::detail::BiasTable()
          : core::detail::BiasTable(std::span<const double>(cfg.arc_bias));
  [[maybe_unused]] auto make_mirror = [&]() {
    if constexpr (kMirrorable) {
      return core::ModelChecker<M, MirrorTopo>(params);
    } else {
      return 0;
    }
  };
  auto mirror = make_mirror();
  if constexpr (kMirrorable) {
    rep.mirror_lane = !mirror.capacity_exceeded();
    if (rep.mirror_lane) mirror_id = mirror.encode(initial);
  }

  // Fault stream (decorrelated from the interaction schedules) and storm
  // checkpoints, drawn up front so the whole schedule is a function of the
  // seed alone.
  core::Xoshiro256pp fault_rng(
      core::stream_seed(cfg.seed, core::streams::kFaults));
  const std::uint64_t check_every =
      cfg.check_every == 0 ? static_cast<std::uint64_t>(n) : cfg.check_every;
  const std::uint64_t num_checkpoints =
      (cfg.steps + check_every - 1) / check_every;
  std::vector<std::uint64_t> storm_at(num_checkpoints, 0);
  if (cfg.fault_storms > 0 && num_checkpoints > 0) {
    for (int s = 0; s < cfg.fault_storms; ++s)
      ++storm_at[fault_rng.bounded(num_checkpoints)];
  }

  const auto fail = [&](const std::string& lane, const std::string& what) {
    rep.ok = false;
    rep.divergence = "step " + std::to_string(lane_a.steps()) + ", lane " +
                     lane + ": " + what;
  };

  // Compare every lane against A; fold the checkpoint into the digest.
  const auto checkpoint = [&]() -> bool {
    const std::span<const State> ref = lane_a.agents();
    const auto compare_span = [&](const std::string& lane,
                                  std::span<const State> got) {
      for (int i = 0; i < n; ++i) {
        if (!(got[static_cast<std::size_t>(i)] ==
              ref[static_cast<std::size_t>(i)])) {
          fail(lane,
               "agent " + std::to_string(i) + " diverged: " +
                   detail::render_state<P>(got[static_cast<std::size_t>(i)],
                                           params) +
                   " vs reference " +
                   detail::render_state<P>(ref[static_cast<std::size_t>(i)],
                                           params));
          return false;
        }
      }
      return true;
    };
    const auto compare_u64 = [&](const std::string& lane, const char* what,
                                 std::uint64_t got, std::uint64_t want) {
      if (got == want) return true;
      fail(lane, std::string(what) + " diverged: " + std::to_string(got) +
                     " vs reference " + std::to_string(want));
      return false;
    };

    if (!compare_span("B(run)", lane_b.agents())) return false;
    if (!compare_u64("B(run)", "steps", lane_b.steps(), lane_a.steps()))
      return false;
    if (!compare_span("C(ensemble-generic)", lane_c.agents(0))) return false;
    if (!compare_u64("C(ensemble-generic)", "steps", lane_c.steps(0),
                     lane_a.steps()))
      return false;
    if (have_lane_d) {
      if (!compare_span("D(ensemble-packed)", lane_d.agents(0))) return false;
      if (!compare_u64("D(ensemble-packed)", "steps", lane_d.steps(0),
                       lane_a.steps()))
        return false;
    }
    if constexpr (kHaveLaneG) {
      if (!compare_span("G(ensemble-lockstep)", lane_g->agents(0)))
        return false;
      if (!compare_u64("G(ensemble-lockstep)", "steps", lane_g->steps(0),
                       lane_a.steps()))
        return false;
    }
    if constexpr (core::HasLeaderOutput<P>) {
      const auto want_l = static_cast<std::uint64_t>(lane_a.leader_count());
      if (!compare_u64("B(run)", "leader_count",
                       static_cast<std::uint64_t>(lane_b.leader_count()),
                       want_l))
        return false;
      if (!compare_u64("C(ensemble-generic)", "leader_count",
                       static_cast<std::uint64_t>(lane_c.leader_count(0)),
                       want_l))
        return false;
      if (have_lane_d &&
          !compare_u64("D(ensemble-packed)", "leader_count",
                       static_cast<std::uint64_t>(lane_d.leader_count(0)),
                       want_l))
        return false;
      if constexpr (kHaveLaneG) {
        if (!compare_u64("G(ensemble-lockstep)", "leader_count",
                         static_cast<std::uint64_t>(lane_g->leader_count(0)),
                         want_l))
          return false;
        if (!compare_u64("G(ensemble-lockstep)", "last_leader_change",
                         lane_g->last_leader_change(0),
                         lane_a.last_leader_change()))
          return false;
      }
      if (!compare_u64("B(run)", "last_leader_change",
                       lane_b.last_leader_change(),
                       lane_a.last_leader_change()))
        return false;
      if (!compare_u64("C(ensemble-generic)", "last_leader_change",
                       lane_c.last_leader_change(0),
                       lane_a.last_leader_change()))
        return false;
      if (have_lane_d &&
          !compare_u64("D(ensemble-packed)", "last_leader_change",
                       lane_d.last_leader_change(0),
                       lane_a.last_leader_change()))
        return false;
    }
    if constexpr (core::HasTokenCensus<P>) {
      const auto want_t = static_cast<std::uint64_t>(lane_a.token_count());
      if (!compare_u64("B(run)", "token_count",
                       static_cast<std::uint64_t>(lane_b.token_count()),
                       want_t))
        return false;
      if (!compare_u64("C(ensemble-generic)", "token_count",
                       static_cast<std::uint64_t>(lane_c.token_count(0)),
                       want_t))
        return false;
      if (have_lane_d &&
          !compare_u64("D(ensemble-packed)", "token_count",
                       static_cast<std::uint64_t>(lane_d.token_count(0)),
                       want_t))
        return false;
      if constexpr (kHaveLaneG) {
        if (!compare_u64("G(ensemble-lockstep)", "token_count",
                         static_cast<std::uint64_t>(lane_g->token_count(0)),
                         want_t))
          return false;
      }
    }
    // Ground truth: the incremental censuses must equal a from-scratch
    // recount of the reference configuration.
    {
      core::RingClock truth;
      truth.steps = lane_a.steps();
      core::InteractionEngine<P>::recount(ref, params, truth);
      if constexpr (core::HasLeaderOutput<P>) {
        if (!compare_u64("A(recount)", "leader_count",
                         static_cast<std::uint64_t>(lane_a.leader_count()),
                         static_cast<std::uint64_t>(truth.leader_count)))
          return false;
      }
      if constexpr (core::HasTokenCensus<P>) {
        if (!compare_u64("A(recount)", "token_count",
                         static_cast<std::uint64_t>(lane_a.token_count()),
                         static_cast<std::uint64_t>(truth.token_count)))
          return false;
      }
    }
    if constexpr (kMirrorable) {
      if (rep.mirror_lane) {
        const auto mirror_cfg = mirror.decode(mirror_id);
        if (!compare_span("E(checker-mirror)", mirror_cfg)) return false;
      }
    }

    // Fold the checkpoint observation.
    std::uint64_t h = rep.digest;
    h = detail::mix64(h, lane_a.steps());
    if constexpr (core::HasLeaderOutput<P>) {
      h = detail::mix64(h, static_cast<std::uint64_t>(lane_a.leader_count()));
      h = detail::mix64(h, lane_a.last_leader_change());
    }
    if constexpr (core::HasTokenCensus<P>) {
      h = detail::mix64(h, static_cast<std::uint64_t>(lane_a.token_count()));
    }
    for (const State& s : ref) h = detail::fold_state<P>(h, s, params);
    rep.digest = h;
    ++rep.checkpoints;
    return true;
  };

  const auto inject_storm = [&](std::uint64_t count) {
    for (std::uint64_t s = 0; s < count; ++s) {
      for (int f = 0; f < cfg.faults_per_storm; ++f) {
        const int idx =
            static_cast<int>(fault_rng.bounded(static_cast<std::uint64_t>(n)));
        const State payload =
            fault_state(params, fault_rng, lane_a.agent(idx), idx);
        lane_a.set_agent(idx, payload);
        lane_b.set_agent(idx, payload);
        lane_c.set_agent(0, idx, payload);
        if (have_lane_d) lane_d.set_agent(0, idx, payload);
        if constexpr (kHaveLaneG) lane_g->set_agent(0, idx, payload);
        if constexpr (kMirrorable) {
          if (rep.mirror_lane) {
            auto cfg_e = mirror.decode(mirror_id);
            cfg_e[static_cast<std::size_t>(idx)] = payload;
            mirror_id = mirror.encode(cfg_e);
          }
        }
        ++rep.faults;
      }
    }
  };

  if (!checkpoint()) return rep;  // initial configurations must agree
  if (cfg.steps == 0 && cfg.fault_storms > 0) {
    // Degenerate zero-interaction run: the block loop below never spins, so
    // honor the exact-fault-count contract by injecting every requested
    // storm against the initial configuration and re-comparing.
    inject_storm(static_cast<std::uint64_t>(cfg.fault_storms));
    if (!checkpoint()) return rep;
  }
  std::uint64_t done = 0;
  std::uint64_t cp = 0;
  while (done < cfg.steps) {
    const std::uint64_t block = std::min(check_every, cfg.steps - done);
    lane_a.run_unbatched(block);
    lane_b.run(block);
    lane_c.run_ring(0, block);
    if (have_lane_d) lane_d.run_ring(0, block);
    if constexpr (kHaveLaneG) lane_g->run(block);  // every ring, lockstep
    if constexpr (kMirrorable) {
      if (rep.mirror_lane) {
        for (std::uint64_t k = 0; k < block; ++k) {
          const int arc =
              mirror_bias.empty()
                  ? static_cast<int>(mirror_rng.bounded(arc_count))
                  : mirror_bias.draw(mirror_rng);
          if (mirror_loss_threshold != 0 &&
              mirror_loss_rng() < mirror_loss_threshold)
            continue;  // lost interaction: a no-op, exactly as in the engines
          mirror_id = mirror.successor(mirror_id, arc);
        }
      }
    }
    done += block;
    rep.interactions = done;
    if (!checkpoint()) return rep;
    // Storms at the *final* checkpoint still inject and re-compare (the
    // post-injection checkpoint covers every lane's set_agent path), so
    // every requested storm runs — faults always totals
    // fault_storms * faults_per_storm.
    if (cp < storm_at.size() && storm_at[cp] > 0) {
      inject_storm(storm_at[cp]);
      if (!checkpoint()) return rep;
    }
    ++cp;
  }

  rep.packed_lane =
      have_lane_d && (lane_d.packed_mode() || lane_d.word_kernel_mode());
  if constexpr (kHaveLaneG) rep.lockstep_lane = lane_g->word_kernel_mode();
  std::uint64_t h = detail::mix64(core::streams::kDigest, lane_a.steps());
  if constexpr (core::HasLeaderOutput<P>) {
    h = detail::mix64(h, static_cast<std::uint64_t>(lane_a.leader_count()));
  }
  if constexpr (core::HasTokenCensus<P>) {
    h = detail::mix64(h, static_cast<std::uint64_t>(lane_a.token_count()));
  }
  for (const State& s : lane_a.agents())
    h = detail::fold_state<P>(h, s, params);
  rep.final_digest = h;
  return rep;
}

/// Seed-indexed fuzz campaign fanned over a thread pool. Trial t draws its
/// seed as derive_seed(base.seed, tag, t) and its initial configuration
/// from make_init(params, rng) with the campaign convention
/// rng(stream_seed(seed, streams::kConfig)) — the pool distributes indices
/// only, so reports are
/// bit-identical for every thread count (the scheduler-replay determinism
/// contract). make_init and fault_state are invoked concurrently and must
/// be stateless or const.
template <typename P, typename M = void, typename Topo = core::RingTopology,
          typename MirrorTopo = Topo, typename MakeInit, typename FaultState>
[[nodiscard]] std::vector<FuzzReport> run_differential_campaign(
    const typename P::Params& params, const FuzzConfig& base, int trials,
    int threads, MakeInit&& make_init, FaultState&& fault_state,
    std::uint64_t tag = core::streams::kDifferentialTrial) {
  std::vector<FuzzReport> reports(static_cast<std::size_t>(trials));
  core::ThreadPool pool(threads);
  pool.for_index(static_cast<std::size_t>(trials), [&](std::size_t t) {
    FuzzConfig cfg = base;
    cfg.seed = core::derive_seed(base.seed, tag,
                                 static_cast<std::uint64_t>(t));
    core::Xoshiro256pp cfg_rng(
        core::stream_seed(cfg.seed, core::streams::kConfig));
    const auto initial = make_init(params, cfg_rng);
    reports[t] = run_differential<P, M, Topo, MirrorTopo>(params, initial,
                                                          cfg, fault_state);
  });
  return reports;
}

}  // namespace ppsim::verification
