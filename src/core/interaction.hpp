// The engine core every scheduler frontend shares: the protocol concepts,
// the scheduler fault models, the per-ring RingClock and InteractionEngine<P>
// (transition dispatch, census, fault injection and the random-scheduler
// scalar loop over a raw agent array). EnsembleRunner (core/ensemble.hpp)
// runs it per ring, and Runner (core/runner.hpp) is ring 0 of a scalar-only
// EnsembleRunner, so every engine executes literally the same loop.
//
// Protocol concept (checked via `requires`):
//
//   struct P {
//     using State  = ...;              // value-semantic agent state
//     using Params = ...;              // protocol parameters (must expose .n)
//     static constexpr bool directed = true;   // directed ring? (false: 2n arcs)
//     static void apply(State& initiator, State& responder, const Params&);
//     // Optional (enables leader tracking and the Omega? oracle):
//     static bool is_leader(const State&, const Params&);
//     // Optional (oracle protocols): the engine passes an InteractionContext.
//     static void apply(State&, State&, const Params&, const InteractionContext&);
//   };
//
// Initiator/responder mapping on the directed ring: arc e_i is the interaction
// (u_i, u_{i+1}) — the *left* agent is the initiator, matching the paper's
// "l is the initiator and r is the responder". On the undirected ring there
// are 2n arcs: e_i and its reverse (u_{i+1}, u_i), each with probability 1/2n.
// The mapping lives behind the Topology interface (core/topology.hpp): the
// engines draw arc ids and resolve them through Topo::endpoints, with
// RingTopology (the default) forwarding to core/ring.hpp's `arc_endpoints`.
// The exhaustive ModelChecker reads the same interface; per-topology
// engine/checker agreement is pinned by tests/core/topology_drift_test.cpp.
//
// Two interaction bodies share one RNG stream and are bit-identical:
// `apply_arc`, the reference path (Runner::step / run_unbatched: one
// `bounded()` draw and an unconditional before/after census per step), and
// `run_block`, the fused fast path (Runner::run and EnsembleRunner's generic
// lane: the Lemire rejection threshold hoisted out of the loop, each draw
// fused into the transition, and for small token-census states a delta
// census that skips a no-op interaction's census — apply_arc_batched).
// Neither changes a census value the other would not, so any mix of
// step()/run()/run_unbatched() gives the same trajectory
// (tests/core/batch_test.cpp; the README's "Delta-census invariant").
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/stream_tags.hpp"
#include "core/topology.hpp"
#include "core/wordlane.hpp"

namespace ppsim::core {

/// Per-interaction environment information for oracle-assisted protocols
/// (Fischer–Jiang's Omega?). `no_leader` is the oracle's report: true iff the
/// population has been leaderless for at least `oracle_delay` steps.
/// `no_token` reports the absence of any token (protocols opt in by exposing
/// `has_token`), with immediate reporting.
struct InteractionContext {
  bool no_leader = false;
  bool no_token = false;
};

/// Stream-derivation tag for the omission/message-loss stream: a runner
/// seeded with `seed` draws its loss events from
/// Xoshiro256pp(stream_seed(seed, kLossStreamTag)), decorrelated from the
/// arc-draw stream. The value lives in the stream-tag registry
/// (core/stream_tags.hpp); this alias keeps the historical name.
inline constexpr std::uint64_t kLossStreamTag = streams::kLoss;

namespace detail {

/// The run_until deadline `steps + max_steps`, saturated at the all-ones
/// step count (npos) instead of wrapping, so an unbounded budget from a
/// ring that has already run means "until the predicate holds" in both
/// engines.
[[nodiscard]] constexpr std::uint64_t run_until_deadline(
    std::uint64_t steps, std::uint64_t max_steps) noexcept {
  const std::uint64_t npos = std::numeric_limits<std::uint64_t>::max();
  return max_steps > npos - steps ? npos : steps + max_steps;
}

/// 64-bit acceptance threshold for an event of probability p: the event
/// fires iff next() < threshold. p >= 1 maps to an all-ones threshold
/// (miss probability 2^-64 — indistinguishable from certain at any budget).
[[nodiscard]] inline std::uint64_t probability_threshold(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(static_cast<long double>(p) *
                                    18446744073709551616.0L);
}

/// Cumulative-threshold table for biased (non-uniform) arc draws: arc i is
/// selected when the raw 64-bit draw falls in [cum[i-1], cum[i]). One raw
/// next() of the *main* scheduler stream per draw, resolved by binary
/// search, so every engine lane and the differential checker mirror that
/// builds the table from the same weights consumes the same stream and
/// draws the same arcs — the bias determinism contract.
class BiasTable {
 public:
  BiasTable() = default;
  explicit BiasTable(std::span<const double> weights) {
    assert(!weights.empty());
    long double total = 0.0L;
    for (const double w : weights) {
      assert(w >= 0.0);
      total += static_cast<long double>(w);
    }
    assert(total > 0.0L);
    cum_.resize(weights.size());
    long double acc = 0.0L;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += static_cast<long double>(weights[i]);
      const long double frac = acc / total;
      cum_[i] = frac >= 1.0L
                    ? std::numeric_limits<std::uint64_t>::max()
                    : static_cast<std::uint64_t>(frac *
                                                 18446744073709551616.0L);
    }
    // Pin the last bucket so no draw can fall off the table's end.
    cum_.back() = std::numeric_limits<std::uint64_t>::max();
  }

  [[nodiscard]] bool empty() const noexcept { return cum_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return cum_.size(); }

  [[nodiscard]] int draw(Xoshiro256pp& rng) const noexcept {
    const std::uint64_t x = rng();
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
    // x == 2^64-1 compares equal to the pinned last bucket; clamp it there.
    const auto idx = it == cum_.end() ? cum_.size() - 1
                                      : static_cast<std::size_t>(
                                            it - cum_.begin());
    return static_cast<int>(idx);
  }

 private:
  std::vector<std::uint64_t> cum_;
};

}  // namespace detail

/// Scheduler fault models (ROADMAP item 3), configured per engine via
/// `set_scheduler_faults`:
///
///  * Omission / message loss: each drawn interaction is lost (the step
///    counts, the clock advances, but no transition fires) with probability
///    `loss_p`. Loss events come from a dedicated stream (seed ^
///    kLossStreamTag), so enabling loss does not perturb the arc-draw
///    stream: the surviving interactions are exactly a subsequence of the
///    clean schedule, and per-trial determinism (same seed, same faulted
///    trajectory, any thread count) is preserved.
///  * Biased arc distribution: `arc_weights[arc]` proportional to the draw
///    probability (size must equal the engine's arc_count; empty keeps the
///    uniform scheduler). Biased draws consume exactly one raw 64-bit value
///    of the main stream per interaction (see detail::BiasTable).
///
/// Active faults pin EnsembleRunner to its generic path — its accelerated
/// lanes (LUT, word kernel) assume the clean uniform scheduler.
/// Deterministic scheduling entry points (apply_arc, apply_sequence) always
/// bypass faults.
struct SchedulerFaults {
  double loss_p = 0.0;
  std::vector<double> arc_weights;

  [[nodiscard]] bool active() const noexcept {
    return loss_p > 0.0 || !arc_weights.empty();
  }

  /// Reject inputs the engines cannot run, in every build type: `loss_p`
  /// outside [0, 1] or NaN, an `arc_weights` table whose size is neither 0
  /// nor `arc_count`, and weights that are negative, non-finite or all zero.
  /// Throws std::invalid_argument. EnsembleRunner::set_scheduler_faults
  /// calls this first.
  void validate(int arc_count) const {
    if (!(loss_p >= 0.0 && loss_p <= 1.0)) {
      throw std::invalid_argument("SchedulerFaults: loss_p must be in [0, 1]");
    }
    if (arc_weights.empty()) return;
    if (arc_weights.size() != static_cast<std::size_t>(arc_count)) {
      throw std::invalid_argument(
          "SchedulerFaults: arc_weights has " +
          std::to_string(arc_weights.size()) + " entries, the topology " +
          std::to_string(arc_count) + " arcs");
    }
    double total = 0.0;
    for (const double w : arc_weights) {
      if (!(w >= 0.0 && std::isfinite(w))) {
        throw std::invalid_argument(
            "SchedulerFaults: arc weights must be finite and non-negative");
      }
      total += w;
    }
    if (!(total > 0.0 && std::isfinite(total))) {
      throw std::invalid_argument(
          "SchedulerFaults: arc weights must have a finite positive sum");
    }
  }
};

template <typename P>
concept HasLeaderOutput = requires(const typename P::State& s,
                                   const typename P::Params& p) {
  { P::is_leader(s, p) } -> std::convertible_to<bool>;
};

template <typename P>
concept HasTokenCensus = requires(const typename P::State& s,
                                  const typename P::Params& p) {
  { P::has_token(s, p) } -> std::convertible_to<bool>;
};

template <typename P>
concept WantsOracle =
    requires(typename P::State& a, typename P::State& b,
             const typename P::Params& p, const InteractionContext& ctx) {
      P::apply(a, b, p, ctx);
    };

/// Protocols exposing a 64-bit word-packed transition kernel (P_PL,
/// src/pl/packed_protocol.hpp): a parameter-derived bit layout
/// (`word_layout`, with a `fits()` capacity probe), a pack/unpack pair that
/// is a bijection on the protocol's declared per-field domain and *fails to
/// round-trip* on anything outside it (the engines' acceptance test), a
/// transition `apply_word` bit-identical to `apply` on in-domain states, and
/// the leader output read straight off the word — the engines' grouped
/// driver requires word_leader to BE bit 0 of the word (it probes exactly
/// that at activation and keeps the scalar path otherwise, so a layout
/// with the leader flag elsewhere degrades, never corrupts). It serves
/// states far too many for EnsembleRunner's pair-transition LUT (P_PL packs
/// into ~45-51 bits against the LUT's 2^16-pair budget) that still fit one
/// machine word — the payoff of the paper's poly-logarithmic state bound.
template <typename P>
concept HasWordKernel =
    requires(const typename P::Params& p, const typename P::State& s,
             const typename P::WordLayout& lay,
             const typename P::WordKernelConsts& kc, std::uint64_t& w,
             WordVec& v, WordVec8& v8) {
      { P::word_layout(p) } -> std::convertible_to<typename P::WordLayout>;
      { lay.fits() } -> std::convertible_to<bool>;
      { P::pack_word(s, lay) } -> std::convertible_to<std::uint64_t>;
      { P::unpack_word(w, lay) } -> std::same_as<typename P::State>;
      { P::word_leader(w, lay) } -> std::convertible_to<bool>;
      {
        P::make_word_consts(lay)
      } -> std::convertible_to<typename P::WordKernelConsts>;
      P::apply_word_one(w, w, kc);
      P::apply_word_x4(v, v, kc);
      P::apply_word_x8(v8, v8, kc);
    };

/// A word kernel is runnable by EnsembleRunner when the protocol
/// takes no oracle input (the kernel sees only the two words), has no token
/// census (the kernel exposes only the leader output; P_PL's leader-only
/// census is exactly this shape) and states are equality-comparable (the
/// round-trip acceptance test).
template <typename P>
concept WordKernelRunnable =
    HasWordKernel<P> && !WantsOracle<P> && !HasTokenCensus<P> &&
    std::equality_comparable<typename P::State>;

namespace detail {
/// Storage types for the word layout / kernel constants: the protocol's
/// types when it has a word kernel, empty placeholders otherwise (so
/// engines can declare the members unconditionally).
template <typename P>
struct WordTypesOf {
  struct Layout {};
  struct Consts {};
};
template <typename P>
  requires HasWordKernel<P>
struct WordTypesOf<P> {
  using Layout = typename P::WordLayout;
  using Consts = typename P::WordKernelConsts;
};
}  // namespace detail

/// Per-ring scheduler bookkeeping: step counter, incremental leader/token
/// census, the Omega? leaderless clock and the oracle delay. One per ring of
/// an EnsembleRunner (stored as a contiguous array there).
struct RingClock {
  static constexpr std::uint64_t npos =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t steps = 0;
  std::uint64_t last_leader_change = 0;
  std::uint64_t leaderless_since = npos;
  std::uint64_t oracle_delay = 0;
  int leader_count = 0;
  int token_count = 0;

  /// The one leader-census update, shared by every engine path: fold the
  /// leader-count `delta` of the interaction with 0-based index `step`,
  /// stamp last_leader_change when a leader bit `changed`, and keep the
  /// invariant "leader_count == 0 iff leaderless_since is set". Both stamps
  /// are step + 1, the step count once that interaction is done; a fault
  /// injected between interactions passes steps - 1 so it stamps `steps`.
  /// The + 1 stays inside the branches: computed up front, it becomes a
  /// second induction variable in the engines' hot loops.
  [[gnu::always_inline]] inline void note_leaders(int delta, bool changed,
                                                  std::uint64_t step) noexcept {
    leader_count += delta;
    if (changed) last_leader_change = step + 1;
    if (leader_count > 0) {
      leaderless_since = npos;
    } else if (leaderless_since == npos) {
      leaderless_since = step + 1;
    }
  }
};

/// The per-interaction core of the engine, operating on a raw agent array and
/// a RingClock — every census shape, the oracle context, the delta-census
/// fast path and fault injection in one place, shared by every EnsembleRunner
/// lane (and so by Runner, its scalar-only ring 0) so no two paths can drift.
template <typename P>
struct InteractionEngine {
  using State = typename P::State;
  using Params = typename P::Params;

  // Token-census states that fit a 64-bit image are snapshotted before the
  // transition so a no-op interaction (bitwise-equal states) can skip the
  // census — including all four has_token re-evaluations — entirely; for
  // Fischer–Jiang-style oracle protocols most interactions are no-ops once
  // stabilized and this is a measured ~1.8x. Padding bytes may spuriously
  // differ in the image; that only costs a redundant census pass, never a
  // missed one. Leader-only protocols deliberately do NOT snapshot: their
  // census is two single-byte predicate reads anyway, and re-loading a
  // word-sized image right after the transition's byte stores trips
  // store-to-load-forwarding stalls that measured far more expensive than
  // the census being skipped (modk went 4x slower).
  static constexpr bool kSnapshotStates = HasLeaderOutput<P> &&
                                          HasTokenCensus<P> &&
                                          std::is_trivially_copyable_v<State> &&
                                          sizeof(State) <= 8;

  /// Zero-filled 64-bit image of a state (single-compare equality).
  [[nodiscard]] static std::uint64_t state_image(const State& s) noexcept
    requires(kSnapshotStates)
  {
    std::uint64_t v = 0;
    std::memcpy(&v, &s, sizeof(State));
    return v;
  }

  static void dispatch(State& a, State& b, const Params& params,
                       const RingClock& clk) {
    if constexpr (WantsOracle<P>) {
      InteractionContext ctx;
      ctx.no_leader = clk.leaderless_since != RingClock::npos &&
                      clk.steps - clk.leaderless_since >= clk.oracle_delay;
      ctx.no_token = clk.token_count == 0;
      P::apply(a, b, params, ctx);
    } else {
      P::apply(a, b, params);
    }
  }

  /// Fold the post-transition predicate values of the touched pair into the
  /// census, given the pre-transition values. Shared by both scheduler paths.
  static void census_after(const State& a, const State& b, bool la, bool lb,
                           int ta, int tb, const Params& params,
                           RingClock& clk) {
    if constexpr (HasLeaderOutput<P>) {
      const bool la2 = P::is_leader(a, params);
      const bool lb2 = P::is_leader(b, params);
      const int delta = static_cast<int>(la2) - static_cast<int>(la) +
                        static_cast<int>(lb2) - static_cast<int>(lb);
      const bool changed = la != la2 || lb != lb2;
      clk.note_leaders(delta, changed, clk.steps);
      if constexpr (HasTokenCensus<P>) {
        clk.token_count += (P::has_token(a, params) ? 1 : 0) - ta +
                           (P::has_token(b, params) ? 1 : 0) - tb;
      }
    }
  }

  /// One interaction of the reference path: unconditional before/after
  /// census. `agents` is the contiguous state array of params.n slots; the
  /// caller resolves the drawn arc id to endpoints through its Topology
  /// (the engine core is topology-agnostic).
  static void apply_arc(State* agents, ArcEndpoints e, const Params& params,
                        RingClock& clk) {
    State& a = agents[e.initiator];
    State& b = agents[e.responder];
    if constexpr (HasLeaderOutput<P>) {
      const bool la = P::is_leader(a, params);
      const bool lb = P::is_leader(b, params);
      int ta = 0, tb = 0;
      if constexpr (HasTokenCensus<P>) {
        ta = P::has_token(a, params) ? 1 : 0;
        tb = P::has_token(b, params) ? 1 : 0;
      }
      dispatch(a, b, params, clk);
      census_after(a, b, la, lb, ta, tb, params, clk);
    } else {
      dispatch(a, b, params, clk);
    }
    ++clk.steps;
  }

  /// One interaction of the fast path: delta census via state snapshots
  /// when kSnapshotStates, apply_arc otherwise. Bit-identical to apply_arc()
  /// — see the header comment.
  static void apply_arc_batched(State* agents, ArcEndpoints e,
                                const Params& params, RingClock& clk) {
    if constexpr (kSnapshotStates) {
      State& a = agents[e.initiator];
      State& b = agents[e.responder];
      // Images are built straight from the array slots (two loads each);
      // the old states are only materialized on the rare changed path.
      const std::uint64_t image_a = state_image(a);
      const std::uint64_t image_b = state_image(b);
      dispatch(a, b, params, clk);
      if (state_image(a) != image_a || state_image(b) != image_b) {
        State oa, ob;
        std::memcpy(&oa, &image_a, sizeof(State));
        std::memcpy(&ob, &image_b, sizeof(State));
        // The snapshot supplies the "before" predicate values.
        const bool la = P::is_leader(oa, params);
        const bool lb = P::is_leader(ob, params);
        const int ta = P::has_token(oa, params) ? 1 : 0;
        const int tb = P::has_token(ob, params) ? 1 : 0;
        census_after(a, b, la, lb, ta, tb, params, clk);
      }
      ++clk.steps;
    } else {
      apply_arc(agents, e, params, clk);
    }
  }

  /// The random-scheduler scalar loop: `k` uniform draws from `rng`, each
  /// through apply_arc_batched — the one per-ring loop behind Runner::run
  /// and EnsembleRunner's generic lane. The RNG, clock and topology are
  /// copied into locals for the block and stored back at its end: the
  /// compiler keeps them in registers, while through the caller's storage
  /// every byte-sized state store (which may alias anything) would force
  /// them to reload per step. [[gnu::flatten]] pins the full inlining of
  /// apply_arc_batched and the RNG regardless of translation-unit size: in
  /// a TU that instantiates several protocols' engines
  /// (bench/ensemble_json.cpp) GCC's unit-growth budget otherwise stops
  /// inlining here.
  template <typename Topo>
  [[gnu::flatten]] static void run_block(State* agents, const Topo& topo0,
                                         std::uint64_t bound,
                                         std::uint64_t threshold,
                                         const Params& params,
                                         Xoshiro256pp& rng0, RingClock& clk0,
                                         std::uint64_t k) {
    const Topo topo = topo0;
    Xoshiro256pp rng = rng0;
    RingClock clk = clk0;
    for (std::uint64_t i = 0; i < k; ++i) {
      apply_arc_batched(agents,
                        topo.endpoints(static_cast<int>(
                            rng.bounded_with_threshold(bound, threshold))),
                        params, clk);
    }
    rng0 = rng;
    clk0 = clk;
  }

  /// run_block under scheduler faults, kept separate so the clean loop's
  /// codegen is untouched. A non-empty `bias` replaces the uniform draw by
  /// one biased draw of the main stream; with `loss_threshold` != 0 every
  /// draw then consumes one value of `loss_rng0`, and a lost draw counts the
  /// step without firing a transition (see SchedulerFaults).
  template <typename Topo>
  [[gnu::flatten]] static void run_block_faulted(
      State* agents, const Topo& topo0, std::uint64_t bound,
      std::uint64_t threshold, const Params& params,
      const detail::BiasTable& bias, std::uint64_t loss_threshold,
      Xoshiro256pp& rng0, Xoshiro256pp& loss_rng0, RingClock& clk0,
      std::uint64_t k) {
    const Topo topo = topo0;
    Xoshiro256pp rng = rng0;
    Xoshiro256pp loss_rng = loss_rng0;
    RingClock clk = clk0;
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc =
          bias.empty()
              ? static_cast<int>(rng.bounded_with_threshold(bound, threshold))
              : bias.draw(rng);
      if (loss_threshold != 0 && loss_rng() < loss_threshold) {
        ++clk.steps;
        continue;
      }
      apply_arc_batched(agents, topo.endpoints(arc), params, clk);
    }
    rng0 = rng;
    loss_rng0 = loss_rng;
    clk0 = clk;
  }

  /// Overwrite one agent slot (fault injection): census updated by the delta
  /// of the touched agent's predicates, O(1) per fault. See
  /// EnsembleRunner::set_agent for the oracle-clock semantics.
  static void set_agent(State& slot, const State& s, const Params& params,
                        RingClock& clk) {
    if constexpr (HasLeaderOutput<P>) {
      const bool was = P::is_leader(slot, params);
      const bool now = P::is_leader(s, params);
      clk.note_leaders(static_cast<int>(now) - static_cast<int>(was),
                       was != now, clk.steps - 1);
    }
    if constexpr (HasTokenCensus<P>) {
      clk.token_count += (P::has_token(s, params) ? 1 : 0) -
                         (P::has_token(slot, params) ? 1 : 0);
    }
    slot = s;
  }

  /// Full census recount (construction / ground-truth cross-checks).
  static void recount(std::span<const State> agents, const Params& params,
                      RingClock& clk) {
    if constexpr (HasLeaderOutput<P>) {
      clk.leader_count = 0;
      for (const State& s : agents)
        clk.leader_count += P::is_leader(s, params) ? 1 : 0;
      clk.leaderless_since =
          clk.leader_count == 0 ? clk.steps : RingClock::npos;
    }
    if constexpr (HasTokenCensus<P>) {
      clk.token_count = 0;
      for (const State& s : agents)
        clk.token_count += P::has_token(s, params) ? 1 : 0;
    }
  }
};

}  // namespace ppsim::core
