// Execution engine: drives a population protocol on a ring under either the
// uniformly random scheduler of the paper or a caller-supplied deterministic
// interaction sequence (for Lemma-2.3-style tests).
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
//     // Optional (oracle protocols): the runner passes an InteractionContext.
//     static void apply(State&, State&, const Params&, const InteractionContext&);
//   };
//
// Initiator/responder mapping on the directed ring: arc e_i is the interaction
// (u_i, u_{i+1}) — the *left* agent is the initiator, matching the paper's
// "l is the initiator and r is the responder". On the undirected ring there
// are 2n arcs: e_i and its reverse (u_{i+1}, u_i), each with probability 1/2n.
// The mapping lives behind the Topology interface (core/topology.hpp):
// Runner<P, Topo> draws arc ids and resolves them through Topo::endpoints,
// with RingTopology (the default) forwarding to core/ring.hpp's
// `arc_endpoints` so the ring path is unchanged. The exhaustive ModelChecker
// reads the same interface; per-topology engine/checker agreement is pinned
// by tests/core/topology_drift_test.cpp.
//
// Two scheduler paths share one RNG stream and are bit-identical:
//
//  * `run_unbatched(k)` — the reference path: one `bounded()` draw per step,
//    unconditional before/after predicate census (the engine as originally
//    written).
//  * `run(k)` — the fused fast path: amortized Lemire bounded sampling (the
//    rejection threshold is hoisted out of the loop and each draw is fused
//    into the transition loop; draining the generator's serial dependency
//    chain into a buffer up front measured slower — see README.md), plus a
//    *delta census*: small trivially-copyable states are snapshotted into a
//    64-bit image before the transition, and when the interaction was a
//    no-op (bitwise-equal states — the common case for the O(1)-state
//    baselines once stabilized) the census math and all four predicate
//    re-evaluations are skipped entirely; otherwise the snapshot supplies
//    the "before" predicate values. Protocols without leader/token outputs
//    compile down to a bare draw-and-apply loop.
//
// Both paths maintain identical census values at every step (a no-op
// interaction cannot change any count), so any mix of step()/run()/
// run_unbatched() produces the same trajectory (tests/core/batch_test.cpp).
//
// The per-interaction core (transition dispatch, delta census, fault
// injection, recount) and the random-scheduler scalar loop over it
// (`run_block`, `run_block_faulted`) live in `InteractionEngine<P>`,
// operating on a raw agent array plus a `RingClock`, so `Runner` (one ring)
// and `EnsembleRunner` (core/ensemble.hpp, R rings in one struct-of-arrays
// block) execute literally the same loop — per-ring bit-identity between
// the two engines is by construction, then pinned by
// tests/core/ensemble_test.cpp.
//
// Runner is the scalar engine: the reference path, per-trial runs,
// deterministic scheduling and every topology. Protocols with a word-packed
// kernel (HasWordKernel — P_PL) are accelerated by EnsembleRunner alone: its
// word lane drives the branchless bit-sliced kernel through WordGroupDriver
// below (grouped SIMD execution of scheduler-disjoint interactions, or one
// SIMD lane per ring in cross-ring lockstep; ISA dispatched at runtime),
// bit-identical to Runner's paths and certified so by the differential fuzz
// matrix. A one-ring EnsembleRunner is the single-ring word engine from
// EnsembleRunner::kWordCrossoverN up; below it a ring advancing alone runs
// the scalar loop. See the README's "Word-packed P_PL fast path" for the
// design and the measured trajectory.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/stream_tags.hpp"
#include "core/topology.hpp"
#include "core/wordlane.hpp"

// The wide vector helpers below pass/return 32- and 64-byte vectors whose
// calling convention depends on the ISA; every such function is
// force-inlined, so no standalone symbol's ABI ever materializes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

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
  /// Throws std::invalid_argument. Both engines call this first in
  /// set_scheduler_faults.
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
/// with the leader flag elsewhere degrades, never corrupts). This is the
/// accelerator for
/// protocols whose state space is far too large for EnsembleRunner's
/// pair-transition LUT (P_PL at default parameters packs into ~45-51 bits,
/// i.e. ~2^45 states against the LUT's 2^16-pair budget) but whose per-agent
/// variable block still fits one machine word — the direct payoff of the
/// paper's poly-logarithmic state bound.
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
struct WordLayoutOf {
  struct Empty {};
  using type = Empty;
};
template <typename P>
  requires HasWordKernel<P>
struct WordLayoutOf<P> {
  using type = typename P::WordLayout;
};
template <typename P>
struct WordConstsOf {
  struct Empty {};
  using type = Empty;
};
template <typename P>
  requires HasWordKernel<P>
struct WordConstsOf<P> {
  using type = typename P::WordKernelConsts;
};
}  // namespace detail

/// Per-ring scheduler bookkeeping: step counter, incremental leader/token
/// census, the Omega? leaderless clock and the oracle delay. One per Runner;
/// one per ring in an EnsembleRunner (stored as a contiguous array there).
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
/// fast path and fault injection in one place, shared by Runner and
/// EnsembleRunner so the two scheduler frontends cannot drift.
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
  static constexpr bool kSnapshotStates = HasTokenCensus<P> &&
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

  /// One interaction of the fast path: delta census via state snapshots.
  /// Bit-identical to apply_arc() — see the header comment.
  static void apply_arc_batched(State* agents, ArcEndpoints e,
                                const Params& params, RingClock& clk) {
    State& a = agents[e.initiator];
    State& b = agents[e.responder];
    if constexpr (!HasLeaderOutput<P>) {
      // Compile-time specialization: no outputs to track, bare transition.
      dispatch(a, b, params, clk);
    } else if constexpr (kSnapshotStates) {
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
        int ta = 0, tb = 0;
        if constexpr (HasTokenCensus<P>) {
          ta = P::has_token(oa, params) ? 1 : 0;
          tb = P::has_token(ob, params) ? 1 : 0;
        }
        census_after(a, b, la, lb, ta, tb, params, clk);
      }
    } else {
      const bool la = P::is_leader(a, params);
      const bool lb = P::is_leader(b, params);
      int ta = 0, tb = 0;
      if constexpr (HasTokenCensus<P>) {
        ta = P::has_token(a, params) ? 1 : 0;
        tb = P::has_token(b, params) ? 1 : 0;
      }
      dispatch(a, b, params, clk);
      census_after(a, b, la, lb, ta, tb, params, clk);
    }
    ++clk.steps;
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
  /// inlining here, which once measured the yokota28 ensemble lane at ~0.75x
  /// of the per-trial Runner in BENCH_ensemble.json.
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
  /// Runner::set_agent for the oracle-clock semantics.
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

/// The blocked hot loops of EnsembleRunner's word-kernel lane. The
/// single-ring grouped driver has exactly one entry, run_block: per group
/// of kWordLanes scheduler draws it proves the agent pairs disjoint (a ~2%
/// event at n = 1024, ~0.1% at 16384) and then runs
/// the protocol's branchless vector kernel on all four interactions at
/// once — legal because disjoint interactions commute state-wise, and the
/// RNG draw order is untouched, so the trajectory is bit-identical to the
/// one-at-a-time scalar path (conflicting groups and the k % 4 tail take
/// exactly that path via apply_word_one).
///
/// Census: only the leader bit matters (WordKernelRunnable excludes token
/// censuses), and when no word in the group changed its leader bit the
/// whole census update is a provable no-op (leader_count unchanged, and
/// the RingClock invariant "leader_count == 0 iff leaderless_since is set"
/// makes the leaderless bookkeeping idempotent) — the common case once
/// converged. Otherwise the four updates replay sequentially in draw
/// order, reproducing census_after step for step.
///
/// The vector kernel body is compiled twice on x86-64 — once for the
/// baseline ISA, once under target("avx2") — and dispatched once per
/// process via __builtin_cpu_supports, so the packaged binary needs no
/// special -m flags and still uses 4-wide execution where the hardware
/// has it.
template <typename P>
  requires WordKernelRunnable<P>
struct WordGroupDriver {
  using Consts = typename P::WordKernelConsts;

  /// 2 = AVX-512 (F+DQ+BW+VL, the clones' target set), 1 = AVX2,
  /// 0 = baseline. Probed once per process.
  [[nodiscard]] static int isa_level() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static const int kIsa =
        (__builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0)  ? 2
        : __builtin_cpu_supports("avx2") != 0 ? 1
                                              : 0;
    return kIsa;
#else
    return 0;
#endif
  }

  /// Rings per cross-ring lockstep group at this process's ISA level (the
  /// vector width run_rings_block runs): 8 under AVX-512, else 4.
  [[nodiscard]] static int lockstep_lanes() {
    return isa_level() == 2 ? kLanesOf<WordVec8> : kLanesOf<WordVec>;
  }

  /// The one single-ring word block: advance the ring stored at `words`
  /// `k` interactions through the grouped driver (run_impl), compiled once
  /// per ISA in the out-of-line clones below. EnsembleRunner sends a ring
  /// that advances alone here (run_ring, a near-deadline ring, a lockstep
  /// leftover) only at n >= its kWordCrossoverN; smaller rings run the
  /// scalar loop instead.
  static void run_block(std::uint64_t* words, int n, std::uint64_t bound,
                        std::uint64_t threshold, Xoshiro256pp& rng,
                        RingClock& clk, const Consts& kc, std::uint64_t k) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    const int isa = isa_level();
    if (isa == 2) {
      run_avx512(words, n, bound, threshold, rng, clk, kc, k);
      return;
    }
    if (isa == 1) {
      run_avx2(words, n, bound, threshold, rng, clk, kc, k);
      return;
    }
#endif
    run_base(words, n, bound, threshold, rng, clk, kc, k);
  }

 private:
  /// Leader-census delta for one interaction's before/after words; only a
  /// changed leader bit has any effect (the no-change case is a no-op by
  /// the RingClock invariant). `step` is the interaction's 0-based index —
  /// cross-ring blocks keep clk.steps frozen until the block ends, so the
  /// current step rides as an argument.
  [[gnu::always_inline]] static inline void census_leader_change(
      std::uint64_t oa, std::uint64_t ob, std::uint64_t wa, std::uint64_t wb,
      RingClock& clk, std::uint64_t step) noexcept {
    if constexpr (HasLeaderOutput<P>) {
      if ((((wa ^ oa) | (wb ^ ob)) & 1) != 0) {
        const int delta = static_cast<int>(wa & 1) - static_cast<int>(oa & 1) +
                          static_cast<int>(wb & 1) - static_cast<int>(ob & 1);
        clk.note_leaders(delta, true, step);
      }
    }
  }

  [[gnu::always_inline]] static inline void step_one(std::uint64_t* words,
                                                     int i, int j,
                                                     const Consts& kc,
                                                     RingClock& clk) {
    std::uint64_t wa = words[i];
    std::uint64_t wb = words[j];
    const std::uint64_t oa = wa;
    const std::uint64_t ob = wb;
    P::apply_word_one(wa, wb, kc);
    words[i] = wa;
    words[j] = wb;
    census_leader_change(oa, ob, wa, wb, clk, clk.steps);
    ++clk.steps;
  }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  /// Hardware gather/scatter for the 8-lane clones: one instruction each
  /// instead of a per-lane insert/extract chain (the chain costs ~20 front
  /// end uops per vector and a stack round-trip). Deliberately NOT
  /// always_inline: the surrounding templates carry no target attribute, so
  /// a forced inline would be a target mismatch — as plain target functions
  /// these are legal to *call* from anywhere, and the inliner still folds
  /// them into the avx512 clones where the attributes match. Only 8-lane
  /// instantiations reach them (guarded by if constexpr), and those only
  /// ever execute inside the avx512 clones. The scatters are safe by
  /// construction: indices within one scatter are pairwise distinct
  /// (disjoint group members, or one agent per disjoint ring).
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline WordVec8
  gather8(const std::uint64_t* words, const int* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return (WordVec8)_mm512_i32gather_epi64(vi, words, 8);
  }
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline void
  scatter8(std::uint64_t* words, const int* idx, const WordVec8& v) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    _mm512_i32scatter_epi64(words, vi, (__m512i)v, 8);
  }
  /// Absolute-address forms for the cross-ring lockstep lane, where every
  /// lane reads a different ring's array: the address vector is
  /// per-ring-base + in-ring offset, gathered at scale 1 off a null base.
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline WordVec8
  gather8_addr(const WordVec8& addr) {
    return (WordVec8)_mm512_i64gather_epi64((__m512i)addr, nullptr, 1);
  }
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline void
  scatter8_addr(const WordVec8& addr, const WordVec8& v) {
    _mm512_i64scatter_epi64(nullptr, (__m512i)addr, (__m512i)v, 1);
  }
  static constexpr bool kHaveHwGather = true;
#else
  static constexpr bool kHaveHwGather = false;
#endif

  /// Gather/scatter one group's operand words (G = lanes of VW).
  template <typename VW>
  [[gnu::always_inline]] static inline VW gather(const std::uint64_t* words,
                                                 const int* idx) {
    if constexpr (kLanesOf<VW> == 4) {
      return VW{words[idx[0]], words[idx[1]], words[idx[2]], words[idx[3]]};
    } else if constexpr (kHaveHwGather) {
      return gather8(words, idx);
    } else {
      return VW{words[idx[0]], words[idx[1]], words[idx[2]], words[idx[3]],
                words[idx[4]], words[idx[5]], words[idx[6]], words[idx[7]]};
    }
  }
  template <typename VW>
  [[gnu::always_inline]] static inline void scatter(std::uint64_t* words,
                                                    const int* idx,
                                                    const VW& v) {
    if constexpr (kLanesOf<VW> == 8 && kHaveHwGather) {
      scatter8(words, idx, v);
    } else {
      for (int j = 0; j < kLanesOf<VW>; ++j) words[idx[j]] = v[j];
    }
  }

  /// OR-fold of all lanes (leader-bit change probe).
  template <typename VW>
  [[gnu::always_inline]] static inline std::uint64_t orfold(const VW& v) {
    if constexpr (kLanesOf<VW> == 4) {
      return v[0] | v[1] | v[2] | v[3];
    } else {
      return (v[0] | v[1] | v[2] | v[3]) | (v[4] | v[5] | v[6] | v[7]);
    }
  }

  /// One vectorized group of `lanes(VW)` mutually disjoint interactions:
  /// gather, kernel, scatter, leader-bit delta census (sequential replay in
  /// draw order only when some lane changed a leader bit — otherwise the
  /// whole update is a provable no-op, see the class comment).
  template <typename VW>
  [[gnu::always_inline]] static inline void run_group(std::uint64_t* words,
                                                      const int* ia,
                                                      const int* ib,
                                                      const Consts& kc,
                                                      RingClock& clk) {
    constexpr int G = kLanesOf<VW>;
    VW wa = gather<VW>(words, ia);
    VW wb = gather<VW>(words, ib);
    const VW oa = wa;
    const VW ob = wb;
    if constexpr (G == 4) {
      P::apply_word_x4(wa, wb, kc);
    } else {
      P::apply_word_x8(wa, wb, kc);
    }
    scatter(words, ia, wa);
    scatter(words, ib, wb);
    if constexpr (HasLeaderOutput<P>) {
      const VW dl = (wa ^ oa) | (wb ^ ob);
      if ((orfold(dl) & 1) == 0) [[likely]] {
        clk.steps += static_cast<std::uint64_t>(G);
      } else {
        census_replay<VW>(oa, ob, wa, wb, clk);
      }
    } else {
      clk.steps += static_cast<std::uint64_t>(G);
    }
  }

  /// Per-lane census replay of one group whose update flipped some leader
  /// bit. Rare at steady state, so outlined cold: inlining it would keep a
  /// second copy of the group's operands live across the hot loop and push
  /// the register allocator into spilling the kernel's temporaries.
  template <typename VW>
  [[gnu::cold, gnu::noinline]] static void census_replay(const VW& oa,
                                                         const VW& ob,
                                                         const VW& wa,
                                                         const VW& wb,
                                                         RingClock& clk) {
    for (int j = 0; j < kLanesOf<VW>; ++j) {
      census_leader_change(oa[j], ob[j], wa[j], wb[j], clk, clk.steps);
      ++clk.steps;
    }
  }

  /// Cold outlined per-lane census replay for the cross-ring lockstep
  /// blocks (frozen-clock contract: the running step rides as step0[j]+s).
  template <typename V>
  [[gnu::cold, gnu::noinline]] static void census_replay_rings(
      const V& oa, const V& ob, const V& wa, const V& wb, RingClock* clk,
      const std::uint64_t* step0, std::uint64_t s) {
    for (int j = 0; j < kLanesOf<V>; ++j) {
      census_leader_change(oa[j], ob[j], wa[j], wb[j], clk[j], step0[j] + s);
    }
  }

  /// Conflicted-group fallback, outlined cold for the same register-pressure
  /// reason as census_replay: an overlap inside a half degrades the group to
  /// exact one-at-a-time scalar steps; a cross-half-only overlap (G == 8)
  /// runs the two halves as sequential half-width groups (first half's
  /// stores land before the second half's loads).
  template <typename VW>
  [[gnu::cold, gnu::noinline]] static void run_group_conflicted(
      std::uint64_t* words, const int* ia, const int* ib, int in_half,
      const Consts& kc, RingClock& clk) {
    constexpr int G = kLanesOf<VW>;
    if (in_half != 0) {
      for (int j = 0; j < G; ++j) step_one(words, ia[j], ib[j], kc, clk);
    } else if constexpr (G == 8) {
      run_group<WordVec>(words, ia, ib, kc, clk);
      run_group<WordVec>(words, ia + 4, ib + 4, kc, clk);
    }
  }

  /// Vectorized pairwise-overlap classification of one group of G arcs.
  ///
  /// Every arc's endpoint set is {m, m+1 mod n} for m = arc mod n — the
  /// forward and reversed arcs of an edge share endpoints (core/ring.hpp
  /// arc_endpoints) — so two arcs overlap iff their m-values differ by
  /// 0, 1, or n-1 (mod n). That collapses the O(G^2) four-way equality
  /// scan (112 scalar compares at G = 8) into G-lane difference probes
  /// against lane rotations: rotation r compares lane i with lane
  /// (i+r) mod G, and rotations 1..G/2 cover every unordered pair. The
  /// common case (no overlap anywhere: ~99.3% of groups at n = 16384)
  /// folds the rotation hits into one OR and returns without ever
  /// materializing the in-half/cross split.
  template <int G>
  [[gnu::always_inline]] static inline void classify_group(const int* pm,
                                                           int n,
                                                           int& half_conf,
                                                           int& cross_conf) {
    static_assert(G == 4 || G == 8);
    if constexpr (G == 8) {
      HalfVec8S a;
      __builtin_memcpy(&a, pm, sizeof(a));
      const HalfVec8S vn = vbroadcast<HalfVec8S>(static_cast<std::uint64_t>(n));
      const HalfVec8S v1 = vbroadcast<HalfVec8S>(1);
      const HalfVec8S vn1 = vn - v1;
      const auto probe = [&](HalfVec8S rot) __attribute__((always_inline)) {
        HalfVec8S t = a - rot;        // in [-(n-1), n-1]
        t += vn & (t >> 31);          // mod n, in [0, n-1]
        return (t == HalfVec8S{}) | (t == v1) | (t == vn1);
      };
      const HalfVec8S h1 = probe(__builtin_shufflevector(a, a, 1, 2, 3, 4, 5, 6, 7, 0));
      const HalfVec8S h2 = probe(__builtin_shufflevector(a, a, 2, 3, 4, 5, 6, 7, 0, 1));
      const HalfVec8S h3 = probe(__builtin_shufflevector(a, a, 3, 4, 5, 6, 7, 0, 1, 2));
      const HalfVec8S h4 = probe(__builtin_shufflevector(a, a, 4, 5, 6, 7, 0, 1, 2, 3));
      if (orfold((WordVec)(h1 | h2) | (WordVec)(h3 | h4)) == 0) [[likely]] {
        half_conf = 0;
        cross_conf = 0;
        return;
      }
      // Rotation r pairs lane i with lane (i+r) mod 8; the pair crosses
      // the half boundary iff exactly one of the two lane ids is >= 4.
      constexpr HalfVec8S kIH1 = {-1, -1, -1, 0, -1, -1, -1, 0};
      constexpr HalfVec8S kIH2 = {-1, -1, 0, 0, -1, -1, 0, 0};
      constexpr HalfVec8S kIH3 = {-1, 0, 0, 0, -1, 0, 0, 0};
      const HalfVec8S ih = (h1 & kIH1) | (h2 & kIH2) | (h3 & kIH3);
      const HalfVec8S cr = (h1 & ~kIH1) | (h2 & ~kIH2) | (h3 & ~kIH3) | h4;
      half_conf = orfold((WordVec)ih) != 0;
      cross_conf = orfold((WordVec)cr) != 0;
    } else {
      HalfVec4S a;
      __builtin_memcpy(&a, pm, sizeof(a));
      const HalfVec4S vn = vbroadcast<HalfVec4S>(static_cast<std::uint64_t>(n));
      const HalfVec4S v1 = vbroadcast<HalfVec4S>(1);
      const HalfVec4S vn1 = vn - v1;
      const auto probe = [&](HalfVec4S rot) __attribute__((always_inline)) {
        HalfVec4S t = a - rot;
        t += vn & (t >> 31);
        return (t == HalfVec4S{}) | (t == v1) | (t == vn1);
      };
      const HalfVec4S h1 = probe(__builtin_shufflevector(a, a, 1, 2, 3, 0));
      const HalfVec4S h2 = probe(__builtin_shufflevector(a, a, 2, 3, 0, 1));
      const HalfVec4S any = h1 | h2;
      half_conf = (any[0] | any[1] | any[2] | any[3]) != 0;
      cross_conf = 0;  // no half split at G == 4 (see run_impl)
    }
  }

  /// The block loop at vector width VW (instantiated per ISA clone).
  template <typename VW>
  [[gnu::always_inline]] static inline void run_impl(
      std::uint64_t* words, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp& rng0, RingClock& clk0,
      const Consts& kc0, std::uint64_t k) {
    Xoshiro256pp rng = rng0;
    RingClock clk = clk0;
    // By-value copy: stores through `words` (u64) may alias a *referenced*
    // Consts under TBAA, which would force every kernel constant (and its
    // SIMD broadcast) to reload per group; a local whose address never
    // escapes cannot alias, so the broadcasts hoist out of the loop.
    const Consts kc = kc0;
    constexpr int G = kLanesOf<VW>;
    int ia[G] = {};  // zero-init: k < G legitimately skips the prologue draw
    int ib[G] = {};
    int in_half = 0;
    int cross = 0;
    // Draw one group's arcs and run the pairwise-overlap classification
    // (vectorized, see classify_group). At G == 8 the cross-half overlaps
    // are tracked separately: the two halves
    // can still run vectorized, just sequentially (first half's stores land
    // before the second half's loads). Overlap *inside* a half degrades the
    // whole group to exact one-at-a-time scalar steps.
    const auto draw_group = [&](int* pa, int* pb, int& half_conf,
                                int& cross_conf) __attribute__((
        always_inline)) {
      int pm[G];
      for (int j = 0; j < G; ++j) {
        const int arc =
            static_cast<int>(rng.bounded_with_threshold(bound, threshold));
        const ArcEndpoints e = arc_endpoints(arc, n);
        pa[j] = e.initiator;
        pb[j] = e.responder;
        pm[j] = arc < n ? arc : arc - n;  // edge id shared by both arc dirs
      }
      classify_group<G>(pm, n, half_conf, cross_conf);
    };
    if (k >= static_cast<std::uint64_t>(G)) draw_group(ia, ib, in_half, cross);
    while (k >= static_cast<std::uint64_t>(G)) {
      // Software pipeline: the next group's serial draw chain (one scalar
      // stream — inherently sequential) issues ahead of this group's
      // kernel, so the two overlap in the out-of-order window instead of
      // serializing. Draws depend only on RNG state, never on words, so
      // the stream order is untouched.
      int na[G];
      int nb[G];
      int nih = 0;
      int ncr = 0;
      const bool more = k >= 2 * static_cast<std::uint64_t>(G);
      if (more) draw_group(na, nb, nih, ncr);
      if ((in_half | cross) != 0) [[unlikely]] {
        run_group_conflicted<VW>(words, ia, ib, in_half, kc, clk);
      } else {
        run_group<VW>(words, ia, ib, kc, clk);
      }
      k -= static_cast<std::uint64_t>(G);
      if (more) {
        for (int j = 0; j < G; ++j) {
          ia[j] = na[j];
          ib[j] = nb[j];
        }
        in_half = nih;
        cross = ncr;
      }
    }
    while (k > 0) {
      const int arc =
          static_cast<int>(rng.bounded_with_threshold(bound, threshold));
      const ArcEndpoints e = arc_endpoints(arc, n);
      step_one(words, e.initiator, e.responder, kc, clk);
      --k;
    }
    rng0 = rng;
    clk0 = clk;
  }

  /// Cross-ring lockstep block (the ensemble kernel lane's main engine):
  /// advance `nrings` independent rings `k` interactions each, one vector
  /// lane per ring. Rings never share storage, so — unlike the single-ring
  /// grouped path — no disjointness proof is needed and every iteration
  /// runs the full-width kernel. The G per-ring RNG streams advance as SIMD
  /// columns of one XoshiroLanes engine (one vector xoshiro step + one
  /// vector Lemire product per iteration instead of G scalar draws — the
  /// frontend cost PR 5 measured as the lane's bottleneck), bit-identical
  /// per column to the scalar engines, which are stored back at block end.
  /// The draw for step s+1 issues *before* the kernel of step s (arcs
  /// depend only on RNG state, never on words), so the draw chain and the
  /// kernel's long dependency chain overlap in the out-of-order window
  /// instead of serializing. Per-ring trajectories are bit-identical to
  /// the single-ring engines by construction (each ring consumes exactly
  /// its own stream in order; lockstep only changes the interleaving
  /// *between* rings, which share nothing). `nrings` must be a multiple of
  /// lockstep_lanes(): the caller advances the leftover rings itself.
  template <typename VW>
  [[gnu::always_inline]] static inline void rings_impl(
      std::uint64_t* words_base, std::size_t ring_stride, const int* rings,
      int nrings, int n, std::uint64_t bound, std::uint64_t threshold,
      Xoshiro256pp* rngs, RingClock* clks, const Consts& kc0,
      std::uint64_t k) {
    const Consts kc = kc0;
    constexpr int G = kLanesOf<VW>;
    for (int i = 0; i + G <= nrings; i += G) {
      const int* rg = rings + i;
      std::uint64_t* base[G];
      Xoshiro256pp rng[G];
      RingClock clk[G];
      std::uint64_t step0[G];
      for (int j = 0; j < G; ++j) {
        const int r = rg[j];
        base[j] = words_base + ring_stride * static_cast<std::size_t>(r);
        rng[j] = rngs[r];
        clk[j] = clks[r];
        step0[j] = clk[j].steps;
      }
      XoshiroLanes<VW> lanes;
      lanes.load(rng);
      // clk.steps stays frozen during the block (every ring advances
      // exactly k), so the rare census path takes the running step as an
      // argument and the hot loop never touches the clocks.
      if constexpr (kLanesOf<VW> == 8 && kHaveHwGather) {
        // Fully vectorized lane: endpoints stay SIMD columns end to end.
        // Each lane's operand address is ring-base + agent*8, so one
        // absolute-address hardware gather/scatter per operand replaces
        // the per-lane extract/insert chains (~100 front-end uops/step).
        // Scatter lanes never collide: one agent per disjoint ring.
        VW vbase;
        for (int j = 0; j < G; ++j) {
          vbase[j] = reinterpret_cast<std::uint64_t>(base[j]);
        }
        const VW vn = vbroadcast<VW>(static_cast<std::uint64_t>(n));
        const VW v1 = vbroadcast<VW>(1);
        // Vector arc_endpoints (same mapping as core/ring.hpp): m is the
        // arc's edge id, succ its clockwise neighbour; a reversed arc
        // (undirected only) swaps initiator and responder.
        const auto draw_vec = [&](VW& pa, VW& pb) __attribute__((
            always_inline)) {
          const VW arcs = lanes.bounded_with_threshold(bound, threshold);
          if constexpr (P::directed) {
            pa = arcs;
            const VW t = arcs + v1;
            pb = t & ~veq(t, vn);
          } else {
            const VW rev = vgt(arcs, vn - v1);  // arc >= n: reversed
            const VW m = arcs - (vn & rev);
            const VW t = m + v1;
            const VW succ = t & ~veq(t, vn);
            pa = (m & ~rev) | (succ & rev);
            pb = (succ & ~rev) | (m & rev);
          }
        };
        VW via{};
        VW vib{};
        if (k > 0) draw_vec(via, vib);
        for (std::uint64_t s = 0; s < k; ++s) {
          const VW aa = vbase + (via << 3);
          const VW ab = vbase + (vib << 3);
          VW wa = gather8_addr(aa);
          VW wb = gather8_addr(ab);
          // Software pipeline: next step's draw ahead of this step's
          // kernel.
          VW nva;
          VW nvb;
          const bool more = s + 1 < k;
          if (more) draw_vec(nva, nvb);
          const VW oa = wa;
          const VW ob = wb;
          P::apply_word_x8(wa, wb, kc);
          scatter8_addr(aa, wa);
          scatter8_addr(ab, wb);
          if constexpr (HasLeaderOutput<P>) {
            const VW dl = (wa ^ oa) | (wb ^ ob);
            if ((orfold(dl) & 1) != 0) [[unlikely]] {
              census_replay_rings<VW>(oa, ob, wa, wb, clk, step0, s);
            }
          }
          if (more) {
            via = nva;
            vib = nvb;
          }
        }
      } else {
        int ia[G] = {};  // zero-init: k == 0 legitimately skips the prologue
        int ib[G] = {};
        const auto draw = [&](int* pa, int* pb) __attribute__((
            always_inline)) {
          const VW arcs = lanes.bounded_with_threshold(bound, threshold);
          for (int j = 0; j < G; ++j) {
            const ArcEndpoints e =
                arc_endpoints(static_cast<int>(arcs[j]), n);
            pa[j] = e.initiator;
            pb[j] = e.responder;
          }
        };
        if (k > 0) draw(ia, ib);
        for (std::uint64_t s = 0; s < k; ++s) {
          VW wa;
          VW wb;
          for (int j = 0; j < G; ++j) {
            wa[j] = base[j][ia[j]];
            wb[j] = base[j][ib[j]];
          }
          // Software pipeline: next step's draw ahead of this step's kernel.
          int na[G];
          int nb[G];
          const bool more = s + 1 < k;
          if (more) draw(na, nb);
          const VW oa = wa;
          const VW ob = wb;
          if constexpr (G == 4) {
            P::apply_word_x4(wa, wb, kc);
          } else {
            P::apply_word_x8(wa, wb, kc);
          }
          for (int j = 0; j < G; ++j) {
            base[j][ia[j]] = wa[j];
            base[j][ib[j]] = wb[j];
          }
          if constexpr (HasLeaderOutput<P>) {
            const VW dl = (wa ^ oa) | (wb ^ ob);
            if ((orfold(dl) & 1) != 0) [[unlikely]] {
              census_replay_rings<VW>(oa, ob, wa, wb, clk, step0, s);
            }
          }
          if (more) {
            for (int j = 0; j < G; ++j) {
              ia[j] = na[j];
              ib[j] = nb[j];
            }
          }
        }
      }
      lanes.store(rng);
      for (int j = 0; j < G; ++j) {
        const int r = rg[j];
        clk[j].steps = step0[j] + k;
        rngs[r] = rng[j];
        clks[r] = clk[j];
      }
    }
  }

 public:
  /// Entry point for the cross-ring lockstep block (see rings_impl; nrings
  /// is a multiple of lockstep_lanes()).
  static void run_rings_block(std::uint64_t* words_base,
                              std::size_t ring_stride, const int* rings,
                              int nrings, int n, std::uint64_t bound,
                              std::uint64_t threshold, Xoshiro256pp* rngs,
                              RingClock* clks, const Consts& kc,
                              std::uint64_t k) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    const int isa = isa_level();
    if (isa == 2) {
      rings_avx512(words_base, ring_stride, rings, nrings, n, bound,
                   threshold, rngs, clks, kc, k);
      return;
    }
    if (isa == 1) {
      rings_avx2(words_base, ring_stride, rings, nrings, n, bound, threshold,
                 rngs, clks, kc, k);
      return;
    }
#endif
    rings_impl<WordVec>(words_base, ring_stride, rings, nrings, n, bound,
                        threshold, rngs, clks, kc, k);
  }

 private:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) static void
  rings_avx512(std::uint64_t* words_base, std::size_t ring_stride,
               const int* rings, int nrings, int n, std::uint64_t bound,
               std::uint64_t threshold, Xoshiro256pp* rngs, RingClock* clks,
               const Consts& kc, std::uint64_t k) {
    rings_impl<WordVec8>(words_base, ring_stride, rings, nrings, n, bound,
                         threshold, rngs, clks, kc, k);
  }
  __attribute__((target("avx2"))) static void rings_avx2(
      std::uint64_t* words_base, std::size_t ring_stride, const int* rings,
      int nrings, int n, std::uint64_t bound, std::uint64_t threshold,
      Xoshiro256pp* rngs, RingClock* clks, const Consts& kc,
      std::uint64_t k) {
    rings_impl<WordVec>(words_base, ring_stride, rings, nrings, n, bound,
                        threshold, rngs, clks, kc, k);
  }
  // The single-ring clones stay out of line (noinline) so run_impl is
  // compiled exactly once per ISA, whichever caller reaches it.
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"),
                 noinline)) static void
  run_avx512(std::uint64_t* words, int n, std::uint64_t bound,
             std::uint64_t threshold, Xoshiro256pp& rng, RingClock& clk,
             const Consts& kc, std::uint64_t k) {
    run_impl<WordVec8>(words, n, bound, threshold, rng, clk, kc, k);
  }
  __attribute__((target("avx2"), noinline)) static void run_avx2(
      std::uint64_t* words, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp& rng, RingClock& clk,
      const Consts& kc, std::uint64_t k) {
    run_impl<WordVec>(words, n, bound, threshold, rng, clk, kc, k);
  }
#endif
  [[gnu::noinline]] static void run_base(std::uint64_t* words, int n,
                                        std::uint64_t bound,
                                        std::uint64_t threshold,
                                        Xoshiro256pp& rng, RingClock& clk,
                                        const Consts& kc, std::uint64_t k) {
    run_impl<WordVec>(words, n, bound, threshold, rng, clk, kc, k);
  }
};

/// Simulation runner: the scalar engine. Owns the configuration, the
/// scheduler RNG and step bookkeeping. Copyable (snapshot = copy). `Topo`
/// selects the interaction topology (core/topology.hpp); the default
/// RingTopology reproduces the historical ring engine bit for bit.
template <typename P, typename Topo = RingTopology>
class Runner {
  static_assert(TopologyLike<Topo>);

 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Topology = Topo;
  using Engine = InteractionEngine<P>;

  static constexpr std::uint64_t npos =
      std::numeric_limits<std::uint64_t>::max();

  /// `initial` must hold exactly params.n states (std::invalid_argument
  /// otherwise, in every build type).
  Runner(Params params, std::vector<State> initial, std::uint64_t seed)
      : params_(std::move(params)),
        topo_(params_.n),
        agents_(std::move(initial)),
        rng_(seed),
        seed_(seed) {
    init_engine();
  }

  /// Explicit-topology constructor (topologies that carry more than n).
  /// Throws std::invalid_argument unless topo.n() == params.n.
  Runner(Topo topo, Params params, std::vector<State> initial,
         std::uint64_t seed)
      : params_(std::move(params)),
        topo_(std::move(topo)),
        agents_(std::move(initial)),
        rng_(seed),
        seed_(seed) {
    if (topo_.n() != params_.n)
      throw std::invalid_argument("Runner: topology n != params.n");
    init_engine();
  }

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] const Topo& topology() const noexcept { return topo_; }
  [[nodiscard]] std::span<const State> agents() const noexcept {
    return agents_;
  }
  /// Throws std::out_of_range for i outside [0, n).
  [[nodiscard]] const State& agent(int i) const { return agents_.at(i); }
  [[nodiscard]] int n() const noexcept { return params_.n; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return clk_.steps; }

  /// Number of arcs (= number of equally likely interactions per step under
  /// the clean uniform scheduler).
  [[nodiscard]] int arc_count() const noexcept {
    return topo_.arc_count(P::directed);
  }

  /// Leader census (maintained incrementally; only meaningful when the
  /// protocol has a leader output).
  [[nodiscard]] int leader_count() const noexcept { return clk_.leader_count; }

  /// Token census (maintained incrementally; only meaningful when the
  /// protocol has a `has_token` output).
  [[nodiscard]] int token_count() const noexcept { return clk_.token_count; }

  /// Step index of the most recent change to the *set* of leaders, or 0.
  [[nodiscard]] std::uint64_t last_leader_change() const noexcept {
    return clk_.last_leader_change;
  }

  /// Oracle delay (steps of uninterrupted leaderlessness before Omega?
  /// reports absence). 0 = immediate reporting, the paper's Table-1 regime.
  void set_oracle_delay(std::uint64_t d) noexcept { clk_.oracle_delay = d; }

  /// Overwrite one agent's state (fault injection / adversarial setup).
  /// Counts as a change of the leader set at the current step when the
  /// injected state flips the agent's leader output, so fault-injection
  /// harnesses reading `last_leader_change()` see the injection.
  ///
  /// The census is updated by the delta of the touched agent's predicates
  /// (O(1), no full recount), so fault storms cost O(faults) rather than
  /// O(faults * n). An injection into an already-leaderless population does
  /// not reset the Omega? leaderless clock to "now" — the oracle's delay
  /// counts from the original onset of leaderlessness — and injecting the
  /// last leader away starts the clock at the current step, exactly as a
  /// transition would. Throws std::out_of_range for i outside [0, n).
  void set_agent(int i, const State& s) {
    Engine::set_agent(agents_.at(i), s, params_, clk_);
  }

  /// Configure the scheduler fault models (see SchedulerFaults). Resets the
  /// loss stream to its trial-derived origin (stream_seed(seed,
  /// kLossStreamTag)), so
  /// configuring faults then running is deterministic per seed. Invalid
  /// inputs throw std::invalid_argument (SchedulerFaults::validate).
  void set_scheduler_faults(const SchedulerFaults& f) {
    f.validate(arc_count());
    loss_threshold_ = detail::probability_threshold(f.loss_p);
    bias_ = f.arc_weights.empty() ? detail::BiasTable{}
                                  : detail::BiasTable(f.arc_weights);
    sched_active_ = loss_threshold_ != 0 || !bias_.empty();
    loss_rng_ = Xoshiro256pp(stream_seed(seed_, kLossStreamTag));
  }

  /// True when a scheduler fault model (loss or bias) is configured.
  [[nodiscard]] bool scheduler_faults_active() const noexcept {
    return sched_active_;
  }

  /// Execute a single uniformly random interaction.
  void step() {
    if (!sched_active_) {
      apply_arc(static_cast<int>(rng_.bounded(arc_count())));
      return;
    }
    run(1);
  }

  /// Execute `k` uniformly random interactions through the fused fast path:
  /// the shared scalar loop, clean or faulted (InteractionEngine::run_block
  /// / run_block_faulted).
  void run(std::uint64_t k) {
    const auto bound = static_cast<std::uint64_t>(arc_count());
    const std::uint64_t threshold = Xoshiro256pp::rejection_threshold(bound);
    if (!sched_active_) {
      Engine::run_block(agents_.data(), topo_, bound, threshold, params_,
                        rng_, clk_, k);
    } else {
      Engine::run_block_faulted(agents_.data(), topo_, bound, threshold,
                                params_, bias_, loss_threshold_, rng_,
                                loss_rng_, clk_, k);
    }
  }

  /// Execute `k` uniformly random interactions one draw at a time with the
  /// unconditional before/after census — the pre-batching engine, kept as
  /// the reference path (bench/throughput_json.cpp measures both in one
  /// binary).
  void run_unbatched(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) step();
  }

  /// Execute the interaction identified by `arc` (deterministic scheduling;
  /// always bypasses scheduler faults). For directed protocols arc in
  /// [0, F); for undirected, arcs in [F, 2F) are the endpoint-swapped pairs
  /// (F = topology().forward_arcs(); on the ring F = n and arc n + i
  /// reverses e_i).
  void apply_arc(int arc) {
    Engine::apply_arc(agents_.data(), topo_.endpoints(arc), params_, clk_);
  }

  /// Apply a whole deterministic interaction sequence (arc ids).
  void apply_sequence(std::span<const int> arcs) {
    for (int a : arcs) apply_arc(a);
  }

  /// Run until `pred(agents, params)` holds, checking every `check_every`
  /// steps (granularity of the reported hitting step). Returns the step count
  /// at the first satisfied check, or nullopt if `max_steps` elapse first.
  template <typename Pred>
  std::optional<std::uint64_t> run_until(Pred&& pred, std::uint64_t max_steps,
                                         std::uint64_t check_every = 0) {
    if (check_every == 0)
      check_every = static_cast<std::uint64_t>(params_.n);
    if (pred(agents(), params_)) return clk_.steps;
    const std::uint64_t deadline =
        detail::run_until_deadline(clk_.steps, max_steps);
    while (clk_.steps < deadline) {
      const std::uint64_t block =
          std::min<std::uint64_t>(check_every, deadline - clk_.steps);
      run(block);
      if (pred(agents(), params_)) return clk_.steps;
    }
    return std::nullopt;
  }

  /// Run `k` steps invoking `observer(runner, arc)` after every interaction.
  template <typename Observer>
  void run_observed(std::uint64_t k, Observer&& observer) {
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc = static_cast<int>(rng_.bounded(arc_count()));
      apply_arc(arc);
      observer(*this, arc);
    }
  }

 private:
  /// Shared constructor tail: size check and census recount.
  void init_engine() {
    if (static_cast<int>(agents_.size()) != params_.n)
      throw std::invalid_argument("Runner: initial size != params.n");
    Engine::recount(agents_, params_, clk_);
  }

  Params params_;
  Topo topo_;  ///< after params_: the default ctor builds it from params_.n
  std::vector<State> agents_;
  Xoshiro256pp rng_;
  std::uint64_t seed_ = 0;          ///< origin seed (loss-stream derivation)
  Xoshiro256pp loss_rng_{};  ///< placeholder; set_scheduler_faults derives it
  detail::BiasTable bias_;          ///< non-empty = biased arc distribution
  std::uint64_t loss_threshold_ = 0;  ///< 0 = omission model off
  bool sched_active_ = false;         ///< any scheduler fault model on
  RingClock clk_;
};

}  // namespace ppsim::core

#pragma GCC diagnostic pop
