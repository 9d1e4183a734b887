// Trial-batched simulation: R independent rings of the same Params advanced
// in one engine, for the campaign workloads the SS-LE evaluation lives on
// (thousands of trials per (protocol, n, fault-schedule) cell). Runner
// (core/runner.hpp) is ring 0 of an EnsembleRunner built ScalarOnly, so the
// per-trial reference path and the campaign lanes share one RNG, loss
// stream, fault model, census, index check and run-until.
//
// All R rings' agent states sit in one struct-of-arrays block (ring r at
// slots [r*n, (r+1)*n)), with one RingClock and one Xoshiro256pp stream per
// ring in parallel arrays. A ring advances in blocks with its RNG and clock
// copied into locals: through the stored arrays it measured ~1.6x slower.
//
// The scalar loop (InteractionEngine::run_block, the loop Runner::run
// runs) plus at most one accelerator per protocol type, bit-identical per
// ring to it and switched on once, by the constructor:
//
//  * LUT (kPackable) — protocols with a canonical O(1) enumeration of
//    their state space (num_states / pack_state / unpack_state, e.g.
//    modk) and no oracle input get their pair-transition function
//    precomputed, by the generic code path: one 8-byte entry per state
//    pair holding both successors and the census deltas. The hot loop runs
//    on 16-bit codes, and one L1 load replaces the branchy transition and
//    its mispredictions (modk: ~8 ns branchy vs ~1.4 ns of RNG per step),
//    ~2x over per-trial Runners on small-n cells (BENCH_ensemble.json).
//  * word kernel (kWordable, P_PL) — states too many for the LUT but
//    bit-sliced into one uint64_t run the branchless SIMD kernel
//    (core/word_driver.hpp) on u64 words, only at word ISA level 1 (AVX2)
//    or 2 (AVX-512): a word loop compiled without AVX measured 0.19-0.48x
//    of the scalar loop. The constructor records the level, so
//    cap_isa_level changes only ensembles built after it. run(k) advances
//    rings in cross-ring lockstep, one SIMD lane per ring, and
//    run_until_each batches the rings still owed a full check_every block.
//    A batch's last group runs in lockstep too when its rings fill at
//    least half the lanes: the empty lanes are padded onto a scratch ring
//    (pad_words_) with throwaway RNG and clock copies, so they touch no
//    ring. A ring that advances alone (run_ring, a near-deadline ring, a
//    smaller remainder) runs the single-ring grouped driver only from
//    kWordCrossoverN up (runs_word_driver), and the scalar loop on its
//    States otherwise. The analysis drivers size their shards in whole
//    lockstep groups (analysis::detail::balanced_shard_width).
//
// A ring-interleaved variant of the kernels was tried and rejected: register
// pressure beat the ILP win (0.9-1.1x). The accelerator self-validates:
// every enumerated state must round-trip its packing and every transition
// stay in the domain, and every state entering the ensemble (add_ring,
// set_agent) must round-trip. Any violation, like scheduler faults, drops
// the mirror (drop_mirror) and leaves the ensemble on the generic path for
// good, never on a wrong trajectory (tests/core/ensemble_test.cpp). This is
// what lets analysis::measure_convergence_parallel and measure_recovery
// shard their trials into ensembles without changing a published number.
//
// Mirror contract: the accelerator keeps one Code per agent (u16 LUT codes
// or u64 words) beside the State block, and every ring has exactly one
// authoritative copy, recorded in a per-ring RingOwner (ring_owner(r)):
//   kMirror  the mirror owns the ring; its State block is stale
//   kBoth    the mirror and the State block are both current
//   kStates  the State block owns the ring; its mirror codes are stale
//            (word kernel only: a ring that ran the scalar loop)
// sync_ring decodes a kMirror ring (kMirror -> kBoth) for agents() and span
// predicates. A kStates ring re-encodes its codes (~30 ns per agent) only
// when it rejoins a lockstep batch, which puts State-owning rings last so
// they are the leftovers. set_agent writes whichever copy owns the ring and
// decodes only the overwritten slot for the census delta.
//
// run_until_each retires converged or timed-out rings from a compacted
// active index array, so a few slow rings never pay for the fast majority.
// A check first consults the ring's leader census: a predicate that
// declares unique_leader() (requires_unique_leader: pl::SafePredicate,
// pl::UniqueLeaderPredicate, make_recovery_scenario's default) is rejected
// in O(1) when that count is not 1, with no unpack and no walk. Every study
// safe set opens with that clause, so most failing checks end there (modk:
// 99.9% of recovery_mix's). A lambda or wrapper without the member is never
// gated. Any other check reads whichever copy the ring owns: a predicate
// that accepts a WordRingView reads a word-owned ring's u64 mirror in place
// (pl::SafePredicate, and analysis::RecoveryPredicate when it carries a view
// overload); every other check reads the State block.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/interaction.hpp"
#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/word_driver.hpp"

namespace ppsim::core {

template <typename P>
class Runner;  // core/runner.hpp: ring 0 of a ScalarOnly EnsembleRunner

/// The ring, the only topology. EnsembleRunner keeps a second template
/// parameter, defaulted to this tag and asserted to be it, only because
/// perfbench's lane_of deduces EnsembleRunner<P, Topo>; drop the two
/// together when the benchmark next changes.
struct RingTopology {};

/// Whether `pred` declares the unique-leader clause: it has a
/// unique_leader() member that returns true, a promise that it accepts no
/// configuration whose P::is_leader count is not exactly 1
/// (pl::SafePredicate, analysis::RecoveryPredicate built from such a
/// callable). run_until_each then rejects a ring from its leader census
/// alone. A predicate without the member (any lambda, any wrapper that does
/// not forward it) is never gated.
template <typename Pred>
[[nodiscard]] bool requires_unique_leader(const Pred& pred) noexcept {
  if constexpr (requires {
                  { pred.unique_leader() } -> std::convertible_to<bool>;
                }) {
    return pred.unique_leader();
  } else {
    return false;
  }
}

/// Protocols with a canonical enumeration of their per-agent state space:
/// pack_state is injective on the domain, unpack_state is its inverse, and
/// the domain is closed under apply (validated at table build — violations
/// disable the packed mode rather than corrupting trajectories).
template <typename P>
concept HasPackedStates =
    requires(const typename P::State& s, const typename P::Params& p,
             std::size_t v) {
      { P::num_states(p) } -> std::convertible_to<std::size_t>;
      { P::pack_state(s, p) } -> std::convertible_to<std::size_t>;
      { P::unpack_state(v, p) } -> std::convertible_to<typename P::State>;
    };

/// Read-only view of one word-lane ring: agent i is decoded from the u64
/// mirror on access (P::unpack_word), so a predicate taking this view reads
/// exactly the States sync_ring would have written, without writing them.
/// Valid while the ensemble stays on the word lane and is not resized.
template <typename P>
class WordRingView {
 public:
  using State = typename P::State;
  using Layout = typename P::WordLayout;

  WordRingView(std::span<const std::uint64_t> words,
               const Layout& layout) noexcept
      : words_(words), layout_(&layout) {}

  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }
  [[nodiscard]] State operator[](std::size_t i) const noexcept {
    return P::unpack_word(words_[i], *layout_);
  }
  /// The raw word of agent i and the layout it decodes with, for readers
  /// that extract a few fields instead of decoding the whole State.
  [[nodiscard]] std::uint64_t word(std::size_t i) const noexcept {
    return words_[i];
  }
  [[nodiscard]] const Layout& layout() const noexcept { return *layout_; }

 private:
  std::span<const std::uint64_t> words_;
  const Layout* layout_;
};

/// Which copy of an EnsembleRunner ring is authoritative (see the mirror
/// contract in the header comment; EnsembleRunner::ring_owner).
enum class RingOwner : std::uint8_t {
  kMirror,  ///< the accelerator mirror owns the ring; States are stale
  kBoth,    ///< mirror and States are both current
  kStates,  ///< the States own the ring; the word mirror is stale
};

/// Constructor tag: every ring runs the shared scalar loop, and no LUT or
/// word layout is built. Runner is ring 0 of such an ensemble, so it is the
/// generic reference that differential lanes A and B run on.
struct ScalarOnly {
  explicit ScalarOnly() = default;
};
inline constexpr ScalarOnly kScalarOnly{};

template <typename P, typename Topo = RingTopology>
class EnsembleRunner {
  static_assert(std::is_same_v<Topo, RingTopology>,
                "the ring is the only topology");
  friend class Runner<P>;

 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Engine = InteractionEngine<P>;

  static constexpr std::uint64_t npos =
      std::numeric_limits<std::uint64_t>::max();

  /// Packed-state mode is available when the state space is enumerable, the
  /// protocol takes no oracle input (the table key is the state pair alone)
  /// and states are equality-comparable (round-trip validation).
  static constexpr bool kPackable = HasPackedStates<P> && !WantsOracle<P> &&
                                    std::equality_comparable<State>;

  /// Word-kernel mode (the *kernel lane*): protocols exposing a 64-bit
  /// bit-sliced transition kernel (core::HasWordKernel — P_PL) whose state
  /// space is far too large for the pair-transition LUT. A type gets at
  /// most one accelerator, with one mirror and one fallback contract.
  static constexpr bool kWordable = WordKernelRunnable<P> && !kPackable;
  /// One mirror slot: a u16 LUT code or a u64 word.
  using Code =
      std::conditional_t<kPackable, std::uint16_t, std::uint64_t>;
  static constexpr bool kAccelerable = kPackable || kWordable;

  /// Pair-space cap for the transition table: 2^16 pairs = 512 KiB of
  /// entries. Above that the table thrashes the cache and the branchy
  /// transition wins again.
  static constexpr std::size_t kMaxLutPairs = std::size_t{1} << 16;

  /// Smallest n at which a word-lane ring that advances alone (run_ring, a
  /// near-deadline ring, a lockstep leftover) runs the single-ring grouped
  /// word driver (see runs_word_driver); a smaller ring runs the scalar
  /// loop on its State block. Ungated, that driver measured against
  /// Runner::run on one ring (4 vCPU AVX-512 reference VM, GCC 12 -O3,
  /// blocks of n steps from a random configuration, median of 11 runs of
  /// 1 M steps, CPU time), as the scalar loop's time over the driver's, per
  /// clone (the AVX2 row via cap_isa_level on the same machine):
  ///
  ///   n              16    32    64    96   128   256   512  1024
  ///   AVX-512 x8   0.91  1.09  1.16  1.31  1.39  1.54  1.80  1.83
  ///   AVX2 x4      0.83  1.05  1.06  1.04  1.07  1.19  1.20  1.21
  ///
  /// Both clones pass the scalar loop near n = 32, the AVX2 one only
  /// within noise below 256; from 128 up the AVX-512 clone is clearly
  /// ahead and the AVX2 one is not behind. bench_throughput_json's one-ring
  /// P_PL rows (packed_speedup) at n = 16, 256 and the crossover time both
  /// sides of the gate.
  static constexpr int kWordCrossoverN = 128;

  /// Rings per cross-ring lockstep group of a word-lane ensemble built now,
  /// at this process's word ISA level (WordGroupDriver::lockstep_lanes); 1
  /// at level 0, and for an ensemble type without the word lane. The
  /// analysis drivers size shards in multiples of it.
  [[nodiscard]] static int lockstep_lanes() {
    if constexpr (kWordable) {
      if (const int level = word_isa_level(); level >= 1)
        return WordGroupDriver<P>::lockstep_lanes(level);
    }
    return 1;
  }

  /// Throws std::invalid_argument unless params.n >= 1, in every build
  /// type.
  explicit EnsembleRunner(Params params, int reserve_rings = 0)
      : params_(std::move(params)) {
    init_modes(reserve_rings, true);
  }

  /// The ScalarOnly form of the constructor above.
  EnsembleRunner(ScalarOnly, Params params, int reserve_rings = 0)
      : params_(std::move(params)) {
    init_modes(reserve_rings, false);
  }

  /// Append one ring initialized from `initial`, seeded exactly like
  /// `Runner<P>(params, initial, seed)`. Returns the ring index. Throws
  /// std::invalid_argument unless initial.size() == params.n (a short ring
  /// would misalign every later one).
  int add_ring(std::span<const State> initial, std::uint64_t seed) {
    if (static_cast<int>(initial.size()) != params_.n)
      throw std::invalid_argument("EnsembleRunner::add_ring: size != n");
    states_.insert(states_.end(), initial.begin(), initial.end());
    rngs_.emplace_back(seed);
    seeds_.push_back(seed);
    loss_rngs_.emplace_back(stream_seed(seed, kLossStreamTag));
    RingClock clk;
    clk.oracle_delay = oracle_delay_;
    Engine::recount(initial, params_, clk);
    clocks_.push_back(clk);
    owner_.push_back(RingOwner::kStates);
    const int r = static_cast<int>(clocks_.size()) - 1;
    if constexpr (kAccelerable) {
      if (accel_) {
        mirror_.resize(mirror_.size() + initial.size());
        (void)pack_ring(r);  // an out-of-domain state drops the mirror
      }
    }
    return r;
  }

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] int n() const noexcept { return params_.n; }
  [[nodiscard]] int ring_count() const noexcept {
    return static_cast<int>(clocks_.size());
  }

  /// True while the precomputed pair-transition table drives the hot loop
  /// (introspection for tests and benches; trajectories are identical either
  /// way).
  [[nodiscard]] bool packed_mode() const noexcept {
    return kPackable && accel_;
  }

  /// True while the word-packed kernel lane drives the hot loop (P_PL's
  /// bit-sliced apply_word; introspection only — trajectories are identical
  /// to the generic path). Never at word ISA level 0.
  [[nodiscard]] bool word_kernel_mode() const noexcept {
    return kWordable && accel_;
  }

  /// Whether a ring that advances alone (run_ring, a near-deadline ring, a
  /// lockstep leftover) runs the single-ring word driver, else the scalar
  /// loop on its States: in word-kernel mode, from kWordCrossoverN up.
  [[nodiscard]] bool runs_word_driver() const noexcept {
    return word_kernel_mode() && params_.n >= kWordCrossoverN;
  }

  /// Which copy of ring r is authoritative (introspection for tests; see
  /// the mirror contract in the header comment). kStates on the generic
  /// path.
  [[nodiscard]] RingOwner ring_owner(int r) const {
    return owner_[static_cast<std::size_t>(check_ring(r))];
  }

  // Ring and agent indices are checked in every build type: a bad r or i
  // throws std::out_of_range (check_ring / check_agent).
  [[nodiscard]] std::span<const State> agents(int r) const {
    sync_ring(check_ring(r));
    return {states_.data() + ring_offset(r),
            static_cast<std::size_t>(params_.n)};
  }
  [[nodiscard]] const State& agent(int r, int i) const {
    check_agent(i);
    sync_ring(check_ring(r));
    return states_[ring_offset(r) + static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t steps(int r) const { return clock(r).steps; }
  [[nodiscard]] int leader_count(int r) const {
    return clock(r).leader_count;
  }
  [[nodiscard]] int token_count(int r) const { return clock(r).token_count; }
  [[nodiscard]] std::uint64_t last_leader_change(int r) const {
    return clock(r).last_leader_change;
  }

  /// Oracle delay for every ring, current and future: steps of
  /// uninterrupted leaderlessness before Omega? reports absence. 0 =
  /// immediate reporting, the paper's Table-1 regime.
  void set_oracle_delay(std::uint64_t d) noexcept {
    oracle_delay_ = d;
    for (RingClock& c : clocks_) c.oracle_delay = d;
  }

  /// Configure the scheduler fault models for every ring, current and
  /// future (see core::SchedulerFaults). Every ring's loss stream is
  /// (re)derived as stream_seed(ring_seed, kLossStreamTag), so configuring
  /// faults then running is deterministic per seed. Active faults
  /// permanently drop the ensemble to the generic path (the accelerated
  /// lanes assume the clean uniform scheduler). Invalid inputs throw
  /// std::invalid_argument (SchedulerFaults::validate).
  void set_scheduler_faults(const SchedulerFaults& f) {
    f.validate(static_cast<int>(bound_));
    loss_threshold_ = detail::probability_threshold(f.loss_p);
    bias_ = f.arc_weights.empty() ? detail::BiasTable{}
                                  : detail::BiasTable(f.arc_weights);
    sched_active_ = loss_threshold_ != 0 || !bias_.empty();
    for (std::size_t r = 0; r < seeds_.size(); ++r)
      loss_rngs_[r] = Xoshiro256pp(stream_seed(seeds_[r], kLossStreamTag));
    if (sched_active_) drop_mirror();
  }

  /// True when a scheduler fault model (loss or bias) is configured.
  [[nodiscard]] bool scheduler_faults_active() const noexcept {
    return sched_active_;
  }

  /// Fault injection into ring r, delta-census: O(1), no recount. The
  /// injection counts as a change of the leader set at the current step
  /// when it flips the agent's leader output. Injecting into an
  /// already-leaderless ring does not restart the Omega? leaderless clock,
  /// and injecting the last leader away starts it at the current step,
  /// exactly as a transition would. The ring is never unpacked: a
  /// mirror-owned ring decodes only the overwritten slot for the census
  /// delta and takes the new code (its States stay stale); otherwise the
  /// State is written. A state that fails the encoding's round trip drops
  /// the mirror (still exact, just slower).
  void set_agent(int r, int i, const State& s) {
    check_agent(i);
    const auto ri = static_cast<std::size_t>(check_ring(r));
    const std::size_t slot = ring_offset(r) + static_cast<std::size_t>(i);
    if constexpr (kAccelerable) {
      if (accel_) {
        Code c{};
        if (!encode(s, c)) {
          drop_mirror();  // out-of-domain state: generic path, forever
        } else if (owner_[ri] == RingOwner::kMirror) {
          State old = decode(std::exchange(mirror_[slot], c));
          Engine::set_agent(old, s, params_, clocks_[ri]);
          return;
        } else {
          mirror_[slot] = c;  // current on kBoth, stale (harmless) on kStates
        }
      }
    }
    Engine::set_agent(states_[slot], s, params_, clocks_[ri]);
  }

  /// Advance every ring `k` interactions (each through its own stream). In
  /// word-kernel mode the rings advance in lockstep — one SIMD lane per
  /// ring (WordGroupDriver::run_rings_block), a remainder below half a
  /// group alone (see advance_rings_word); per-ring trajectories are
  /// bit-identical to per-ring advancement, rings share nothing.
  void run(std::uint64_t k) {
    if constexpr (kWordable) {
      if (accel_ && k > 0 && ring_count() > 0) {
        // Reusable list of the ring ids [0, ring_count), in the order
        // advance_rings_word last left it — grown, never shrunk, so
        // campaigns interleaving many small run(k) blocks with faults pay
        // no per-call allocation.
        while (static_cast<int>(all_rings_.size()) < ring_count())
          all_rings_.push_back(static_cast<int>(all_rings_.size()));
        advance_rings_word(all_rings_, k);
        return;
      }
    }
    for (int r = 0; r < ring_count(); ++r) advance_ring(r, k);
  }

  /// Advance one ring `k` interactions (exact-offset scheduling, e.g. fault
  /// injection at a precise step).
  void run_ring(int r, std::uint64_t k) { advance_ring(check_ring(r), k); }

  /// Run-until over the whole ensemble: for every ring, check `pred` up
  /// front, then run blocks of `check_every` (0 = every ~n) against a
  /// per-ring deadline of `max_steps` further interactions (saturating at
  /// npos), retiring rings from a compacted active set as they hit the
  /// predicate or the deadline. Returns, per ring, the step count at the
  /// first satisfied check or npos on timeout (Runner::run_until is ring 0
  /// of this). A predicate that declares unique_leader() fails without
  /// being called while the ring's leader census is not 1; a predicate
  /// invocable with a WordRingView<P> is handed a word-owned ring's u64
  /// mirror instead of agents(r) (satisfied).
  template <typename Pred>
  [[nodiscard]] std::vector<std::uint64_t> run_until_each(
      Pred&& pred, std::uint64_t max_steps, std::uint64_t check_every = 0) {
    std::vector<int> rings(clocks_.size());
    for (std::size_t r = 0; r < rings.size(); ++r)
      rings[r] = static_cast<int>(r);
    std::vector<std::uint64_t> hits(clocks_.size(), npos);
    run_until_each(rings, pred, max_steps, check_every, hits);
    return hits;
  }

  /// Subset form: only the rings listed in `rings` participate (the others
  /// do not advance). `hits` must span ring_count() and no ring may be
  /// listed twice (std::invalid_argument otherwise); entries of
  /// non-participating rings are left untouched.
  template <typename Pred>
  void run_until_each(std::vector<int> rings, Pred&& pred,
                      std::uint64_t max_steps, std::uint64_t check_every,
                      std::span<std::uint64_t> hits) {
    if (hits.size() != clocks_.size())
      throw std::invalid_argument("EnsembleRunner: hits size != rings");
    // A ring listed twice would advance twice per pass (or take two SIMD
    // lanes over the same words): reject it before anything runs.
    std::vector<std::uint8_t> listed(clocks_.size(), 0);
    for (int r : rings) {
      std::uint8_t& seen = listed[static_cast<std::size_t>(check_ring(r))];
      if (seen != 0)
        throw std::invalid_argument("EnsembleRunner: ring listed twice");
      seen = 1;
    }
    if (check_every == 0)
      check_every = static_cast<std::uint64_t>(params_.n);
    // Per-ring deadline, indexed by ring id (Runner::run_until's saturating
    // detail::run_until_deadline, computed at entry).
    std::vector<std::uint64_t> deadline(clocks_.size(), 0);
    // Pre-check: a ring already satisfying the predicate hits at its current
    // step without consuming any randomness.
    std::size_t w = 0;
    for (int r : rings) {
      const auto ri = static_cast<std::size_t>(r);
      if (satisfied(pred, r)) {
        hits[ri] = clocks_[ri].steps;
        continue;
      }
      if (max_steps == 0) continue;  // no budget: timeout, no second check
      deadline[ri] = detail::run_until_deadline(clocks_[ri].steps, max_steps);
      rings[w++] = r;
    }
    rings.resize(w);

    std::vector<int> batch;  // word lane: full-size blocks
    while (!rings.empty()) {
      // One pass: advance every active ring by min(check_every, remaining)
      // interactions, check, retire, compact. In word-kernel mode the rings
      // still owed a full check_every block (the common case away from
      // deadlines) advance in one cross-ring lockstep batch; everything
      // else goes through the one shared per-ring loop.
      const bool lockstep = word_kernel_mode();
      batch.clear();
      for (int r : rings) {
        const auto ri = static_cast<std::size_t>(r);
        const std::uint64_t left = deadline[ri] - clocks_[ri].steps;
        if (lockstep && left >= check_every)
          batch.push_back(r);
        else
          advance_ring(r, std::min(check_every, left));
      }
      if constexpr (kWordable) {
        if (!batch.empty()) advance_rings_word(batch, check_every);
      }
      w = 0;
      for (int r : rings) {
        const auto ri = static_cast<std::size_t>(r);
        if (satisfied(pred, r)) {
          hits[ri] = clocks_[ri].steps;
          continue;
        }
        if (clocks_[ri].steps >= deadline[ri]) continue;  // timeout: npos
        rings[w++] = r;
      }
      rings.resize(w);
    }
  }

 private:
  /// Shared constructor tail: storage reservation and, when `accelerate`,
  /// the one decision whether the accelerator is on (for the word kernel
  /// at the word ISA level read here, which the ensemble keeps).
  void init_modes(int reserve_rings, bool accelerate) {
    if (reserve_rings > 0) {
      const auto r = static_cast<std::size_t>(reserve_rings);
      states_.reserve(r * static_cast<std::size_t>(params_.n));
      clocks_.reserve(r);
      rngs_.reserve(r);
    }
    if (!accelerate) return;
    if constexpr (kPackable) accel_ = build_lut();
    if constexpr (kWordable) {
      isa_level_ = word_isa_level();
      if (isa_level_ < 1) return;  // no word loop below AVX2
      layout_ = P::word_layout(params_);
      // The grouped driver reads the leader output off bit 0 of the word;
      // probe that word_leader really is that bit, so a layout with the
      // flag elsewhere keeps the generic path instead of corrupting the
      // census.
      accel_ = layout_.fits() && P::word_leader(1, layout_) &&
               !P::word_leader(0, layout_);
      if (accel_) consts_ = P::make_word_consts(layout_);
    }
  }

  /// Transition-table entry for one (initiator, responder) packed pair:
  /// packed successor states plus the exact census deltas the generic
  /// census_after would have computed. 8 bytes; the whole modk table is
  /// ~18 KiB and L1-resident.
  struct LutEntry {
    std::uint16_t pa = 0;
    std::uint16_t pb = 0;
    std::int8_t d_leader = 0;
    std::int8_t d_token = 0;
    std::uint8_t leader_changed = 0;
    std::uint8_t pad = 0;
  };
  static_assert(sizeof(LutEntry) == 8);

  [[nodiscard]] std::size_t ring_offset(int r) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(params_.n);
  }

  [[nodiscard]] int check_ring(int r) const {
    if (r < 0 || r >= ring_count())
      throw std::out_of_range("EnsembleRunner: ring index out of range");
    return r;
  }

  void check_agent(int i) const {
    if (i < 0 || i >= params_.n)
      throw std::out_of_range("EnsembleRunner: agent index out of range");
  }

  [[nodiscard]] const RingClock& clock(int r) const {
    return clocks_[static_cast<std::size_t>(check_ring(r))];
  }

  /// One run_until_each check of ring r. A predicate that declares
  /// unique_leader() (requires_unique_leader) is rejected from the ring's
  /// leader census when that count is not 1, before any copy is read; in
  /// Debug builds an assert confirms the full predicate rejects the ring
  /// too. Otherwise the check runs on whichever copy owns the ring: a
  /// word-owned ring hands a predicate that takes a WordRingView its u64
  /// mirror in place, and its State block stays unsynced. Every other check
  /// gets agents(r), which unpacks only a mirror-owned ring.
  template <typename Pred>
  [[nodiscard]] bool satisfied(Pred& pred, int r) const {
    if constexpr (HasLeaderOutput<P>) {
      if (clocks_[static_cast<std::size_t>(r)].leader_count != 1 &&
          requires_unique_leader(pred)) {
        assert(!pred(std::span<const State>(states_copy(r)), params_));
        return false;
      }
    }
    if constexpr (kWordable) {
      if constexpr (std::is_invocable_r_v<bool, Pred&,
                                          const WordRingView<P>&,
                                          const Params&>) {
        if (owner_[static_cast<std::size_t>(r)] == RingOwner::kMirror &&
            reads_view(pred)) {
          return pred(WordRingView<P>({mirror_.data() + ring_offset(r),
                                       static_cast<std::size_t>(params_.n)},
                                      layout_),
                      params_);
        }
      }
    }
    return pred(agents(r), params_);
  }

  /// Whether a predicate with a WordRingView overload can take the view: a
  /// type-erased one (analysis::RecoveryPredicate) says so via has_view(),
  /// since its view slot may be empty.
  template <typename Pred>
  [[nodiscard]] static bool reads_view(const Pred& pred) {
    if constexpr (requires {
                    { pred.has_view() } -> std::convertible_to<bool>;
                  }) {
      return pred.has_view();
    } else {
      return true;
    }
  }

  /// Enumerate the pair-transition table through the same P::apply and
  /// census predicates the generic path runs, validating that every state
  /// round-trips the packing and every transition stays in the enumerated
  /// domain. Any violation leaves the ensemble on the generic path
  /// (false).
  [[nodiscard]] bool build_lut()
    requires(kPackable)
  {
    const std::size_t S = P::num_states(params_);
    if (S == 0 || S > 0xFFFF || S * S > kMaxLutPairs) return false;
    std::vector<State> domain(S);
    for (std::size_t v = 0; v < S; ++v) {
      domain[v] = P::unpack_state(v, params_);
      if (P::pack_state(domain[v], params_) != v) return false;  // not 1:1
    }
    lut_.resize(S * S);
    for (std::size_t sa = 0; sa < S; ++sa) {
      for (std::size_t sb = 0; sb < S; ++sb) {
        State a = domain[sa];
        State b = domain[sb];
        bool la = false, lb = false;
        int ta = 0, tb = 0;
        if constexpr (HasLeaderOutput<P>) {
          la = P::is_leader(a, params_);
          lb = P::is_leader(b, params_);
        }
        if constexpr (HasTokenCensus<P>) {
          ta = P::has_token(a, params_) ? 1 : 0;
          tb = P::has_token(b, params_) ? 1 : 0;
        }
        P::apply(a, b, params_);
        const std::size_t pa = P::pack_state(a, params_);
        const std::size_t pb = P::pack_state(b, params_);
        if (pa >= S || pb >= S || !(P::unpack_state(pa, params_) == a) ||
            !(P::unpack_state(pb, params_) == b)) {
          lut_.clear();  // domain not closed under apply
          return false;
        }
        LutEntry& e = lut_[sa * S + sb];
        e.pa = static_cast<std::uint16_t>(pa);
        e.pb = static_cast<std::uint16_t>(pb);
        if constexpr (HasLeaderOutput<P>) {
          const bool la2 = P::is_leader(a, params_);
          const bool lb2 = P::is_leader(b, params_);
          e.d_leader = static_cast<std::int8_t>(
              static_cast<int>(la2) - static_cast<int>(la) +
              static_cast<int>(lb2) - static_cast<int>(lb));
          e.leader_changed = la != la2 || lb != lb2;
        }
        if constexpr (HasTokenCensus<P>) {
          e.d_token = static_cast<std::int8_t>(
              (P::has_token(a, params_) ? 1 : 0) - ta +
              (P::has_token(b, params_) ? 1 : 0) - tb);
        }
      }
    }
    lut_states_ = S;
    return true;
  }

  /// Runner's reference path (step, run_unbatched, apply_arc): one
  /// `bounded` draw from ring r's stream, and InteractionEngine::apply_arc on
  /// its States, which only a ScalarOnly ensemble keeps authoritative.
  [[nodiscard]] int draw_arc(int r) {
    const auto ri = static_cast<std::size_t>(r);
    return static_cast<int>(rngs_[ri].bounded(bound_));
  }
  void apply_arc(int r, int arc) {
    Engine::apply_arc(states_.data() + ring_offset(r),
                      arc_endpoints(arc, params_.n), params_,
                      clocks_[static_cast<std::size_t>(r)]);
  }

  /// One state's mirror code, with the round trip every state entering
  /// the mirror must pass: false for a state outside the encoded domain.
  [[nodiscard]] bool encode(const State& s, Code& c) const
    requires(kAccelerable)
  {
    if constexpr (kPackable) {
      const std::size_t ps = P::pack_state(s, params_);
      c = static_cast<Code>(ps);
      return ps < lut_states_ && P::unpack_state(ps, params_) == s;
    } else {
      c = P::pack_word(s, layout_);
      return P::unpack_word(c, layout_) == s;
    }
  }
  [[nodiscard]] State decode(Code c) const
    requires(kAccelerable)
  {
    if constexpr (kPackable) {
      return P::unpack_state(c, params_);
    } else {
      return P::unpack_word(c, layout_);
    }
  }

  /// Leave the accelerator permanently: materialize every mirror-owned
  /// ring's States (a ring that owns its States is never overwritten by
  /// its stale codes), then drop the mirror. Trajectories continue on the
  /// generic path.
  void drop_mirror() {
    for (int r = 0; r < ring_count(); ++r) sync_ring(r);
    accel_ = false;
    std::fill(owner_.begin(), owner_.end(), RingOwner::kStates);
    mirror_.clear();
    mirror_.shrink_to_fit();
  }

  /// Materialize ring r's State block from the mirror if the mirror owns
  /// the ring (kMirror -> kBoth).
  void sync_ring(int r) const {
    if constexpr (kAccelerable) {
      const auto ri = static_cast<std::size_t>(r);
      if (owner_[ri] != RingOwner::kMirror) return;
      decode_ring(r, states_.data() + ring_offset(r));
      owner_[ri] = RingOwner::kBoth;
    }
  }

  /// Decode ring r's n agents from the mirror into `out`.
  void decode_ring(int r, State* out) const
    requires(kAccelerable)
  {
    const Code* const codes = mirror_.data() + ring_offset(r);
    for (std::size_t i = 0; i < static_cast<std::size_t>(params_.n); ++i)
      out[i] = decode(codes[i]);
  }

  /// Ring r's States for a Debug-only check, without the kMirror -> kBoth
  /// transition agents(r) would make: a mirror-owned ring is decoded into a
  /// copy, so Debug builds keep the owner transitions Release builds take.
  [[nodiscard]] std::vector<State> states_copy(int r) const {
    const State* const first = states_.data() + ring_offset(r);
    std::vector<State> out(first, first + params_.n);
    if constexpr (kAccelerable) {
      if (owner_[static_cast<std::size_t>(r)] == RingOwner::kMirror)
        decode_ring(r, out.data());
    }
    return out;
  }

  /// Make ring r's mirror codes current (kStates -> kBoth): re-encode its
  /// State block with the round-trip check. A failed round trip drops the
  /// mirror (drop_mirror); false whenever the accelerator is off.
  [[nodiscard]] bool pack_ring(int r)
    requires(kAccelerable)
  {
    if (!accel_) return false;
    const auto ri = static_cast<std::size_t>(r);
    if (owner_[ri] != RingOwner::kStates) return true;
    const std::size_t off = ring_offset(r);
    for (std::size_t i = 0; i < static_cast<std::size_t>(params_.n); ++i) {
      if (!encode(states_[off + i], mirror_[off + i])) {
        drop_mirror();
        return false;
      }
    }
    owner_[ri] = RingOwner::kBoth;
    return true;
  }

  void advance_ring(int r, std::uint64_t k) {
    if (k == 0) return;
    if constexpr (kPackable) {
      if (accel_) {
        advance_ring_packed(r, k);
        return;
      }
    }
    if constexpr (kWordable) {
      if (runs_word_driver()) {
        advance_ring_word(r, k);
        return;
      }
      sync_ring(r);
      owner_[static_cast<std::size_t>(r)] = RingOwner::kStates;
    }
    advance_ring_generic(r, k);
  }

  /// Generic block: the shared scalar loop (InteractionEngine::run_block),
  /// literally the code Runner::run runs.
  void advance_ring_generic(int r, std::uint64_t k) {
    State* const agents = states_.data() + ring_offset(r);
    const auto ri = static_cast<std::size_t>(r);
    if (!sched_active_) {
      Engine::run_block(agents, params_.n, bound_, threshold_, params_,
                        rngs_[ri], clocks_[ri], k);
    } else {
      Engine::run_block_faulted(agents, params_.n, bound_, threshold_, params_,
                                bias_, loss_threshold_, rngs_[ri],
                                loss_rngs_[ri], clocks_[ri], k);
    }
  }

  /// Packed block: one table load per interaction on the u16 mirror; the
  /// census updates replay exactly what census_after computes (the deltas
  /// were precomputed by it, entry by entry). States go stale until the next
  /// sync_ring.
  [[gnu::flatten]] void advance_ring_packed(int r, std::uint64_t k)
    requires(kPackable)
  {
    const auto ri = static_cast<std::size_t>(r);
    std::uint16_t* const packed = mirror_.data() + ring_offset(r);
    const LutEntry* const lut = lut_.data();
    const std::size_t S = lut_states_;
    const std::uint64_t bound = bound_;
    const std::uint64_t threshold = threshold_;
    Xoshiro256pp rng = rngs_[ri];
    RingClock clk = clocks_[ri];
    const int n = params_.n;
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc =
          static_cast<int>(rng.bounded_with_threshold(bound, threshold));
      const ArcEndpoints e = arc_endpoints(arc, n);
      const std::size_t pa = packed[e.initiator];
      const std::size_t pb = packed[e.responder];
      const LutEntry& en = lut[pa * S + pb];
      packed[e.initiator] = en.pa;
      packed[e.responder] = en.pb;
      if constexpr (HasLeaderOutput<P>) {
        clk.note_leaders(en.d_leader, en.leader_changed != 0, clk.steps);
        if constexpr (HasTokenCensus<P>) clk.token_count += en.d_token;
      }
      ++clk.steps;
    }
    rngs_[ri] = rng;
    clocks_[ri] = clk;
    owner_[ri] = RingOwner::kMirror;
  }

  /// Kernel-lane block (runs_word_driver()): the single-ring grouped
  /// word-kernel driver on this ring's slice of the u64 mirror, re-packed
  /// first if the ring owns its States. States go stale until the next
  /// sync_ring.
  void advance_ring_word(int r, std::uint64_t k)
    requires(kWordable)
  {
    if (!pack_ring(r)) {
      advance_ring_generic(r, k);
      return;
    }
    const auto ri = static_cast<std::size_t>(r);
    WordGroupDriver<P>::run_block(isa_level_, mirror_.data() + ring_offset(r),
                                  params_.n, bound_, threshold_, rngs_[ri],
                                  clocks_[ri], consts_, k, run_stamps_);
    owner_[ri] = RingOwner::kMirror;
  }

  /// Advance the listed rings `k` interactions each in cross-ring lockstep,
  /// one SIMD lane per ring (no disjointness proofs — rings share nothing):
  /// every full group of the ensemble's lockstep width, plus the last
  /// partial group when at least half its lanes hold rings, padded with
  /// lanes that run on the scratch ring pad_words_
  /// (WordGroupDriver::rings_impl). A smaller remainder advances alone
  /// through advance_ring. Rings that own their States go last, so they are
  /// the leftovers and rarely re-pack; the order never shows in a
  /// trajectory. Bit-identical per ring to advance_ring.
  void advance_rings_word(std::vector<int>& rings, std::uint64_t k)
    requires(kWordable)
  {
    std::partition(rings.begin(), rings.end(), [&](int r) {
      return owner_[static_cast<std::size_t>(r)] != RingOwner::kStates;
    });
    const int G = WordGroupDriver<P>::lockstep_lanes(isa_level_);
    const int nrings = static_cast<int>(rings.size());
    const int rest = nrings % G;
    const int grouped = 2 * rest >= G ? nrings : nrings - rest;
    for (int i = 0; i < grouped; ++i) {
      if (!pack_ring(rings[static_cast<std::size_t>(i)])) {
        for (int r : rings) advance_ring_generic(r, k);
        return;
      }
    }
    if (grouped > 0) {
      if (grouped % G != 0)  // a padded group: allocate its scratch ring
        pad_words_.resize(static_cast<std::size_t>(params_.n));
      WordGroupDriver<P>::run_rings_block(
          isa_level_, mirror_.data(), static_cast<std::size_t>(params_.n),
          rings.data(), grouped, pad_words_.data(), params_.n, bound_,
          threshold_, rngs_.data(), clocks_.data(), consts_, k);
      for (int i = 0; i < grouped; ++i)
        owner_[static_cast<std::size_t>(rings[static_cast<std::size_t>(i)])] =
            RingOwner::kMirror;
    }
    for (int i = grouped; i < nrings; ++i)
      advance_ring(rings[static_cast<std::size_t>(i)], k);
  }

  Params params_;
  /// After params_: its initializer rejects n < 1 before the rejection
  /// threshold below divides by the arc count.
  std::uint64_t bound_ = static_cast<std::uint64_t>(arc_count(
      checked_ring_size(params_.n, "EnsembleRunner"), P::directed));
  std::uint64_t threshold_ = Xoshiro256pp::rejection_threshold(bound_);
  std::uint64_t oracle_delay_ = 0;
  std::vector<std::uint64_t> seeds_;     ///< per-ring origin seeds
  std::vector<Xoshiro256pp> loss_rngs_;  ///< per-ring omission streams
  detail::BiasTable bias_;               ///< non-empty = biased distribution
  std::uint64_t loss_threshold_ = 0;     ///< 0 = omission model off
  bool sched_active_ = false;            ///< any scheduler fault model on
  /// Ring r's states at [r*n, (r+1)*n). With the accelerator on, this
  /// block is lazily refreshed from the mirror that owns the ring (see
  /// `owner_`), hence mutable: accessors are logically const.
  mutable std::vector<State> states_;
  std::vector<RingClock> clocks_;   ///< parallel to rings
  std::vector<Xoshiro256pp> rngs_;  ///< parallel to rings
  /// Per ring: which copy is authoritative (the mirror contract). Mutable:
  /// sync_ring turns kMirror into kBoth from const accessors.
  mutable std::vector<RingOwner> owner_;
  /// The accelerator is on: set once by the constructor, cleared for good
  /// by drop_mirror.
  bool accel_ = false;
  /// Word ISA level fixed at construction: the clone every word block of
  /// this ensemble runs (0 without the word lane).
  int isa_level_ = 0;
  std::vector<Code> mirror_;        ///< mirror of states_, same layout
  std::vector<LutEntry> lut_;       ///< S*S pair table (packed mode)
  std::size_t lut_states_ = 0;
  /// Word layout and kernel constants (valid only in word-kernel mode).
  typename detail::WordTypesOf<P>::Layout layout_{};
  typename detail::WordTypesOf<P>::Consts consts_{};
  std::vector<int> all_rings_;      ///< reusable permutation of ring ids
  /// Scratch ring of a padded lockstep group's empty lanes (allocated on
  /// first use; its contents never reach any ring).
  std::vector<std::uint64_t> pad_words_;
  /// Run-cut scratch of the single-ring word driver (allocated on first
  /// use; any contents are safe).
  RunStamps run_stamps_;
};

/// Mutable view of one *running* ring of an EnsembleRunner — the surface
/// fault injectors need (analysis/scenario.hpp's ScenarioSpec::inject). A
/// Runner is viewed as its ensemble's ring 0, so one injector serves the
/// per-trial reference path and the campaign path. Pass by value.
template <typename P>
class RingView {
 public:
  using State = typename P::State;
  using Params = typename P::Params;

  explicit RingView(Runner<P>& runner) noexcept
      : RingView(runner.ring_, 0) {}
  RingView(EnsembleRunner<P>& ensemble, int ring) noexcept
      : ensemble_(&ensemble), ring_(ring) {}

  [[nodiscard]] const Params& params() const noexcept {
    return ensemble_->params();
  }
  [[nodiscard]] int n() const noexcept { return params().n; }
  [[nodiscard]] std::span<const State> agents() const {
    return ensemble_->agents(ring_);
  }
  [[nodiscard]] std::uint64_t steps() const { return ensemble_->steps(ring_); }

  /// Fault injection (delta census).
  void set_agent(int i, const State& s) { ensemble_->set_agent(ring_, i, s); }

 private:
  EnsembleRunner<P>* ensemble_;
  int ring_;
};

}  // namespace ppsim::core
