// Trial-batched simulation: R independent rings of the same Params advanced
// in one engine, for the campaign workloads the SS-LE evaluation lives on
// (thousands of trials per (protocol, n, fault-schedule) cell).
//
// Why: a per-trial Runner pays the full dispatch loop per trial, and at small
// n — exactly where tail statistics need the most trials — per-trial overhead
// dominates. EnsembleRunner keeps all R rings' agent states in one contiguous
// struct-of-arrays block (ring r occupies slots [r*n, (r+1)*n)), one
// RingClock and one Xoshiro256pp stream per ring in parallel arrays, and
// advances rings in blocks with the ring's RNG and clock copied into locals
// (register-resident across the block — going through the stored arrays
// measured ~1.6x slower; the compiler cannot keep pointer-indirected RNG
// state in registers).
//
// The campaign win is the *packed-state mode*: protocols that expose a
// canonical O(1) enumeration of their per-agent state space
// (num_states / pack_state / unpack_state — the modk baseline does) and take
// no oracle input get their entire pair-transition function precomputed into
// a lookup table at construction: one 8-byte entry per (initiator,
// responder) state pair holding the packed successor states and the census
// deltas (leader delta, token delta, leader-set-changed bit). The hot loop
// then runs on a parallel array of 16-bit packed states — one L1 load
// replaces the branchy transition and all census predicate evaluations, and
// the branch-misprediction cost of random-scheduler transitions (the
// dominant per-step cost: a modk step is ~8 ns branchy vs ~1.4 ns of RNG)
// disappears. Measured ~2x campaign throughput over the per-trial Runner
// path on small-n modk cells (BENCH_ensemble.json). Full State objects are
// materialized lazily (per-ring dirty bit) when a predicate or accessor
// needs them. A ring-interleaved variant of both kernels was tried and
// rejected: on the reference container register pressure beats the ILP win
// from overlapping independent RNG chains (0.9-1.1x, vs 2x+ for the packed
// mode).
//
// Determinism contract: ring r owns *exactly* the RNG stream a standalone
// Runner<P> constructed with the same seed would own, rings never interact,
// and every interaction either goes through the shared InteractionEngine<P>
// fast path or through a table entry precomputed *by that same code path* —
// so each ring's trajectory, census and clock are bit-identical to the
// single-ring engine (tests/core/ensemble_test.cpp). The packed mode
// additionally self-validates: at construction every enumerated state must
// round-trip pack/unpack and every transition must stay inside the
// enumerated space, and every state entering the ensemble (add_ring,
// set_agent) must round-trip — any violation permanently drops the ensemble
// to the generic path, never to a wrong trajectory. This is what lets
// analysis::measure_convergence / measure_convergence_parallel /
// measure_recovery shard their trials into ensembles without changing a
// single published number.
//
// The third engine lane is the *word-kernel lane* (core::HasWordKernel —
// P_PL): protocols whose state space is far too large for the LUT but
// whose whole variable block bit-slices into one uint64_t run the shared
// branchless SIMD kernel (core::WordGroupDriver) on a u64 mirror, with the
// same lazy materialization, delta census and round-trip fallback contract
// the LUT lane has. run(k) advances rings in *cross-ring lockstep* — one
// SIMD lane per ring, no disjointness proofs, effective at any n — and
// run_until_each batches the rings still owed a full check_every block.
//
// run_until_each mirrors Runner::run_until per ring (pre-check, then blocks
// of check_every against a per-ring deadline); converged or timed-out rings
// retire from a compacted active index array so a few slow rings never pay
// for the fast majority.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"

namespace ppsim::core {

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

template <typename P, typename Topo = RingTopology>
class EnsembleRunner {
  static_assert(TopologyLike<Topo>);

 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Topology = Topo;
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
  /// space is far too large for the pair-transition LUT. The hot loop runs
  /// apply_word on a u64 mirror with the same lazy State materialization,
  /// delta census and fallback contract the LUT lane has: any state that
  /// fails the pack/unpack round trip (out of the declared domain) drops
  /// the ensemble to the generic path, never to a wrong trajectory.
  /// Ring-only (the driver's endpoint arithmetic and disjointness proofs
  /// are ring math); the LUT lane, by contrast, is topology-generic.
  static constexpr bool kWordable =
      WordKernelRunnable<P> && std::is_same_v<Topo, RingTopology>;
  using WordLayout = typename detail::WordLayoutOf<P>::type;
  using WordConsts = typename detail::WordConstsOf<P>::type;

  /// Pair-space cap for the transition table: 2^16 pairs = 512 KiB of
  /// entries. Above that the table thrashes the cache and the branchy
  /// transition wins again.
  static constexpr std::size_t kMaxLutPairs = std::size_t{1} << 16;

  explicit EnsembleRunner(Params params, int reserve_rings = 0)
      : params_(std::move(params)),
        topo_(params_.n),
        bound_(static_cast<std::uint64_t>(topo_.arc_count(P::directed))),
        threshold_(Xoshiro256pp::rejection_threshold(bound_)) {
    init_modes(reserve_rings);
  }

  /// Explicit-topology constructor (topologies that carry more than n).
  EnsembleRunner(Topo topo, Params params, int reserve_rings = 0)
      : params_(std::move(params)),
        topo_(std::move(topo)),
        bound_(static_cast<std::uint64_t>(topo_.arc_count(P::directed))),
        threshold_(Xoshiro256pp::rejection_threshold(bound_)) {
    assert(topo_.n() == params_.n);
    init_modes(reserve_rings);
  }

  /// Append one ring initialized from `initial`, seeded exactly like
  /// `Runner<P>(params, initial, seed)`. Returns the ring index.
  int add_ring(std::span<const State> initial, std::uint64_t seed) {
    assert(static_cast<int>(initial.size()) == params_.n);
    states_.insert(states_.end(), initial.begin(), initial.end());
    rngs_.emplace_back(seed);
    seeds_.push_back(seed);
    loss_rngs_.emplace_back(stream_seed(seed, kLossStreamTag));
    RingClock clk;
    clk.oracle_delay = oracle_delay_;
    Engine::recount(initial, params_, clk);
    clocks_.push_back(clk);
    dirty_.push_back(0);
    if constexpr (kPackable) {
      if (lut_active_) {
        for (const State& s : initial) {
          const std::size_t ps = P::pack_state(s, params_);
          if (ps >= lut_states_ ||
              !(P::unpack_state(ps, params_) == s)) {
            deactivate_lut();  // out-of-domain state: generic path, forever
            break;
          }
          packed_.push_back(static_cast<std::uint16_t>(ps));
        }
      }
    }
    if constexpr (kWordable) {
      if (word_active_) {
        for (const State& s : initial) {
          const std::uint64_t w = P::pack_word(s, layout_);
          if (!(P::unpack_word(w, layout_) == s)) {
            deactivate_word();  // out-of-domain state: generic path, forever
            break;
          }
          words_.push_back(w);
        }
      }
    }
    return static_cast<int>(clocks_.size()) - 1;
  }

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] int n() const noexcept { return params_.n; }
  [[nodiscard]] int ring_count() const noexcept {
    return static_cast<int>(clocks_.size());
  }

  /// True while the precomputed pair-transition table drives the hot loop
  /// (introspection for tests and benches; trajectories are identical either
  /// way).
  [[nodiscard]] bool packed_mode() const noexcept { return lut_active_; }

  /// True while the word-packed kernel lane drives the hot loop (P_PL's
  /// bit-sliced apply_word; introspection only — trajectories are identical
  /// to the generic path).
  [[nodiscard]] bool word_kernel_mode() const noexcept {
    return word_active_;
  }

  [[nodiscard]] std::span<const State> agents(int r) const {
    sync_ring(check_ring(r));
    return {states_.data() + ring_offset(r),
            static_cast<std::size_t>(params_.n)};
  }
  [[nodiscard]] const State& agent(int r, int i) const {
    assert(i >= 0 && i < params_.n);
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

  [[nodiscard]] const Topo& topology() const noexcept { return topo_; }

  /// Oracle delay for every ring, current and future (mirrors
  /// Runner::set_oracle_delay).
  void set_oracle_delay(std::uint64_t d) noexcept {
    oracle_delay_ = d;
    for (RingClock& c : clocks_) c.oracle_delay = d;
  }

  /// Configure the scheduler fault models for every ring, current and
  /// future (see core::SchedulerFaults and Runner::set_scheduler_faults).
  /// Every ring's loss stream is (re)derived as stream_seed(ring_seed,
  /// kLossStreamTag),
  /// so ring r's faulted trajectory stays bit-identical to a standalone
  /// Runner constructed with the same seed and faults. Active faults
  /// permanently drop the ensemble to the generic path (the accelerated
  /// lanes assume the clean uniform scheduler — exactly as Runner pins
  /// itself scalar). Invalid inputs throw std::invalid_argument
  /// (SchedulerFaults::validate).
  void set_scheduler_faults(const SchedulerFaults& f) {
    f.validate(static_cast<int>(bound_));
    loss_threshold_ = detail::probability_threshold(f.loss_p);
    bias_ = f.arc_weights.empty() ? detail::BiasTable{}
                                  : detail::BiasTable(f.arc_weights);
    sched_active_ = loss_threshold_ != 0 || !bias_.empty();
    for (std::size_t r = 0; r < seeds_.size(); ++r)
      loss_rngs_[r] = Xoshiro256pp(stream_seed(seeds_[r], kLossStreamTag));
    if (sched_active_) force_generic_path();
  }

  /// True when a scheduler fault model (loss or bias) is configured.
  [[nodiscard]] bool scheduler_faults_active() const noexcept {
    return sched_active_;
  }

  /// Permanently leave every accelerated mode (LUT and word kernel; no-op
  /// when already generic): every subsequent interaction goes through the
  /// shared InteractionEngine fast path. Trajectories are bit-identical
  /// either way — this exists so the differential fuzz harness
  /// (src/verification/differential.hpp) can drive the generic and
  /// accelerated kernels side by side on protocols where the accelerator
  /// would otherwise always win.
  void force_generic_path() {
    deactivate_lut();
    deactivate_word();
  }

  /// Fault injection into ring r, delta-census, identical to
  /// Runner::set_agent. In packed mode the injected state must round-trip
  /// the packing; otherwise the ensemble drops to the generic path (still
  /// exact, just slower).
  void set_agent(int r, int i, const State& s) {
    assert(i >= 0 && i < params_.n);
    sync_ring(check_ring(r));
    const std::size_t slot =
        ring_offset(r) + static_cast<std::size_t>(i);
    Engine::set_agent(states_[slot], s, params_,
                      clocks_[static_cast<std::size_t>(r)]);
    if constexpr (kPackable) {
      if (lut_active_) {
        const std::size_t ps = P::pack_state(s, params_);
        if (ps >= lut_states_ || !(P::unpack_state(ps, params_) == s)) {
          deactivate_lut();
        } else {
          packed_[slot] = static_cast<std::uint16_t>(ps);
        }
      }
    }
    if constexpr (kWordable) {
      if (word_active_) {
        const std::uint64_t w = P::pack_word(s, layout_);
        if (!(P::unpack_word(w, layout_) == s)) {
          deactivate_word();
        } else {
          words_[slot] = w;
        }
      }
    }
  }

  /// Advance every ring `k` interactions (each through its own stream). In
  /// word-kernel mode the rings advance in lockstep — one SIMD lane per
  /// ring (WordGroupDriver::run_rings_block); per-ring trajectories are
  /// bit-identical to per-ring advancement, rings share nothing.
  void run(std::uint64_t k) {
    if constexpr (kWordable) {
      if (word_active_ && k > 0 && ring_count() > 0) {
        // Reusable [0, ring_count) index list — grown, never shrunk, so
        // campaigns interleaving many small run(k) blocks with faults pay
        // no per-call allocation.
        while (static_cast<int>(all_rings_.size()) < ring_count())
          all_rings_.push_back(static_cast<int>(all_rings_.size()));
        advance_rings_word(all_rings_, ring_count(), k);
        return;
      }
    }
    for (int r = 0; r < ring_count(); ++r) advance_ring(r, k);
  }

  /// Advance one ring `k` interactions (exact-offset scheduling, e.g. fault
  /// injection at a precise step).
  void run_ring(int r, std::uint64_t k) { advance_ring(check_ring(r), k); }

  /// Per-ring Runner::run_until over the whole ensemble: for every ring,
  /// check `pred` up front, then run blocks of `check_every` (0 = every ~n)
  /// against a per-ring deadline of `max_steps` further interactions,
  /// retiring rings from a compacted active set as they hit the predicate or
  /// the deadline. Returns, per ring, the step count at the first satisfied
  /// check (exactly Runner::run_until's value) or npos on timeout.
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
  /// do not advance). `hits` must span ring_count(); entries of
  /// non-participating rings are left untouched.
  template <typename Pred>
  void run_until_each(std::vector<int> rings, Pred&& pred,
                      std::uint64_t max_steps, std::uint64_t check_every,
                      std::span<std::uint64_t> hits) {
    assert(hits.size() == clocks_.size());
    if (check_every == 0)
      check_every = static_cast<std::uint64_t>(params_.n);
    // Per-ring deadline, indexed by ring id (mirrors Runner::run_until's
    // `deadline = steps + max_steps` computed at entry).
    std::vector<std::uint64_t> deadline(clocks_.size(), 0);
    // Pre-check: a ring already satisfying the predicate hits at its current
    // step without consuming any randomness.
    std::size_t w = 0;
    for (int r : rings) {
      const auto ri = static_cast<std::size_t>(check_ring(r));
      if (pred(agents(r), params_)) {
        hits[ri] = clocks_[ri].steps;
        continue;
      }
      deadline[ri] = clocks_[ri].steps + max_steps;
      rings[w++] = r;
    }
    rings.resize(w);

    [[maybe_unused]] std::vector<int> batch;  // word lane: full-size blocks
    while (!rings.empty()) {
      // One pass: advance every active ring by min(check_every, remaining)
      // interactions, check, retire, compact. In word-kernel mode the rings
      // still owed a full check_every block (the common case away from
      // deadlines) advance in one cross-ring lockstep batch; everything
      // else goes through the one shared per-ring loop.
      bool advanced = false;
      if constexpr (kWordable) {
        if (word_active_) {
          batch.clear();
          for (int r : rings) {
            const auto ri = static_cast<std::size_t>(r);
            if (deadline[ri] - clocks_[ri].steps >= check_every)
              batch.push_back(r);
            else
              advance_ring(r, deadline[ri] - clocks_[ri].steps);
          }
          if (!batch.empty())
            advance_rings_word(batch, static_cast<int>(batch.size()),
                               check_every);
          advanced = true;
        }
      }
      if (!advanced) {
        for (int r : rings) {
          const auto ri = static_cast<std::size_t>(r);
          advance_ring(r, std::min<std::uint64_t>(
                              check_every, deadline[ri] - clocks_[ri].steps));
        }
      }
      w = 0;
      for (int r : rings) {
        const auto ri = static_cast<std::size_t>(r);
        if (pred(agents(r), params_)) {
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
  /// Shared constructor tail: storage reservation and accelerator-mode
  /// probing (LUT, then the ring-only word lanes).
  void init_modes(int reserve_rings) {
    if (reserve_rings > 0) {
      const auto r = static_cast<std::size_t>(reserve_rings);
      states_.reserve(r * static_cast<std::size_t>(params_.n));
      clocks_.reserve(r);
      rngs_.reserve(r);
    }
    if constexpr (kPackable) build_lut();
    if constexpr (kWordable) {
      if (!lut_active_) {
        layout_ = P::word_layout(params_);
        // Same bit-0 leader probe as Runner (see its constructor).
        word_active_ = layout_.fits() && P::word_leader(1, layout_) &&
                       !P::word_leader(0, layout_);
        if (word_active_) consts_ = P::make_word_consts(layout_);
      }
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
    assert(r >= 0 && r < ring_count());
    return r;
  }

  [[nodiscard]] const RingClock& clock(int r) const {
    return clocks_[static_cast<std::size_t>(check_ring(r))];
  }

  /// Enumerate the pair-transition table through the same P::apply and
  /// census predicates the generic path runs, validating that every state
  /// round-trips the packing and every transition stays in the enumerated
  /// domain. Any violation leaves the ensemble on the generic path.
  void build_lut()
    requires(kPackable)
  {
    const std::size_t S = P::num_states(params_);
    if (S == 0 || S > 0xFFFF || S * S > kMaxLutPairs) return;
    std::vector<State> domain(S);
    for (std::size_t v = 0; v < S; ++v) {
      domain[v] = P::unpack_state(v, params_);
      if (P::pack_state(domain[v], params_) != v) return;  // not canonical
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
          return;
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
    lut_active_ = true;
  }

  /// Leave packed mode permanently: materialize every ring's states, then
  /// drop the packed mirror. Trajectories continue on the generic path.
  void deactivate_lut() {
    for (int r = 0; r < ring_count(); ++r) sync_ring(r);
    lut_active_ = false;
    packed_.clear();
    packed_.shrink_to_fit();
  }

  /// Leave the word-kernel lane permanently, same contract as
  /// deactivate_lut.
  void deactivate_word() {
    for (int r = 0; r < ring_count(); ++r) sync_ring(r);
    word_active_ = false;
    words_.clear();
    words_.shrink_to_fit();
  }

  /// Materialize ring r's State block from the active accelerator mirror if
  /// stale. dirty_ is only ever set by the accelerator hot loops, so at most
  /// one mirror can be the stale ring's source of truth.
  void sync_ring(int r) const {
    if constexpr (kPackable || kWordable) {
      const auto ri = static_cast<std::size_t>(r);
      if (!dirty_[ri]) return;
      const std::size_t off = ring_offset(r);
      if constexpr (kPackable) {
        if (lut_active_) {
          for (int i = 0; i < params_.n; ++i) {
            states_[off + static_cast<std::size_t>(i)] = P::unpack_state(
                packed_[off + static_cast<std::size_t>(i)], params_);
          }
          dirty_[ri] = 0;
          return;
        }
      }
      if constexpr (kWordable) {
        if (word_active_) {
          for (int i = 0; i < params_.n; ++i) {
            states_[off + static_cast<std::size_t>(i)] = P::unpack_word(
                words_[off + static_cast<std::size_t>(i)], layout_);
          }
          dirty_[ri] = 0;
        }
      }
    }
  }

  void advance_ring(int r, std::uint64_t k) {
    if (k == 0) return;
    if constexpr (kPackable) {
      if (lut_active_) {
        advance_ring_packed(r, k);
        return;
      }
    }
    if constexpr (kWordable) {
      if (word_active_) {
        advance_ring_word(r, k);
        return;
      }
    }
    advance_ring_generic(r, k);
  }

  /// Generic block: the shared scalar loop (InteractionEngine::run_block),
  /// literally the code Runner::run's scalar path runs.
  void advance_ring_generic(int r, std::uint64_t k) {
    State* const agents = states_.data() + ring_offset(r);
    const auto ri = static_cast<std::size_t>(r);
    if (!sched_active_) {
      Engine::run_block(agents, topo_, bound_, threshold_, params_, rngs_[ri],
                        clocks_[ri], k);
    } else {
      Engine::run_block_faulted(agents, topo_, bound_, threshold_, params_,
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
    std::uint16_t* const packed = packed_.data() + ring_offset(r);
    const LutEntry* const lut = lut_.data();
    const std::size_t S = lut_states_;
    const std::uint64_t bound = bound_;
    const std::uint64_t threshold = threshold_;
    Xoshiro256pp rng = rngs_[ri];
    RingClock clk = clocks_[ri];
    const Topo topo = topo_;
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc =
          static_cast<int>(rng.bounded_with_threshold(bound, threshold));
      const ArcEndpoints e = topo.endpoints(arc);
      const std::size_t pa = packed[e.initiator];
      const std::size_t pb = packed[e.responder];
      const LutEntry& en = lut[pa * S + pb];
      packed[e.initiator] = en.pa;
      packed[e.responder] = en.pb;
      if constexpr (HasLeaderOutput<P>) {
        clk.leader_count += en.d_leader;
        if (en.leader_changed != 0) clk.last_leader_change = clk.steps + 1;
        if (clk.leader_count > 0) {
          clk.leaderless_since = RingClock::npos;
        } else if (clk.leaderless_since == RingClock::npos) {
          clk.leaderless_since = clk.steps + 1;
        }
        if constexpr (HasTokenCensus<P>) clk.token_count += en.d_token;
      }
      ++clk.steps;
    }
    rngs_[ri] = rng;
    clocks_[ri] = clk;
    dirty_[ri] = 1;
  }

  /// Kernel-lane block: the shared grouped word-kernel driver on this
  /// ring's slice of the u64 mirror — literally the same code path as
  /// Runner::run's word lane (WordGroupDriver), so per-ring bit-identity
  /// between the engines is by construction. States go stale until the
  /// next sync_ring.
  void advance_ring_word(int r, std::uint64_t k)
    requires(kWordable)
  {
    const auto ri = static_cast<std::size_t>(r);
    WordGroupDriver<P>::run_block(words_.data() + ring_offset(r), params_.n,
                                  bound_, threshold_, rngs_[ri], clocks_[ri],
                                  consts_, k);
    dirty_[ri] = 1;
  }

  /// Cross-ring lockstep: every listed ring advances `k` interactions with
  /// one SIMD lane per ring (no disjointness proofs — rings share
  /// nothing). Bit-identical per ring to advance_ring_word.
  void advance_rings_word(const std::vector<int>& rings, int nrings,
                          std::uint64_t k)
    requires(kWordable)
  {
    WordGroupDriver<P>::run_rings_block(
        words_.data(), static_cast<std::size_t>(params_.n), rings.data(),
        nrings, params_.n, bound_, threshold_, rngs_.data(), clocks_.data(),
        consts_, k);
    for (int i = 0; i < nrings; ++i)
      dirty_[static_cast<std::size_t>(
          rings[static_cast<std::size_t>(i)])] = 1;
  }

  Params params_;
  Topo topo_;  ///< after params_: the (Params, int) ctor builds it from .n
  std::uint64_t bound_;
  std::uint64_t threshold_;
  std::uint64_t oracle_delay_ = 0;
  std::vector<std::uint64_t> seeds_;     ///< per-ring origin seeds
  std::vector<Xoshiro256pp> loss_rngs_;  ///< per-ring omission streams
  detail::BiasTable bias_;               ///< non-empty = biased distribution
  std::uint64_t loss_threshold_ = 0;     ///< 0 = omission model off
  bool sched_active_ = false;            ///< any scheduler fault model on
  /// Ring r's states at [r*n, (r+1)*n). In packed mode this block is a
  /// lazily refreshed materialization of `packed_` (see `dirty_`), hence
  /// mutable: accessors are logically const.
  mutable std::vector<State> states_;
  std::vector<RingClock> clocks_;   ///< parallel to rings
  std::vector<Xoshiro256pp> rngs_;  ///< parallel to rings
  mutable std::vector<std::uint8_t> dirty_;  ///< states_ stale vs packed_
  std::vector<LutEntry> lut_;       ///< S*S pair table (packed mode)
  std::vector<std::uint16_t> packed_;  ///< u16 mirror of states_, same layout
  std::size_t lut_states_ = 0;
  bool lut_active_ = false;
  WordLayout layout_{};             ///< valid only in word-kernel mode
  WordConsts consts_{};             ///< kernel constants (word-kernel mode)
  std::vector<std::uint64_t> words_;  ///< u64 mirror of states_, same layout
  std::vector<int> all_rings_;      ///< reusable [0, ring_count) id list
  bool word_active_ = false;        ///< word-kernel lane drives the hot loop
};

/// Mutable view of one *running* ring — the engine-agnostic surface fault
/// injectors need (analysis/scenario.hpp's ScenarioSpec::inject). Wraps
/// either a standalone Runner or one ring of an EnsembleRunner, so the same
/// injection code serves both the per-trial reference path and the
/// trial-batched campaign path. Two pointers wide; pass by value.
template <typename P, typename Topo = RingTopology>
class RingView {
 public:
  using State = typename P::State;
  using Params = typename P::Params;

  explicit RingView(Runner<P, Topo>& runner) noexcept : runner_(&runner) {}
  RingView(EnsembleRunner<P, Topo>& ensemble, int ring) noexcept
      : ensemble_(&ensemble), ring_(ring) {}

  [[nodiscard]] const Params& params() const noexcept {
    return runner_ != nullptr ? runner_->params() : ensemble_->params();
  }
  [[nodiscard]] int n() const noexcept { return params().n; }
  [[nodiscard]] std::span<const State> agents() const {
    return runner_ != nullptr ? runner_->agents() : ensemble_->agents(ring_);
  }
  [[nodiscard]] std::uint64_t steps() const {
    return runner_ != nullptr ? runner_->steps() : ensemble_->steps(ring_);
  }

  /// Fault injection (delta census in both engines).
  void set_agent(int i, const State& s) {
    if (runner_ != nullptr) {
      runner_->set_agent(i, s);
    } else {
      ensemble_->set_agent(ring_, i, s);
    }
  }

 private:
  Runner<P, Topo>* runner_ = nullptr;
  EnsembleRunner<P, Topo>* ensemble_ = nullptr;
  int ring_ = 0;
};

}  // namespace ppsim::core
