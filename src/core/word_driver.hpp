// WordGroupDriver: the blocked hot loops of EnsembleRunner's word-kernel
// lane (core/ensemble.hpp) for protocols with a 64-bit bit-sliced transition
// kernel (core::WordKernelRunnable — P_PL). Runner never reaches it: it is
// ring 0 of a scalar-only EnsembleRunner.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/interaction.hpp"
#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/wordlane.hpp"

// The wide vector helpers below pass/return 32- and 64-byte vectors whose
// calling convention depends on the ISA; every such function is
// force-inlined, so no standalone symbol's ABI ever materializes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// The one place that decides whether the word lane's ISA clones (AVX2 and
// AVX-512) are compiled: x86-64 under GCC or Clang. Elsewhere the word
// lane is compiled out: word_isa_level() is 0, so every ring runs the
// scalar loop and the entries below, which then have nothing to dispatch
// to, are never called.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PPSIM_WORD_CLONES 1
#include <immintrin.h>
#else
#define PPSIM_WORD_CLONES 0
#pragma GCC diagnostic ignored "-Wunused-parameter"
#endif

namespace ppsim::core {

namespace detail {

/// The word-kernel ISA level the CPU supports: 2 = AVX-512 (F+DQ+BW+VL,
/// the clones' target set), 1 = AVX2, 0 = neither (no word lane). Probed
/// once per process.
[[nodiscard]] inline int probed_isa_level() {
#if PPSIM_WORD_CLONES
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

/// Upper bound on the level the word driver dispatches to (cap_isa_level).
inline std::atomic<int> isa_cap{2};

}  // namespace detail

/// The ISA level WordGroupDriver dispatches to: the probed level, lowered
/// to the cap_isa_level cap.
[[nodiscard]] inline int word_isa_level() {
  const int cap = detail::isa_cap.load(std::memory_order_relaxed);
  const int hw = detail::probed_isa_level();
  return cap < hw ? cap : hw;
}

/// Test hook: run the word driver's clones at ISA level `level` (2 =
/// AVX-512, 1 = AVX2, 0 = word lane off) or below. It lowers the level and
/// never raises it above what the CPU supports; returns the level now in
/// effect. It applies to ensembles built afterwards: an EnsembleRunner
/// reads the level once, in its constructor, and keeps it.
inline int cap_isa_level(int level) {
  detail::isa_cap.store(level, std::memory_order_relaxed);
  return word_isa_level();
}

/// Run-cut scratch of the single-ring driver, owned by the caller and
/// reused across blocks: per agent, the id of the last run that touched it,
/// and the last id issued. Any contents are safe; a stale id that happens
/// to equal the current one only cuts a run early.
struct RunStamps {
  std::vector<std::uint32_t> agent;
  std::uint32_t last = 0;
};

/// The blocked hot loops of EnsembleRunner's word-kernel lane. The
/// single-ring grouped driver has exactly one entry, run_block: it draws
/// the schedule in groups of G = lanes(VW) arcs (8 under AVX-512, else 4)
/// and cuts each group, in draw order, into runs of pairwise-disjoint
/// interactions. Each run is one G-lane kernel call whose lane mask keeps
/// the lanes outside the run unstored. Disjoint interactions
/// commute state-wise, runs execute in draw order and the RNG draw order is
/// untouched, so the trajectory is bit-identical to one-at-a-time
/// execution. A group cuts when two of its draws share an agent, which any
/// two draws on neighbouring edges do: at 8 lanes that is 7.9% of groups
/// at n = 1024 (1.08 runs per group) and half of them at n = 128 (1.56).
/// The k % G tail is one short group.
///
/// Census: only the leader bit matters (WordKernelRunnable excludes token
/// censuses), and when no live lane of a run changed its leader bit the
/// whole census update is a provable no-op (leader_count and
/// last_leader_change unchanged) — the common case once converged.
/// Otherwise the run's updates replay per lane in draw order, reproducing
/// census_after step for step.
///
/// The vector kernel body is compiled twice, as a target("avx2") clone and
/// an AVX-512 one (PPSIM_WORD_CLONES), and dispatched once per block on
/// the caller's ISA level (the one its EnsembleRunner recorded at
/// construction), so the packaged binary needs no special -m flags and
/// still uses 4- or 8-wide execution where the hardware has it. Everything
/// a clone runs per group is inlined into it; only the census replays are
/// outlined, cold and scalar. Both entries require word ISA level 1 or 2:
/// below that an EnsembleRunner has no word lane and every ring runs the
/// scalar loop on its States.
template <typename P>
  requires WordKernelRunnable<P>
struct WordGroupDriver {
  using Consts = typename P::WordKernelConsts;

  /// Rings per cross-ring lockstep group at ISA level `isa_level` (the
  /// vector width run_rings_block runs): 8 under AVX-512, 4 under AVX2.
  [[nodiscard]] static constexpr int lockstep_lanes(int isa_level) {
    return isa_level == 2 ? kLanesOf<WordVec8> : kLanesOf<WordVec>;
  }

  /// The one single-ring word block: advance the ring stored at `words`
  /// `k` interactions through the grouped driver (run_impl), compiled once
  /// per ISA in the out-of-line clones below; `isa_level` (1 or 2, at most
  /// the CPU's) picks the clone. `stamps` is the caller's run-cut scratch
  /// (sized to n here). EnsembleRunner sends a ring that advances alone
  /// here only where its runs_word_driver() holds.
  static void run_block(int isa_level, std::uint64_t* words, int n,
                        std::uint64_t bound, std::uint64_t threshold,
                        Xoshiro256pp& rng, RingClock& clk, const Consts& kc,
                        std::uint64_t k, RunStamps& stamps) {
    assert(isa_level >= 1 && isa_level <= detail::probed_isa_level());
    if (stamps.agent.size() < static_cast<std::size_t>(n))
      stamps.agent.resize(static_cast<std::size_t>(n));
#if PPSIM_WORD_CLONES
    std::uint32_t* const stamp = stamps.agent.data();
    if (isa_level == 2) {
      run_avx512(words, n, bound, threshold, rng, clk, kc, k, stamp,
                 stamps.last);
    } else {
      run_avx2(words, n, bound, threshold, rng, clk, kc, k, stamp,
               stamps.last);
    }
#endif
  }

  /// Entry point for the cross-ring lockstep block (see rings_impl), at
  /// word ISA level `isa_level` (1 or 2, at most the CPU's). `pad` is n
  /// scratch words for the lanes a partial last group leaves empty; it may
  /// be null when nrings is a multiple of lockstep_lanes(isa_level).
  static void run_rings_block(int isa_level, std::uint64_t* words_base,
                              std::size_t ring_stride, const int* rings,
                              int nrings, std::uint64_t* pad, int n,
                              std::uint64_t bound, std::uint64_t threshold,
                              Xoshiro256pp* rngs, RingClock* clks,
                              const Consts& kc, std::uint64_t k) {
    assert(isa_level >= 1 && isa_level <= detail::probed_isa_level());
#if PPSIM_WORD_CLONES
    if (isa_level == 2) {
      rings_avx512(words_base, ring_stride, rings, nrings, pad, n, bound,
                   threshold, rngs, clks, kc, k);
    } else {
      rings_avx2(words_base, ring_stride, rings, nrings, pad, n, bound,
                 threshold, rngs, clks, kc, k);
    }
#endif
  }

#if PPSIM_WORD_CLONES
 private:
  /// Leader-census delta for one interaction's before/after words; only a
  /// changed leader bit has any effect (the no-change case is a no-op).
  /// `step` is the interaction's 0-based index — cross-ring blocks keep
  /// clk.steps frozen until the block ends, so the current step rides as
  /// an argument.
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

  /// Hardware gather/scatter for the 8-lane clones: one instruction each
  /// instead of a per-lane insert/extract chain (the chain costs ~20 front
  /// end uops per vector and a stack round-trip). Deliberately NOT
  /// always_inline: the surrounding templates carry no target attribute, so
  /// a forced inline would be a target mismatch — as plain target functions
  /// these are legal to *call* from anywhere, and the inliner still folds
  /// them into the avx512 clones where the attributes match. Only 8-lane
  /// instantiations reach them (guarded by if constexpr), and those only
  /// ever execute inside the avx512 clones. The scatters are safe by
  /// construction: the live indices of one scatter are pairwise distinct
  /// (one run's agents, or one agent per disjoint ring).
  ///
  /// Masked forms for the single ring: only the lanes set in `live` load
  /// (the others read as 0) and store.
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline WordVec8
  gather8(const std::uint64_t* words, const int* idx, unsigned live) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return (WordVec8)_mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(live), vi, words, 8);
  }
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline void
  scatter8(std::uint64_t* words, const int* idx, const WordVec8& v,
           unsigned live) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    _mm512_mask_i32scatter_epi64(words, static_cast<__mmask8>(live), vi,
                                 (__m512i)v, 8);
  }
  /// Lanes of `live` with bit 0 of `v` set, as a lane bitmask.
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline unsigned
  test8(const WordVec8& v, unsigned live) {
    return _mm512_mask_test_epi64_mask(static_cast<__mmask8>(live), (__m512i)v,
                                       _mm512_set1_epi64(1));
  }
  /// Absolute-address forms for the cross-ring lockstep lane, where every
  /// lane reads a different ring's array: the address vector is
  /// per-ring-base + in-ring offset, gathered at scale 1 off a null base.
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline WordVec8
  gather8_addr(const WordVec8& addr) {
    return (WordVec8)_mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), 0xFF, (__m512i)addr, nullptr, 1);
  }
  __attribute__((
      target("avx512f,avx512dq,avx512bw,avx512vl"))) static inline void
  scatter8_addr(const WordVec8& addr, const WordVec8& v) {
    _mm512_i64scatter_epi64(nullptr, (__m512i)addr, (__m512i)v, 1);
  }

  /// Gather/scatter the live lanes of one run's operand words (lanes of VW:
  /// G). WordVec8 is only instantiated inside the AVX-512 clones, so its
  /// lanes always move through the masked hardware gather/scatter; the
  /// 4-lane clones store lane by lane, live lanes only, but load all four
  /// lanes: every index slot holds an agent (run_impl), so a dead lane's
  /// load is safe, and a conditional load per lane ran the AVX2 clone
  /// 10-15% slower at n = 512 and 1024.
  template <typename VW>
  [[gnu::always_inline]] static inline VW gather(const std::uint64_t* words,
                                                 const int* idx,
                                                 unsigned live) {
    if constexpr (kLanesOf<VW> == 4) {
      return VW{words[idx[0]], words[idx[1]], words[idx[2]], words[idx[3]]};
    } else {
      return gather8(words, idx, live);
    }
  }
  template <typename VW>
  [[gnu::always_inline]] static inline void scatter(std::uint64_t* words,
                                                    const int* idx,
                                                    const VW& v,
                                                    unsigned live) {
    if constexpr (kLanesOf<VW> == 8) {
      scatter8(words, idx, v, live);
    } else {
      for (int j = 0; j < kLanesOf<VW>; ++j) {
        if ((live >> j) & 1) words[idx[j]] = v[j];
      }
    }
  }

  /// Lanes of `live` with bit 0 of `v` set (leader bits, or leader-bit
  /// flips of an xor), as a lane bitmask.
  template <typename VW>
  [[gnu::always_inline]] static inline unsigned leader_bits(const VW& v,
                                                            unsigned live) {
    if constexpr (kLanesOf<VW> == 8) {
      return test8(v, live);
    } else {
      unsigned bits = 0;
      for (int j = 0; j < kLanesOf<VW>; ++j)
        bits |= static_cast<unsigned>(v[j] & 1) << j;
      return bits & live;
    }
  }

  /// The kernel constants, read from memory at every use. An empty asm
  /// launders the pointer once per call, so the compiler cannot prove the
  /// constants loop-invariant: each of the ~40 is a load (or an embedded
  /// broadcast operand) inside the step instead of a vector register held
  /// across the whole loop. Hoisted, those broadcasts outnumber the
  /// registers the kernel's own temporaries need and the loop spills (see
  /// rings_impl; the single-ring AVX-512 clone, from a by-value copy, held
  /// 579 stack references in ~1,230 instructions against 173 in ~980, GCC
  /// 12).
  [[gnu::always_inline]] static inline const Consts& consts_from_memory(
      const Consts* kc) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : "+r"(kc));
#endif
    return *kc;
  }

  /// One run: lanes [s, e) of a group, pairwise disjoint, through one G-lane
  /// kernel call — gather, kernel, scatter, leader-bit delta census
  /// (sequential replay in draw order only when some live lane changed a
  /// leader bit; otherwise the whole update is a provable no-op, see the
  /// class comment). Dead lanes compute on junk that is never stored and
  /// never reaches the census.
  template <typename VW>
  [[gnu::always_inline]] static inline void run_lanes(std::uint64_t* words,
                                                      const int* ia,
                                                      const int* ib, int s,
                                                      int e, const Consts& kc,
                                                      RingClock& clk) {
    const unsigned live = (1u << e) - (1u << s);
    VW wa = gather<VW>(words, ia, live);
    VW wb = gather<VW>(words, ib, live);
    const VW oa = wa;
    const VW ob = wb;
    if constexpr (kLanesOf<VW> == 4) {
      P::apply_word_x4(wa, wb, consts_from_memory(&kc));
    } else {
      P::apply_word_x8(wa, wb, consts_from_memory(&kc));
    }
    scatter(words, ia, wa, live);
    scatter(words, ib, wb, live);
    if constexpr (HasLeaderOutput<P>) {
      if (leader_bits<VW>((wa ^ oa) | (wb ^ ob), live) != 0) [[unlikely]] {
        census_replay(leader_bits(oa, live), leader_bits(ob, live),
                      leader_bits(wa, live), leader_bits(wb, live), s, e,
                      clk);
        return;
      }
    }
    clk.steps += static_cast<std::uint64_t>(e - s);
  }

  /// Per-lane census replay of lanes [s, e) of a run whose update flipped
  /// some leader bit, from the lane bitmasks of the leader bits before
  /// (`oa`, `ob`) and after (`wa`, `wb`). Rare at steady state, so outlined
  /// cold; the bitmasks are built only on this path, so the hot loop never
  /// stores the run's operands for it.
  [[gnu::cold, gnu::noinline]] static void census_replay(
      unsigned oa, unsigned ob, unsigned wa, unsigned wb, int s, int e,
      RingClock& clk) {
    for (int j = s; j < e; ++j) {
      census_leader_change((oa >> j) & 1, (ob >> j) & 1, (wa >> j) & 1,
                           (wb >> j) & 1, clk, clk.steps);
      ++clk.steps;
    }
  }

  /// Cold outlined per-lane census replay for the cross-ring lockstep
  /// blocks, from the same leader-bit lane bitmasks (frozen-clock contract:
  /// the running step rides as step0[j] + s).
  [[gnu::cold, gnu::noinline]] static void census_replay_rings(
      unsigned oa, unsigned ob, unsigned wa, unsigned wb, int lanes,
      RingClock* clk, const std::uint64_t* step0, std::uint64_t s) {
    for (int j = 0; j < lanes; ++j) {
      census_leader_change((oa >> j) & 1, (ob >> j) & 1, (wa >> j) & 1,
                           (wb >> j) & 1, clk[j], step0[j] + s);
    }
  }

  /// The block loop at vector width VW (instantiated per ISA clone).
  ///
  /// Run cuts: every group opens a fresh run id; each draw checks both of
  /// its agents' stamps against the current id, starts a new run (a new id)
  /// on a match, and stamps both agents with the id of the run it joins.
  /// An agent touched earlier in the current run carries the current id,
  /// so no run ever holds two interactions on one agent, whatever the
  /// stamps held before. A group's cuts come back as `ends`: bit e set
  /// means a run ends before lane e, and the top set bit is the group size.
  template <typename VW>
  [[gnu::always_inline]] static inline void run_impl(
      std::uint64_t* words, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp& rng0, RingClock& clk0,
      const Consts& kc, std::uint64_t k, std::uint32_t* stamp,
      std::uint32_t& id0) {
    Xoshiro256pp rng = rng0;
    RingClock clk = clk0;
    std::uint32_t id = id0;
    constexpr int G = kLanesOf<VW>;
    // Two index buffers, swapped per group: a group's initiators in lanes
    // [0, G), its responders in [G, 2G). Zero-initialized: a short tail
    // group leaves its upper lanes as they were, always valid agents.
    int idx[2][2 * G] = {};
    int* cur = idx[0];
    int* next = idx[1];
    // Draw g arcs into `pab`, then cut them into runs. Two passes keep
    // each one's live registers few (the serial RNG chain, then the stamp
    // chain); the second reads what the first just stored.
    const auto draw_group = [&](int* pab, int g) __attribute__((
        always_inline)) {
      for (int j = 0; j < g; ++j) {
        const int arc =
            static_cast<int>(rng.bounded_with_threshold(bound, threshold));
        const ArcEndpoints e = arc_endpoints(arc, n);
        pab[j] = e.initiator;
        pab[G + j] = e.responder;
      }
      unsigned ends = 1u << g;
      std::uint32_t run = id + 1;  // a register copy: stamp stores may alias id
      for (int j = 0; j < g; ++j) {
        const int a = pab[j];
        const int b = pab[G + j];
        const bool cut = (stamp[a] == run) | (stamp[b] == run);
        run += cut ? 1u : 0u;
        ends |= static_cast<unsigned>(cut) << j;
        stamp[a] = run;
        stamp[b] = run;
      }
      id = run;
      return ends & ~1u;  // a stale match at lane 0 cuts nothing
    };
    const auto group_size = [&](std::uint64_t left) __attribute__((
        always_inline)) {
      return left < static_cast<std::uint64_t>(G) ? static_cast<int>(left)
                                                   : G;
    };
    int g = group_size(k);
    unsigned ends = g > 0 ? draw_group(cur, g) : 0;
    while (g > 0) {
      k -= static_cast<std::uint64_t>(g);
      // Software pipeline: the next group's serial draw chain (one scalar
      // stream — inherently sequential) issues ahead of this group's
      // kernel, so the two overlap in the out-of-order window instead of
      // serializing. Draws and cuts depend only on RNG state and stamps,
      // never on words, so the stream order is untouched.
      const int ng = group_size(k);
      // A full group's draw gets a constant trip count, which unrolls.
      const unsigned nends = ng == G  ? draw_group(next, G)
                             : ng > 0 ? draw_group(next, ng)
                                      : 0;
      int s = 0;
      do {
        const int e = __builtin_ctz(ends);
        ends &= ends - 1;
        run_lanes<VW>(words, cur, cur + G, s, e, kc, clk);
        s = e;
      } while (ends != 0);
      std::swap(cur, next);
      ends = nends;
      g = ng;
    }
    rng0 = rng;
    clk0 = clk;
    id0 = id;
  }

  /// Cross-ring lockstep block (the ensemble kernel lane's main engine):
  /// advance `nrings` independent rings `k` interactions each, one vector
  /// lane per ring. Rings never share storage, so — unlike the single-ring
  /// grouped path — no disjointness proof is needed and every iteration
  /// runs the full-width kernel. The G per-ring RNG streams advance as SIMD
  /// columns of one XoshiroLanes engine (one vector xoshiro step + one
  /// vector Lemire product per iteration instead of G scalar draws — the
  /// frontend cost once measured as the lane's bottleneck), bit-identical
  /// per column to the scalar engines, which are stored back at block end.
  /// The draw for step s+1 issues *before* the kernel of step s (arcs
  /// depend only on RNG state, never on words), so the draw chain and the
  /// kernel's long dependency chain overlap in the out-of-order window
  /// instead of serializing. Per-ring trajectories are bit-identical to
  /// the single-ring engines by construction (each ring consumes exactly
  /// its own stream in order; lockstep only changes the interleaving
  /// *between* rings, which share nothing).
  ///
  /// When `nrings` is not a multiple of G, the last group is padded: its
  /// missing lanes run on `pad` (n scratch words the caller owns, contents
  /// irrelevant) with copies of lane 0's RNG and clock, which are never
  /// stored back, and a lane mask keeps them out of the census probe. Pad
  /// lanes therefore touch no ring, no stream and no clock.
  ///
  /// The kernel constants are read from memory every step
  /// (consts_from_memory): held in registers across the loop, their ~40
  /// broadcasts spilled the AVX-512 clone's hot loop to 972 instructions
  /// with 188 stack references (549 and 60 read from memory; GCC 12).
  template <typename VW>
  [[gnu::always_inline]] static inline void rings_impl(
      std::uint64_t* words_base, std::size_t ring_stride, const int* rings,
      int nrings, std::uint64_t* pad, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp* rngs, RingClock* clks,
      const Consts& kc, std::uint64_t k) {
    constexpr int G = kLanesOf<VW>;
    for (int i = 0; i < nrings; i += G) {
      const int* rg = rings + i;
      const int real = nrings - i < G ? nrings - i : G;
      std::uint64_t* base[G];
      Xoshiro256pp rng[G];
      RingClock clk[G];
      std::uint64_t step0[G];
      const unsigned live = (1u << real) - 1;  // the lanes of real rings
      for (int j = 0; j < G; ++j) {
        if (j < real) {
          const int r = rg[j];
          base[j] = words_base + ring_stride * static_cast<std::size_t>(r);
          rng[j] = rngs[r];
          clk[j] = clks[r];
        } else {
          base[j] = pad;
          rng[j] = rng[0];
          clk[j] = clk[0];
        }
        step0[j] = clk[j].steps;
      }
      XoshiroLanes<VW> lanes;
      lanes.load(rng);
      // clk.steps stays frozen during the block (every ring advances
      // exactly k), so the rare census path takes the running step as an
      // argument and the hot loop never touches the clocks.
      if constexpr (G == 8) {
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
          P::apply_word_x8(wa, wb, consts_from_memory(&kc));
          scatter8_addr(aa, wa);
          scatter8_addr(ab, wb);
          if constexpr (HasLeaderOutput<P>) {
            if (leader_bits<VW>((wa ^ oa) | (wb ^ ob), live) != 0)
                [[unlikely]] {
              census_replay_rings(leader_bits(oa, live), leader_bits(ob, live),
                                  leader_bits(wa, live), leader_bits(wb, live),
                                  G, clk, step0, s);
            }
          }
          if (more) {
            via = nva;
            vib = nvb;
          }
        }
      } else {
        // 4 lanes (AVX2): per-lane extract and insert.
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
          P::apply_word_x4(wa, wb, consts_from_memory(&kc));
          for (int j = 0; j < G; ++j) {
            base[j][ia[j]] = wa[j];
            base[j][ib[j]] = wb[j];
          }
          if constexpr (HasLeaderOutput<P>) {
            if (leader_bits<VW>((wa ^ oa) | (wb ^ ob), live) != 0)
                [[unlikely]] {
              census_replay_rings(leader_bits(oa, live), leader_bits(ob, live),
                                  leader_bits(wa, live), leader_bits(wb, live),
                                  G, clk, step0, s);
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
      for (int j = 0; j < real; ++j) {
        const int r = rg[j];
        clk[j].steps = step0[j] + k;
        rngs[r] = rng[j];
        clks[r] = clk[j];
      }
    }
  }

  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) static void
  rings_avx512(std::uint64_t* words_base, std::size_t ring_stride,
               const int* rings, int nrings, std::uint64_t* pad, int n,
               std::uint64_t bound, std::uint64_t threshold,
               Xoshiro256pp* rngs, RingClock* clks, const Consts& kc,
               std::uint64_t k) {
    rings_impl<WordVec8>(words_base, ring_stride, rings, nrings, pad, n,
                         bound, threshold, rngs, clks, kc, k);
  }
  __attribute__((target("avx2"))) static void rings_avx2(
      std::uint64_t* words_base, std::size_t ring_stride, const int* rings,
      int nrings, std::uint64_t* pad, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp* rngs, RingClock* clks,
      const Consts& kc, std::uint64_t k) {
    rings_impl<WordVec>(words_base, ring_stride, rings, nrings, pad, n, bound,
                        threshold, rngs, clks, kc, k);
  }
  // The single-ring clones stay out of line (noinline) so run_impl is
  // compiled exactly once per ISA, whichever caller reaches it.
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"),
                 noinline)) static void
  run_avx512(std::uint64_t* words, int n, std::uint64_t bound,
             std::uint64_t threshold, Xoshiro256pp& rng, RingClock& clk,
             const Consts& kc, std::uint64_t k, std::uint32_t* stamp,
             std::uint32_t& id) {
    run_impl<WordVec8>(words, n, bound, threshold, rng, clk, kc, k, stamp,
                       id);
  }
  __attribute__((target("avx2"), noinline)) static void run_avx2(
      std::uint64_t* words, int n, std::uint64_t bound,
      std::uint64_t threshold, Xoshiro256pp& rng, RingClock& clk,
      const Consts& kc, std::uint64_t k, std::uint32_t* stamp,
      std::uint32_t& id) {
    run_impl<WordVec>(words, n, bound, threshold, rng, clk, kc, k, stamp, id);
  }
#endif  // PPSIM_WORD_CLONES
};

}  // namespace ppsim::core

#pragma GCC diagnostic pop
