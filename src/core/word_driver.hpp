// WordGroupDriver: the blocked hot loops of EnsembleRunner's word-kernel
// lane (core/ensemble.hpp) for protocols with a 64-bit bit-sliced transition
// kernel (core::WordKernelRunnable — P_PL). Runner never reaches it: it is
// ring 0 of a scalar-only EnsembleRunner.
#pragma once

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "core/interaction.hpp"
#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/wordlane.hpp"

// The wide vector helpers below pass/return 32- and 64-byte vectors whose
// calling convention depends on the ISA; every such function is
// force-inlined, so no standalone symbol's ABI ever materializes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace ppsim::core {

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

  /// Gather/scatter one group's operand words (G = lanes of VW). WordVec8
  /// is only instantiated inside the AVX-512 clones, so its lanes always
  /// move through the hardware gather/scatter.
  template <typename VW>
  [[gnu::always_inline]] static inline VW gather(const std::uint64_t* words,
                                                 const int* idx) {
    if constexpr (kLanesOf<VW> == 4) {
      return VW{words[idx[0]], words[idx[1]], words[idx[2]], words[idx[3]]};
    } else {
      static_assert(kHaveHwGather && kLanesOf<VW> == 8,
                    "8-lane groups run only in the AVX-512 clones");
      return gather8(words, idx);
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

  /// The kernel constants, read from memory at every use. An empty asm
  /// launders the pointer once per call, so the compiler cannot prove the
  /// constants loop-invariant: each of the ~40 is a load (or an embedded
  /// broadcast operand) inside the step instead of a vector register held
  /// across the whole loop. Hoisted, those broadcasts outnumber the
  /// registers the kernel's own temporaries need and the loop spills (see
  /// rings_impl).
  [[gnu::always_inline]] static inline const Consts& consts_from_memory(
      const Consts* kc) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : "+r"(kc));
#endif
    return *kc;
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
    // By-value copy: a local whose address never escapes is provably
    // loop-invariant, so the constants' broadcasts hoist into registers for
    // the whole loop. Hoisting is not free: in the cross-ring lockstep loop
    // the broadcasts outnumbered the vector registers and spilled the
    // kernel, so rings_impl reads them from memory (consts_from_memory).
    // This loop keeps the copy: read from memory, its AVX-512 clone's loop
    // stayed the same size (666 vs 667 instructions, 108 vs 120 stack
    // references, GCC 12) with no speedup measurable above noise.
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
      VW live{};  // all-ones in the lanes of real rings
      for (int j = 0; j < G; ++j) {
        if (j < real) {
          const int r = rg[j];
          base[j] = words_base + ring_stride * static_cast<std::size_t>(r);
          rng[j] = rngs[r];
          clk[j] = clks[r];
          live[j] = ~std::uint64_t{0};
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
        static_assert(kHaveHwGather && G == 8,
                      "8-lane groups run only in the AVX-512 clones");
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
            const VW dl = ((wa ^ oa) | (wb ^ ob)) & live;
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
        // 4 lanes (AVX2 or baseline): per-lane extract and insert.
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
            const VW dl = ((wa ^ oa) | (wb ^ ob)) & live;
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
      for (int j = 0; j < real; ++j) {
        const int r = rg[j];
        clk[j].steps = step0[j] + k;
        rngs[r] = rng[j];
        clks[r] = clk[j];
      }
    }
  }

 public:
  /// Entry point for the cross-ring lockstep block (see rings_impl). `pad`
  /// is n scratch words for the lanes a partial last group leaves empty;
  /// it may be null when nrings is a multiple of lockstep_lanes().
  static void run_rings_block(std::uint64_t* words_base,
                              std::size_t ring_stride, const int* rings,
                              int nrings, std::uint64_t* pad, int n,
                              std::uint64_t bound, std::uint64_t threshold,
                              Xoshiro256pp* rngs, RingClock* clks,
                              const Consts& kc, std::uint64_t k) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    const int isa = isa_level();
    if (isa == 2) {
      rings_avx512(words_base, ring_stride, rings, nrings, pad, n, bound,
                   threshold, rngs, clks, kc, k);
      return;
    }
    if (isa == 1) {
      rings_avx2(words_base, ring_stride, rings, nrings, pad, n, bound,
                 threshold, rngs, clks, kc, k);
      return;
    }
#endif
    rings_impl<WordVec>(words_base, ring_stride, rings, nrings, pad, n, bound,
                        threshold, rngs, clks, kc, k);
  }

 private:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
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

}  // namespace ppsim::core

#pragma GCC diagnostic pop
