// Constexpr clamp-freedom certification of the word-packed P_PL kernel.
//
// The packed fast path's safety argument has two halves:
//
//   1. Boundary: out-of-domain states (fault injection) can only *enter* a
//      packed lane through pack_word, whose clamping makes the engines'
//      round-trip acceptance test a domain check. That guard is runtime and
//      stays — it protects against inputs no static analysis can see.
//   2. Closure: starting from in-domain words, every field the kernel
//      writes stays in domain, so a packed lane never needs per-step
//      revalidation and pack_word's clamps are unreachable on kernel
//      outputs.
//
// Half 2 was, until now, a prose argument (the "Domain closure" comment in
// pl/packed_protocol.hpp). This header turns it into a machine-checked
// proof: a constexpr *interval abstract interpreter* that mirrors the
// field-level SSA dataflow of packed_detail::apply_word_lanes step for
// step — every arithmetic select becomes an interval join, every
// branch-refined operand is met with its branch constraint first (standard
// path-sensitive interval refinement) — and certifies, per parameter
// regime, that
//
//   * every written field's output interval is contained in the domain
//     pack_word clamps to (clamp-freedom),
//   * the kernel's structural tricks are sound in that regime: the
//     equality-based hits/clock caps require their operand to already be
//     at most the cap (an interval premise, checked, not assumed), the
//     dist wrap-to-zero select catches the single overflow value, the
//     Definition-3.3 tau normalization (one conditional add, one
//     conditional subtract) covers the full pre-normalization range
//     (-2psi, 4psi), and the packed-token +-1 moves never carry or borrow
//     across the pos/payload bit boundary.
//
// The interpretation is sound (selects over-approximate both branches;
// refinements only meet with predicates that gate the refined use), so
// `certify_kernel(p).clamp_free()` proves clamp-freedom for regime p. It is
// NOT vacuous: widening any input interval past its domain — e.g. hits in
// [0, psi + 1], exactly what a fault can write to the scalar struct — makes
// certification fail, because the equality caps stop covering the range
// (tests/pl/packed_certify_test.cpp pins this sensitivity both ways).
//
// The static_asserts at the bottom certify every packed parameter regime
// present in the committed BENCH_throughput.json / BENCH_ensemble.json
// cells, plus the small-c1 regimes PPSIM_C1 = 3 / 1 reaches at n = 16 / 64.
// For regimes outside that certified set the
// runtime boundary guard (half 1) remains the documented line of defense —
// and !PackedLayout::fits() regimes never reach a packed lane at all.
#pragma once

#include <cstdint>

#include "pl/packed_state.hpp"
#include "pl/params.hpp"

namespace ppsim::pl {

/// Closed integer interval [lo, hi] (lo > hi encodes the empty interval).
/// The field values being abstracted are small (O(kappa_max) <= a few
/// thousand in any fits() regime), so long long arithmetic never overflows.
struct Interval {
  long long lo = 0;
  long long hi = -1;  ///< default-constructed = empty

  [[nodiscard]] static constexpr Interval point(long long v) noexcept {
    return {v, v};
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return lo > hi; }
  [[nodiscard]] constexpr bool contains(long long v) const noexcept {
    return lo <= v && v <= hi;
  }
  [[nodiscard]] constexpr bool within(const Interval& o) const noexcept {
    return empty() || (lo >= o.lo && hi <= o.hi);
  }

  /// Convex hull of both branches of an arithmetic select.
  [[nodiscard]] constexpr Interval join(const Interval& o) const noexcept {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }
  /// Branch refinement: restrict to the values satisfying a predicate.
  [[nodiscard]] constexpr Interval meet(const Interval& o) const noexcept {
    const Interval r{lo > o.lo ? lo : o.lo, hi < o.hi ? hi : o.hi};
    return r;
  }
  [[nodiscard]] constexpr Interval add(long long c) const noexcept {
    if (empty()) return *this;
    return {lo + c, hi + c};
  }
  /// Sum of two intervals (the tau pre-normalization arithmetic).
  [[nodiscard]] constexpr Interval plus(const Interval& o) const noexcept {
    if (empty() || o.empty()) return {};
    return {lo + o.lo, hi + o.hi};
  }
  /// Remove a single value — exactly representable only at the edges; an
  /// interior removal keeps the hull (sound over-approximation).
  [[nodiscard]] constexpr Interval without(long long v) const noexcept {
    if (empty() || !contains(v)) return *this;
    if (lo == v && hi == v) return {};
    if (lo == v) return {lo + 1, hi};
    if (hi == v) return {lo, hi - 1};
    return *this;
  }
};

/// Per-field certification record: the abstract output interval against the
/// domain pack_word clamps that field to.
struct FieldCert {
  Interval out;
  Interval domain;
  [[nodiscard]] constexpr bool ok() const noexcept {
    return out.within(domain);
  }
};

/// Result of abstractly interpreting one kernel application from in-domain
/// (or caller-widened) input intervals.
struct KernelCert {
  // Output fields, named as in the scalar struct. l_dist is read-only in
  // the kernel (kept bits) and l_hits is cleared; both still recorded.
  FieldCert l_dist, l_hits, l_clock, l_sigr;
  FieldCert r_dist, r_hits, r_clock, r_sigr;
  FieldCert tok_pos;  ///< join over both sides and both color lanes, biased
  FieldCert flags;    ///< join over all 1-bit flags of both agents
  FieldCert bullet;   ///< join over both agents

  // Structural soundness of the kernel's in-regime tricks.
  bool hits_cap_premise = false;   ///< hits eq-cap operand <= psi
  bool clock_cap_premise = false;  ///< clock eq-cap operand <= kappa_max + 1
  bool dist_wrap_complete = false; ///< dist + 1 overflow is the single
                                   ///< wrapped value 2psi
  bool tau_norm_complete = false;  ///< pre-normalization tau in (-2psi,4psi)
  bool token_moves_in_field = false;  ///< +-1 moves stay inside pos bits

  [[nodiscard]] constexpr bool clamp_free() const noexcept {
    return l_dist.ok() && l_hits.ok() && l_clock.ok() && l_sigr.ok() &&
           r_dist.ok() && r_hits.ok() && r_clock.ok() && r_sigr.ok() &&
           tok_pos.ok() && flags.ok() && bullet.ok() && hits_cap_premise &&
           clock_cap_premise && dist_wrap_complete && tau_norm_complete &&
           token_moves_in_field;
  }
};

/// Abstract input state: one interval per field class (both agents and both
/// token colors share domains, so symmetric fields share an interval).
/// in_domain(p) builds the packed domain — the induction hypothesis; tests
/// widen individual fields to prove the interpreter's sensitivity.
struct AbstractInputs {
  Interval dist;     ///< both agents' dist
  Interval hits;     ///< both agents' hits
  Interval clock;    ///< both agents' clock and signal_r
  Interval tok_pos;  ///< biased token positions, all four tokens
  Interval flag;     ///< every 1-bit flag
  Interval bullet;

  [[nodiscard]] static constexpr AbstractInputs in_domain(
      const PlParams& p) noexcept {
    AbstractInputs a;
    a.dist = {0, 2LL * p.psi - 1};
    a.hits = {0, p.psi};
    a.clock = {0, p.kappa_max};
    a.tok_pos = {0, 2LL * p.psi - 1};  // pos in [1-psi, psi], biased psi-1
    a.flag = {0, 1};
    a.bullet = {0, 2};
    return a;
  }
};

namespace certify_detail {

/// Interval transfer of the kernel's equality-test cap
/// `x' = (x == cap) ? cap : x + 1` (DetermineMode lines 36-37 / 46-48 use
/// it for hits and, with cap + 1 as the test value, for clock). Returns the
/// output interval; `premise_ok` reports whether the equality test actually
/// covers the increment's overflow — it does iff x <= cap on entry.
constexpr Interval eq_cap_increment(const Interval& x, long long cap,
                                    bool& premise_ok) noexcept {
  premise_ok = premise_ok && x.hi <= cap;
  const Interval at_cap =
      x.contains(cap) ? Interval::point(cap) : Interval{};
  const Interval incremented = x.without(cap).add(1);
  return at_cap.join(incremented);
}

}  // namespace certify_detail

/// Abstractly interpret one apply_word_lanes application from `in`,
/// mirroring the kernel's SSA dataflow (pl/packed_protocol.hpp) step for
/// step. Sound per-step over-approximation; see the header comment.
[[nodiscard]] constexpr KernelCert certify_kernel(
    const PlParams& p, const AbstractInputs& in) noexcept {
  const long long psi = p.psi;
  const long long two_psi = 2 * psi;
  const long long kmax = p.kappa_max;
  const long long bot = psi - 1;  ///< biased pos of the bot token

  KernelCert c;
  const Interval dist_dom{0, two_psi - 1};
  const Interval hits_dom{0, psi};
  const Interval clock_dom{0, kmax};
  const Interval pos_dom{0, two_psi - 1};
  const Interval flag_dom{0, 1};
  const Interval bullet_dom{0, 2};
  c.hits_cap_premise = true;
  c.clock_cap_premise = true;

  // --- DetermineMode (Algorithm 4) ---
  // Lines 34-35: l.signal_r = leader ? kappa_max : l.signal_r.
  const Interval l_sigr1 = Interval::point(kmax).join(in.clock);
  // Lines 36-37: r.hits = min(hits + 1, psi), as an equality cap.
  const Interval r_hits1 =
      certify_detail::eq_cap_increment(in.hits, psi, c.hits_cap_premise);
  // Signal branch (lines 39-45). Branch constraint: l.signal_r | r.signal_r
  // != 0, so max(l_sigr1, r_sigr) >= 1 — the refinement that keeps the
  // line-45 decrement non-negative.
  Interval sigr_s0{l_sigr1.lo > in.clock.lo ? l_sigr1.lo : in.clock.lo,
                   l_sigr1.hi > in.clock.hi ? l_sigr1.hi : in.clock.hi};
  if (sigr_s0.lo < 1) sigr_s0.lo = 1;
  const Interval hits_s0 = Interval::point(0).join(r_hits1);  // lines 40-41
  const Interval sigr_s = sigr_s0.add(-1).join(sigr_s0);      // lines 43-45
  const Interval hits_s = Interval::point(0).join(hits_s0);
  // No-signal branch (lines 46-48): min(clock + 1, kappa_max) on a win,
  // implemented as an equality test against kappa_max + 1.
  const Interval clock_n0 = in.clock.add(1).join(in.clock);
  c.clock_cap_premise = c.clock_cap_premise && clock_n0.hi <= kmax + 1;
  const Interval clock_n =
      clock_n0.without(kmax + 1)
          .join(clock_n0.contains(kmax + 1) ? Interval::point(kmax)
                                            : Interval{});
  const Interval hits_n = Interval::point(0).join(r_hits1);
  // Merge of the two branches.
  const Interval l_clock2 = Interval::point(0).join(in.clock);
  const Interval r_clock2 = Interval::point(0).join(clock_n);
  const Interval r_hits2 = hits_s.join(hits_n);
  const Interval r_sigr2 = sigr_s.join(in.clock);
  const Interval l_sigr2 = Interval::point(0).join(l_sigr1);

  // --- CreateLeader (Algorithm 2) ---
  // Line 4: tmp = (l.dist + 1) mod 2psi via the wrap-to-zero select; the
  // select catches exactly the value 2psi, so it is complete iff
  // l.dist + 1 <= 2psi.
  const Interval tmp0 = in.dist.add(1);
  c.dist_wrap_complete = tmp0.hi <= two_psi;
  const Interval tmp1 =
      tmp0.without(two_psi)
          .join(tmp0.contains(two_psi) ? Interval::point(0) : Interval{});
  const Interval tmp = Interval::point(0).join(tmp1);  // & ~r_leader
  // Lines 7-8: r.dist = detect ? r.dist : tmp.
  const Interval r_dist1 = in.dist.join(tmp);

  // --- MoveToken (Algorithm 3), both color lanes ---
  // The two color lanes differ only in the Definition-3.3 offset d (black
  // d = 0, white d = psi); positions/payloads share domains, so one
  // abstract pass per color and the results join. The pos sub-field is
  // dist_bits wide, so its *structural* range — what the refinements below
  // may assume about a raw field value, domain or not — is [0, pos_mask].
  const long long pos_field_max =
      static_cast<long long>(PackedLayout::make(p).dist_mask);
  c.tau_norm_complete = true;
  c.token_moves_in_field = true;
  Interval tok_out{};
  for (int color = 0; color < 2; ++color) {
    const long long dbias = color == 0 ? -(psi - 1) : 1;
    // Lines 12-13: creation writes biased pos 2psi-1 (= psi).
    const Interval lt1 =
        in.tok_pos.join(Interval::point(two_psi - 1));
    // Lines 14-15: collision kill writes bot.
    const Interval lt1k = lt1.join(Interval::point(bot));
    // Lines 16-31, the four movement cases with branch-refined operands:
    //   case2 moves lt1 - 1 with pos(lt1) > bot+1 (structurally
    //   <= pos_field_max), so the decrement cannot borrow out of pos;
    //   case4 moves rt + 1 with pos(rt) < bot-1 (structurally >= 0), so
    //   the increment cannot carry into the payload bits. The within(pos
    //   domain) checks then tighten "stays in field" to "stays in domain".
    const Interval case2_src = lt1k.meet({bot + 2, pos_field_max});
    const Interval case4_src = in.tok_pos.meet({0, bot - 2});
    const Interval case2_dst = case2_src.add(-1);
    const Interval case4_dst = case4_src.add(1);
    c.token_moves_in_field = c.token_moves_in_field &&
                             case2_dst.within(pos_dom) &&
                             case4_dst.within(pos_dom);
    // lt2: case3 relaunch (2psi-1) / case4 move / move_r leaves bot / keep.
    const Interval lt2 = Interval::point(two_psi - 1)
                             .join(case4_dst)
                             .join(Interval::point(bot))
                             .join(lt1k);
    // rt2: case1 delivery turn-around lands biased 0 / case2 move / move_l
    // leaves bot / keep.
    const Interval rt2 = Interval::point(0)
                             .join(case2_dst)
                             .join(Interval::point(bot))
                             .join(in.tok_pos);
    // Lines 32-33: Definition-3.3 validity. tau = dist + pos + d over
    // *unbiased* arithmetic is implemented biased as d0 + pos + dbias,
    // normalized by ONE conditional add and ONE conditional subtract of
    // 2psi — complete iff the raw sum lies in (-2psi, 4psi). The kernel's
    // ld0 is the initiator's (never-written) dist; rd0 is the *updated*
    // responder dist from Algorithm 2 (r_dist1), so each side pairs its
    // own dist interval with its own post-move position.
    const Interval tau_l_pre = in.dist.plus(lt2).add(dbias);
    const Interval tau_r_pre = r_dist1.plus(rt2).add(dbias);
    c.tau_norm_complete = c.tau_norm_complete &&
                          tau_l_pre.lo > -two_psi &&
                          tau_l_pre.hi < 2 * two_psi &&
                          tau_r_pre.lo > -two_psi &&
                          tau_r_pre.hi < 2 * two_psi;
    // Kill writes bot; otherwise the moved token.
    tok_out = tok_out.join(lt2.join(Interval::point(bot)))
                  .join(rt2.join(Interval::point(bot)));
  }

  // --- EliminateLeaders (Algorithm 5) ---
  // Every write is a select among {0, dummy(1), live(2), other bullet};
  // flags select among {0, 1, other flag}.
  const Interval bullet_out = Interval::point(0)
                                  .join(Interval::point(1))
                                  .join(Interval::point(2))
                                  .join(in.bullet);
  const Interval flag_out = Interval::point(0)
                                .join(Interval::point(1))
                                .join(in.flag);

  // --- Fold the certification record ---
  c.l_dist = {in.dist, dist_dom};          // kept bits, never written
  c.l_hits = {Interval::point(0), hits_dom};  // line 36: l.hits = 0
  c.l_clock = {l_clock2, clock_dom};
  c.l_sigr = {l_sigr2, clock_dom};
  c.r_dist = {r_dist1, dist_dom};
  c.r_hits = {r_hits2, hits_dom};
  c.r_clock = {r_clock2, clock_dom};
  c.r_sigr = {r_sigr2, clock_dom};
  c.tok_pos = {tok_out, pos_dom};
  c.flags = {flag_out, flag_dom};
  c.bullet = {bullet_out, bullet_dom};
  return c;
}

/// Certify regime `p` from the full packed domain (the induction
/// hypothesis: domain in, domain out, hence pack_word clamps unreachable
/// inside a packed lane).
[[nodiscard]] constexpr KernelCert certify_kernel(
    const PlParams& p) noexcept {
  return certify_kernel(p, AbstractInputs::in_domain(p));
}

/// The headline predicate: in regime `p`, no pack_word clamp is reachable
/// from in-domain states through the kernel.
[[nodiscard]] constexpr bool kernel_clamp_free(const PlParams& p) noexcept {
  return certify_kernel(p).clamp_free();
}

// --- Certified regimes -----------------------------------------------------
//
// Every packed parameter regime present in the committed bench artifacts is
// certified here at compile time; the engines' runtime round-trip guard is
// thereby a *boundary* (fault-ingress) check only in these regimes, not a
// closure check. BENCH_throughput.json: P_PL c1 = 4 (PPSIM_C1 default) at
// the packed cells n = 64, 1024 and 16384. BENCH_ensemble.json: the same
// c1 = 4 family at
// n in {16, 64, 256} (engine "word"). The small-c1 regimes (n, c1) in
// {(16, 3), (64, 1)} run on the same u64 word lane and certify too.

static_assert(kernel_clamp_free(PlParams::make(64, 4)),
              "P_PL bench regime n=64,c1=4 must certify clamp-free");
static_assert(kernel_clamp_free(PlParams::make(1024, 4)),
              "P_PL bench regime n=1024,c1=4 must certify clamp-free");
static_assert(kernel_clamp_free(PlParams::make(16384, 4)),
              "P_PL flagship bench regime n=16384,c1=4 must certify "
              "clamp-free");
static_assert(kernel_clamp_free(PlParams::make(16, 4)) &&
                  kernel_clamp_free(PlParams::make(256, 4)),
              "P_PL ensemble bench regimes (word) must certify clamp-free");
static_assert(kernel_clamp_free(PlParams::make(16, 3)),
              "P_PL small-c1 regime n=16,c1=3 must certify clamp-free");
static_assert(kernel_clamp_free(PlParams::make(64, 1)),
              "P_PL small-c1 regime n=64,c1=1 must certify clamp-free");
// The paper's own constant (c1 = 32) at the flagship ring size still fits
// one word (51 bits at n = 2^16) and certifies.
static_assert(PackedLayout::make(PlParams::make(65536, 32)).fits() &&
                  kernel_clamp_free(PlParams::make(65536, 32)),
              "paper regime n=2^16,c1=32 must fit u64 and certify "
              "clamp-free");

}  // namespace ppsim::pl
