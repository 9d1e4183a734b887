// The word-packed P_PL transition kernel: Algorithms 1-5 executed on the
// bit-sliced uint64_t representation of pl/packed_state.hpp, as pure
// branchless dataflow, generic over a SIMD lane type (core/wordlane.hpp).
//
// One call = one interaction per lane: the scalar instantiation
// (V = uint64_t) executes a single (initiator, responder) pair; the vector
// instantiations (V = core::WordVec, core::WordVec8) execute four or eight
// *scheduler-independent* interactions at once — the grouped engine driver
// (core::WordGroupDriver) hands it only runs of disjoint agent pairs, so
// lane-parallel execution is bit-identical to sequential execution by
// construction.
//
// Why this shape: the scalar transition's ~20 conditionals fire at
// scheduler-random times, so a sizable fraction mispredict and every flush
// also tears down the out-of-order overlap between consecutive
// interactions. A first rewrite that merely unpacked both agents into
// (pos, value, carry, ...) int locals spilled ~80 stack slots and ran 2x
// *slower* than the scalar path — the lessons baked in here:
//
//  * Fields stay IN PLACE inside the word wherever possible and are
//    compared/updated against field-position constants precomputed in
//    PlKernelConsts (one_in_field, psi_in_field, ...), so almost no
//    variable shifts or cross-position moves are needed. Each constant
//    reaches the lanes through the caller's broadcast policy B
//    (core/wordlane.hpp): left to the compiler, the vector clones built
//    them from neighbouring fields loaded as one register and permuted
//    (vpermq, ~30 per step on the shuffle port), so the clones broadcast
//    each one from memory instead.
//  * Every conditional is an arithmetic select (core::vsel: mask-and-xor
//    over full-width compare masks — immune to the compiler
//    re-introducing branches, which -O2 does to plain ternaries here).
//  * Tokens are processed in token algebra on the packed (biased pos |
//    value | carry) sub-word: a right-move is `tok - 1` (payload rides
//    along), a left-move is `tok + 1`, the line-21 turn-around target
//    pos = 1 - psi is biased 0 so delivery keeps payload bits only, and
//    "bot" is the constant bias. The mod-2psi reductions are one
//    conditional add plus one conditional subtract (never a divide). The
//    two color lanes share one force-inlined code path.
//
// Equivalence contract: the dataflow below is an SSA rewrite of
// detail::create_leader + common::eliminate_leaders_step (pl/protocol.hpp)
// with the event sink erased — for every pair of states inside the packed
// domain,
//
//   unpack(apply_word(pack(l), pack(r))) == apply(l, r)
//
// field for field, including the payload bits of non-existent tokens
// (clears write the all-zero-payload bot exactly where the scalar code
// calls Token::clear(); untouched tokens are re-spliced verbatim). The
// contract is enforced three ways: exhaustive/boundary sweeps in
// tests/pl/packed_state_test.cpp, randomized scalar-vs-word cross-checks
// in tests/core/word_kernel_test.cpp, and the cross-engine differential
// fuzzer (src/verification/differential.hpp), where the EnsembleRunner
// kernel lanes (one ring, and eight in lockstep) replay this code against
// the scalar reference path, fault storms included.
//
// Domain closure: starting from in-domain words, every field written below
// stays in domain (dist via the wrap-to-zero select, clock/hits/signal_r
// via their clamps — which use equality against the cap, valid because the
// domain bounds hits <= psi and clock/signal_r <= kappa_max at entry —
// and token positions by the same bounds the scalar code maintains:
// creation writes psi, right-moves stop at pos 1, left-moves stop at
// pos -1, biased token arithmetic never carries out of the pos sub-field),
// so a packed engine lane never needs per-step validation — out-of-domain
// states can only *enter* through pack_word, whose clamping round-trip
// check rejects them at the boundary. This argument is MACHINE-CHECKED:
// pl/packed_certify.hpp abstractly interprets the dataflow below over
// field intervals (each equality-cap premise, the wrap completeness, the
// Definition-3.3 normalization range and the token carry/borrow freedom
// are explicit proof obligations, not assumptions) and static_asserts
// clamp-freedom for every committed bench regime — editing this kernel in
// a way that breaks closure fails to compile there before any test runs.
#pragma once

#include <cstdint>

#include "core/wordlane.hpp"
#include "pl/packed_state.hpp"

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace ppsim::pl {

/// Field-position constants of one PackedLayout, precomputed once per
/// engine block so the kernel is pure register arithmetic. "<x>_d/_h/_c/_s"
/// are values shifted into the dist/hits/clock/signal_r field positions;
/// token constants live in pos-0 (token sub-word) coordinates.
struct PlKernelConsts {
  unsigned dist_shift = 0;
  unsigned tokb_shift = 0;
  unsigned tokw_shift = 0;
  unsigned value_bit = 0;  ///< dist_bits (token value bit index)
  unsigned carry_bit = 0;  ///< dist_bits + 1

  std::uint64_t dist_f = 0;  ///< field masks, in place
  std::uint64_t hits_f = 0;
  std::uint64_t clock_f = 0;
  std::uint64_t sigr_f = 0;

  std::uint64_t one_d = 0, psi_d = 0, twopsi_d = 0;
  std::uint64_t one_h = 0, psi_h = 0;
  std::uint64_t one_c = 0, kmax_c = 0, kmax_p1_c = 0;
  std::uint64_t one_s = 0, kmax_s = 0;

  std::uint64_t tok_mask = 0;      ///< pos | value | carry, pos-0
  std::uint64_t pos_mask = 0;      ///< pos sub-field, pos-0
  std::uint64_t payload_mask = 0;  ///< value | carry bits, pos-0
  std::uint64_t bot = 0;           ///< biased pos of 0 (= psi - 1), payload 0
  std::uint64_t bot_p1 = 0, bot_m1 = 0;
  std::uint64_t psi_bias = 0;  ///< biased pos of psi (creation/relaunch)
  std::uint64_t bit_value = 0, bit_carry = 0;

  std::uint64_t psi_p0 = 0, psim1_p0 = 0, two_psi_p0 = 0;
  std::uint64_t dbias[2] = {0, 0};  ///< d - bias (wrapped), per color
  std::uint64_t d_ip[2] = {0, 0};   ///< d in dist position, per color

  std::uint64_t keep_l = 0;  ///< wl bits the kernel never writes
  std::uint64_t keep_r = 0;  ///< wr bits the kernel never writes

  [[nodiscard]] static constexpr PlKernelConsts make(
      const PackedLayout& l) noexcept {
    PlKernelConsts k;
    k.dist_shift = l.dist_shift;
    k.tokb_shift = l.tokb_shift;
    k.tokw_shift = l.tokw_shift;
    k.value_bit = l.dist_bits;
    k.carry_bit = l.dist_bits + 1;
    k.dist_f = l.dist_mask << l.dist_shift;
    k.hits_f = l.hits_mask << l.hits_shift;
    k.clock_f = l.clock_mask << l.clock_shift;
    k.sigr_f = l.clock_mask << l.sigr_shift;
    k.one_d = std::uint64_t{1} << l.dist_shift;
    k.psi_d = static_cast<std::uint64_t>(l.psi) << l.dist_shift;
    k.twopsi_d = static_cast<std::uint64_t>(l.two_psi) << l.dist_shift;
    k.one_h = std::uint64_t{1} << l.hits_shift;
    k.psi_h = static_cast<std::uint64_t>(l.psi) << l.hits_shift;
    k.one_c = std::uint64_t{1} << l.clock_shift;
    k.kmax_c = static_cast<std::uint64_t>(l.kappa_max) << l.clock_shift;
    k.kmax_p1_c = k.kmax_c + k.one_c;
    k.one_s = std::uint64_t{1} << l.sigr_shift;
    k.kmax_s = static_cast<std::uint64_t>(l.kappa_max) << l.sigr_shift;
    k.pos_mask = l.dist_mask;
    k.bit_value = std::uint64_t{1} << l.dist_bits;
    k.bit_carry = std::uint64_t{1} << (l.dist_bits + 1);
    k.payload_mask = k.bit_value | k.bit_carry;
    k.tok_mask = k.pos_mask | k.payload_mask;
    k.bot = static_cast<std::uint64_t>(l.psi - 1);
    k.bot_p1 = k.bot + 1;
    k.bot_m1 = k.bot - 1;
    k.psi_bias = static_cast<std::uint64_t>(l.psi + l.psi - 1);
    k.psi_p0 = static_cast<std::uint64_t>(l.psi);
    k.psim1_p0 = static_cast<std::uint64_t>(l.psi - 1);
    k.two_psi_p0 = static_cast<std::uint64_t>(l.two_psi);
    k.dbias[0] = static_cast<std::uint64_t>(-static_cast<std::int64_t>(
        l.psi - 1));                 // black: d = 0
    k.dbias[1] = std::uint64_t{1};   // white: d = psi, psi - (psi-1) = 1
    k.d_ip[0] = 0;
    k.d_ip[1] = k.psi_d;
    // wl: leader (bit 0), b (bit 1) and dist are never written; the hits
    // field is deliberately NOT kept (line 36 sets l.hits = 0). wr: only
    // r.last (bit 2) is never written.
    k.keep_l = std::uint64_t{0x3} | k.dist_f;
    k.keep_r = std::uint64_t{0x4};
    return k;
  }
};

namespace packed_detail {

/// One color lane of MoveToken(token, d) — Algorithm 3 — in packed-token
/// algebra over lane type V. `lt`/`rt` are the two agents' token sub-words
/// of this color in pos-0 coordinates, updated in place. `promote_m`
/// accumulates the lane's line-18 leader creation mask; the caller merges
/// it into r's leader/bullet/shield/signal_b (become_leader is idempotent
/// and nothing reads those fields between the promotion sites and
/// EliminateLeaders). `r_b_m` (the responder's segment bit, as a mask) is
/// read and written: line-20 token delivery in construction mode.
///
/// Inputs Algorithm 3 reads but never writes ride as values: the
/// initiator's dist (in dist position, never updated by Algorithm 2) and
/// pos-0 copies ld0/rd0 for the Definition-3.3 target arithmetic, l_last
/// (post-line-9, as mask), r_last, detect (r's mode, fixed after
/// Algorithm 4) and l_b.
template <int color, typename V, typename B>
[[gnu::always_inline]] inline void move_token_lane(
    V& lt, V& rt, V& r_b_m, V& promote_m, const V& l_dist_ip,
    const V& l_last_m, const V& r_last_m, const V& detect_m, const V& l_b_m,
    const V& ld0, const V& rd0, const PlKernelConsts& K) noexcept {
  using core::veq;
  using core::vgt;
  using core::vmask;
  using core::vsel;
  const V zero = core::vbroadcast<V>(0);
  const V one = core::vbroadcast<V>(1);
  const V pos_mask = B::template from<V>(K.pos_mask);
  const V bot = B::template from<V>(K.bot);
  const V bot_p1 = B::template from<V>(K.bot_p1);
  const V bot_m1 = B::template from<V>(K.bot_m1);
  const V bit_value = B::template from<V>(K.bit_value);
  const V bit_carry = B::template from<V>(K.bit_carry);
  const V psi_bias = B::template from<V>(K.psi_bias);
  const V d_ip = B::template from<V>(K.d_ip[color]);
  const V dbias = B::template from<V>(K.dbias[color]);
  const V psi_p0 = B::template from<V>(K.psi_p0);
  const V psim1_p0 = B::template from<V>(K.psim1_p0);
  const V two_psi_p0 = B::template from<V>(K.two_psi_p0);

  // Lines 12-13: a border agent outside the last segment (re)creates a
  // token initialized for round 0 of the ripple-carry increment:
  // (b', b'') = (1 - b, b), target T = psi.
  const V lex_m = ~veq(lt & pos_mask, bot);
  const V create_m = veq(l_dist_ip, d_ip) & ~l_last_m & ~lex_m;
  const V created = psi_bias | vsel(l_b_m, bit_carry, bit_value);
  V lt1 = vsel(create_m, created, lt);

  // Lines 14-15: collision with the responder's token / last segment.
  const V rex_m = ~veq(rt & pos_mask, bot);
  const V kill0_m = (lex_m | create_m) & (rex_m | r_last_m);
  lt1 = vsel(kill0_m, bot, lt1);

  // The four mutually exclusive movement cases of lines 16-31 in biased
  // coordinates: pos == 1 is bot+1, pos >= 2 is > bot+1, pos == -1 is
  // bot-1, pos <= -2 is < bot-1 (which also encodes rt.exists());
  // case1/case2 are exclusive by value of lt, case3/case4 by value of rt,
  // and the pseudocode's else-chain gates 3/4 behind !(1|2).
  const V lp = lt1 & pos_mask;
  const V rp = rt & pos_mask;
  const V case1 = veq(lp, bot_p1);
  const V case2 = vgt(lp, bot_p1);
  const V rest = ~(case1 | case2);
  const V case3 = rest & veq(rp, bot_m1);
  const V case4 = rest & vgt(bot_m1, rp);

  // Lines 16-20: delivery at the right target — detect mode raises a
  // leader on a bit mismatch, construction mode writes the bit.
  const V lv_m = vmask(lt1, K.value_bit);
  promote_m = promote_m | (case1 & detect_m & (lv_m ^ r_b_m));
  r_b_m = vsel(case1 & ~detect_m, lv_m, r_b_m);

  // Lines 21-31 in token algebra: the line-21 turn-around lands on
  // pos = 1 - psi (biased 0), so the new right token is the payload alone;
  // a right-move is lt - 1 (payload rides along); the line-27 re-launch
  // target is psi with the recomputed ripple-carry payload; a left-move is
  // rt + 1.
  const V rc_m = vmask(rt, K.carry_bit);
  const V relaunch =
      psi_bias |
      vsel(rc_m, vsel(l_b_m, bit_carry, bit_value), l_b_m & bit_value);
  const V move_r = case1 | case2;
  const V move_l = case3 | case4;
  const V lt2 =
      vsel(case3, relaunch, vsel(case4, rt + one, vsel(move_r, bot, lt1)));
  const V rt2 = vsel(case1, lt1 & ~pos_mask,
                     vsel(case2, lt1 - one, vsel(move_l, bot, rt)));

  // Lines 32-33: delete last-segment / invalid tokens (Definition 3.3).
  // tau = (dist + pos + d) mod 2psi with dist + pos + d in [1-psi, 4psi-1]:
  // one conditional add plus one conditional subtract. Signed compares —
  // a wrapped-negative tau must order below zero.
  const V lpos = lt2 & pos_mask;
  V tau_l = ld0 + lpos + dbias;
  tau_l = tau_l + (two_psi_p0 & vgt(zero, tau_l));
  tau_l = tau_l - (two_psi_p0 & ~vgt(two_psi_p0, tau_l));
  const V inv_l = vsel(vgt(lpos, bot), vgt(psi_p0, tau_l),
                       vgt(one, tau_l) | vgt(tau_l, psim1_p0));
  const V kill_l = ~veq(lpos, bot) & (l_last_m | inv_l);
  const V rpos = rt2 & pos_mask;
  V tau_r = rd0 + rpos + dbias;
  tau_r = tau_r + (two_psi_p0 & vgt(zero, tau_r));
  tau_r = tau_r - (two_psi_p0 & ~vgt(two_psi_p0, tau_r));
  const V inv_r = vsel(vgt(rpos, bot), vgt(psi_p0, tau_r),
                       vgt(one, tau_r) | vgt(tau_r, psim1_p0));
  const V kill_r = ~veq(rpos, bot) & (r_last_m | inv_r);

  lt = vsel(kill_l, bot, lt2);
  rt = vsel(kill_r, bot, rt2);
}

/// One full Algorithm-1 interaction (CreateLeader(); EliminateLeaders())
/// per lane. `wl` holds initiator words, `wr` responder words.
///
/// Structured for register pressure: the output words are *accumulated* —
/// every field value is OR-folded into wl/wr the moment it is final, so
/// its register dies early instead of staying live until a monolithic
/// repack (the difference is ~2x in spill traffic at 8 lanes).
template <typename V, typename B>
[[gnu::always_inline]] inline void apply_word_lanes(
    V& wl, V& wr, const PlKernelConsts& K) noexcept {
  using core::veq;
  using core::vgt;
  using core::vmask;
  using core::vsel;
  const V zero = core::vbroadcast<V>(0);

  // Flag masks and in-place fields.
  const V l_leader_m = vmask(wl, 0);
  const V l_b_m = vmask(wl, 1);
  const V r_leader_m = vmask(wr, 0);
  const V r_last_m = vmask(wr, 2);
  const V dist_f = B::template from<V>(K.dist_f);
  const V l_dist_ip = wl & dist_f;
  V l_clock_ip = wl & B::template from<V>(K.clock_f);
  V l_sigr_ip = wl & B::template from<V>(K.sigr_f);
  const V r_dist_ip0 = wr & dist_f;
  V r_hits_ip = wr & B::template from<V>(K.hits_f);
  V r_clock_ip = wr & B::template from<V>(K.clock_f);
  V r_sigr_ip = wr & B::template from<V>(K.sigr_f);

  // --- DetermineMode() — Algorithm 4 (lines 34-48) ---
  const V psi_h = B::template from<V>(K.psi_h);
  l_sigr_ip = vsel(l_leader_m, B::template from<V>(K.kmax_s),
                   l_sigr_ip);                              // lines 34-35
  // Lines 36-37: min(hits + 1, psi); hits <= psi in domain, so the clamp
  // is an equality test.
  r_hits_ip = vsel(veq(r_hits_ip, psi_h), psi_h,
                   r_hits_ip + B::template from<V>(K.one_h));
  const V sig_m = ~veq(l_sigr_ip | r_sigr_ip, zero);        // line 38
  // Signal branch (lines 39-45):
  const V absorb_m =
      ~veq(r_sigr_ip, zero) & ~vgt(r_sigr_ip, l_sigr_ip);   // l >= r > 0
  const V hits_s0 = r_hits_ip & ~absorb_m;                  // lines 40-41
  const V sigr_s0 =
      vsel(vgt(l_sigr_ip, r_sigr_ip), l_sigr_ip, r_sigr_ip);  // line 42
  const V win_s_m = veq(hits_s0, psi_h);                    // lines 43-45
  const V sigr_s = sigr_s0 - (win_s_m & B::template from<V>(K.one_s));
  const V hits_s = hits_s0 & ~win_s_m;
  // No-signal branch (lines 46-48): min(clock + 1, kappa_max) on a win.
  const V win_n_m = veq(r_hits_ip, psi_h);
  V clock_n = r_clock_ip + (win_n_m & B::template from<V>(K.one_c));
  const V kmax_c = B::template from<V>(K.kmax_c);
  clock_n =
      vsel(veq(clock_n, B::template from<V>(K.kmax_p1_c)), kmax_c, clock_n);
  const V hits_n = r_hits_ip & ~win_n_m;
  // Merge:
  l_clock_ip = l_clock_ip & ~sig_m;
  r_clock_ip = vsel(sig_m, zero, clock_n);
  r_hits_ip = vsel(sig_m, hits_s, hits_n);
  r_sigr_ip = vsel(sig_m, sigr_s, r_sigr_ip);
  l_sigr_ip = l_sigr_ip & ~sig_m;

  // --- CreateLeader() — Algorithm 2 (lines 4-9) ---
  V tmp_ip = l_dist_ip + B::template from<V>(K.one_d);      // line 4
  tmp_ip = tmp_ip & ~veq(tmp_ip, B::template from<V>(K.twopsi_d));
  tmp_ip = tmp_ip & ~r_leader_m;
  const V detect_m = veq(r_clock_ip, kmax_c);
  V promote_m = detect_m & ~veq(tmp_ip, r_dist_ip0);        // lines 5-6
  const V r_leader9_m = promote_m | r_leader_m;  // r.leader at line 9
  const V r_dist_ip = vsel(detect_m, r_dist_ip0, tmp_ip);   // lines 7-8
  // Line 9: does l belong to the last segment?
  const V border_m =
      veq(r_dist_ip, zero) | veq(r_dist_ip, B::template from<V>(K.psi_d));
  const V l_last_m = r_leader9_m | (r_last_m & ~border_m);

  // Lines 10-11: both color lanes through the one shared code path (black:
  // d = 0, white: d = psi). The black lane may write r.b; the white lane
  // reads it. The output accumulators start here: every already-final
  // field folds in immediately and its register dies. The two-token phase
  // is deliberately split — the black tokens retire into the accumulators
  // *before* the white sub-words are even extracted, so at no point do
  // both colors' token registers overlap the ~30-value live range of a
  // move_token_lane body (the peak-pressure cut that lets two kernel
  // instances share the register file; only r_b_m and promote_m carry
  // between the color lanes).
  const V tok_mask = B::template from<V>(K.tok_mask);
  const V ld0 = l_dist_ip >> K.dist_shift;
  const V rd0 = r_dist_ip >> K.dist_shift;
  V r_b_m = vmask(wr, 1);
  V wl_acc = (wl & B::template from<V>(K.keep_l)) | l_clock_ip | l_sigr_ip |
             (l_last_m & core::vbroadcast<V>(0x4));
  V wr_acc = (wr & B::template from<V>(K.keep_r)) | r_dist_ip | r_hits_ip |
             r_clock_ip | r_sigr_ip;
  {
    V ltb = (wl >> K.tokb_shift) & tok_mask;
    V rtb = (wr >> K.tokb_shift) & tok_mask;
    move_token_lane<0, V, B>(ltb, rtb, r_b_m, promote_m, l_dist_ip, l_last_m,
                       r_last_m, detect_m, l_b_m, ld0, rd0, K);
    wl_acc = wl_acc | (ltb << K.tokb_shift);
    wr_acc = wr_acc | (rtb << K.tokb_shift);
  }
  {
    V ltw = (wl >> K.tokw_shift) & tok_mask;
    V rtw = (wr >> K.tokw_shift) & tok_mask;
    move_token_lane<1, V, B>(ltw, rtw, r_b_m, promote_m, l_dist_ip, l_last_m,
                       r_last_m, detect_m, l_b_m, ld0, rd0, K);
    wl_acc = wl_acc | (ltw << K.tokw_shift);
    wr_acc = wr_acc | (rtw << K.tokw_shift);
  }
  wr_acc = wr_acc | (r_b_m & core::vbroadcast<V>(0x2));

  // Deferred become_leader merge (lines 6 and 18; idempotent, and none of
  // leader/bullet/shield/signal_b is read between the promotion sites and
  // EliminateLeaders). Bullets live in place at bits 5-6: dummy = 0x20,
  // live = 0x40.
  const V bullet_f = core::vbroadcast<V>(0x60);
  const V live_b = core::vbroadcast<V>(0x40);
  const V r_leader2_m = promote_m | r_leader_m;
  V r_bullet_ip = vsel(promote_m, live_b, wr & bullet_f);
  V r_shield_m = promote_m | vmask(wr, 3);
  V r_sigb_m = vmask(wr, 4) & ~promote_m;

  // --- EliminateLeaders() — Algorithm 5 (lines 51-62) ---
  V l_sigb_m = vmask(wl, 4);
  V l_bullet_ip = wl & bullet_f;
  const V fire_l_m = l_leader_m & l_sigb_m;                 // lines 51-52
  l_bullet_ip = vsel(fire_l_m, live_b, l_bullet_ip);
  const V l_shield_m = fire_l_m | vmask(wl, 3);
  l_sigb_m = l_sigb_m & ~fire_l_m;
  const V fire_r_m = r_leader2_m & r_sigb_m;                // lines 53-54
  r_bullet_ip = vsel(fire_r_m, core::vbroadcast<V>(0x20), r_bullet_ip);
  r_shield_m = r_shield_m & ~fire_r_m;
  r_sigb_m = r_sigb_m & ~fire_r_m;
  const V have_m = ~veq(l_bullet_ip, zero);
  const V hit_m = have_m & r_leader2_m;                     // lines 55-57
  const V killed_m = hit_m & veq(l_bullet_ip, live_b) & ~r_shield_m;
  const V adv_m = have_m & ~r_leader2_m;                    // lines 58-61
  const V r_leader3_m = r_leader2_m & ~killed_m;
  r_bullet_ip =
      vsel(adv_m & veq(r_bullet_ip, zero), l_bullet_ip, r_bullet_ip);
  r_sigb_m = r_sigb_m & ~adv_m;
  l_bullet_ip = l_bullet_ip & ~have_m;
  // Line 62: absence signals propagate right-to-left.
  const V l_sigb2_m = l_sigb_m | r_sigb_m | r_leader3_m;

  // --- Final fold: the elimination-block fields join the accumulators
  // (everything else was folded as it finalized; the cleared hits field of
  // wl is line 36's l.hits = 0) ---
  wl = wl_acc | (l_shield_m & core::vbroadcast<V>(0x8)) |
       (l_sigb2_m & core::vbroadcast<V>(0x10)) | l_bullet_ip;
  wr = wr_acc | (r_leader3_m & core::vbroadcast<V>(0x1)) |
       (r_shield_m & core::vbroadcast<V>(0x8)) |
       (r_sigb_m & core::vbroadcast<V>(0x10)) | r_bullet_ip;
}

}  // namespace packed_detail

/// One interaction on two packed words (the V = uint64_t instantiation,
/// with the constants derived on the spot — engine hot loops precompute
/// PlKernelConsts once per block and call apply_word_x4/apply_word_x8).
inline void apply_word(std::uint64_t& wl, std::uint64_t& wr,
                       const PackedLayout& lay) noexcept {
  const PlKernelConsts k = PlKernelConsts::make(lay);
  packed_detail::apply_word_lanes<std::uint64_t, core::SplatBroadcast>(wl, wr,
                                                                       k);
}

/// One interaction with precomputed constants: the one-at-a-time reference
/// the engines' vector runs are tested against.
inline void apply_word_one(std::uint64_t& wl, std::uint64_t& wr,
                           const PlKernelConsts& k) noexcept {
  packed_detail::apply_word_lanes<std::uint64_t, core::SplatBroadcast>(wl, wr,
                                                                       k);
}

/// Four scheduler-independent interactions at once (the core::WordVec
/// instantiation; the caller guarantees the four agent pairs are disjoint).
/// B is the broadcast policy of the constants (core/wordlane.hpp): the word
/// driver's ISA clones broadcast them from memory, code outside a clone
/// passes core::SplatBroadcast.
template <typename B>
[[gnu::always_inline]] inline void apply_word_x4(core::WordVec& wl,
                                                 core::WordVec& wr,
                                                 const PlKernelConsts& k,
                                                 B) noexcept {
  packed_detail::apply_word_lanes<core::WordVec, B>(wl, wr, k);
}

/// Eight scheduler-independent interactions at once (the core::WordVec8
/// instantiation — one AVX-512 register per side where the ISA has it).
template <typename B>
[[gnu::always_inline]] inline void apply_word_x8(core::WordVec8& wl,
                                                 core::WordVec8& wr,
                                                 const PlKernelConsts& k,
                                                 B) noexcept {
  packed_detail::apply_word_lanes<core::WordVec8, B>(wl, wr, k);
}

/// Leader output read straight off the packed word (bit 0 of the layout).
[[nodiscard]] constexpr bool word_leader(std::uint64_t w,
                                         const PackedLayout&) noexcept {
  return (w & 1) != 0;
}

}  // namespace ppsim::pl

#pragma GCC diagnostic pop
