// P_PL — the paper's self-stabilizing leader-election protocol for directed
// rings (Algorithms 1-5). `l` is the initiator (left neighbor), `r` the
// responder (right neighbor), exactly as in the paper.
//
// Line-number comments refer to the paper's pseudocode. Two transcription
// fixes relative to the raw arXiv text are applied and documented in
// README.md, Fidelity notes 1 and 2: the InvalidToken interval sense
// (Def. 3.3) and the payload in line 30. `mode` is derived from `clock`
// (Fidelity note 3).
//
// Every transition is templated on an event sink (see events.hpp); the
// default NullSink makes the hooks vanish, so the uninstrumented hot path is
// unchanged.
#pragma once

#include <string>

#include "common/elimination.hpp"
#include "pl/events.hpp"
#include "pl/packed_protocol.hpp"
#include "pl/packed_state.hpp"
#include "pl/params.hpp"
#include "pl/state.hpp"

namespace ppsim::pl {

namespace detail {

/// (x + d) mod 2psi with possibly negative x + d.
[[nodiscard]] constexpr int mod_2psi(int v, int two_psi) noexcept {
  v %= two_psi;
  return v < 0 ? v + two_psi : v;
}

/// Definition 3.3 (with the interval sense forced by the Fig.-2 trajectory;
/// see README.md, Fidelity note 1). A token at agent `v` with color offset `d`
/// (0 = black, psi = white) is valid iff its shifted target
/// tau = (v.dist + token.pos + d) mod 2psi lies in the rightward band
/// [psi, 2psi-1] when moving right, or the leftward band [1, psi-1] when
/// moving left. A token whose left leg has completed the trajectory lands on
/// tau == psi and is therefore invalid — that is how lines 32-33 delete a
/// token that reached its final destination (Def. 3.4).
[[nodiscard]] constexpr bool in_valid_band(int tau, int pos,
                                           const PlParams& p) noexcept {
  if (pos > 0) return tau >= p.psi && tau <= p.two_psi() - 1;
  return tau >= 1 && tau <= p.psi - 1;
}
[[nodiscard]] constexpr bool invalid_token(const PlState& v, const Token& t,
                                           int d,
                                           const PlParams& p) noexcept {
  if (!t.exists()) return false;
  const int tau = mod_2psi(static_cast<int>(v.dist) + t.pos + d, p.two_psi());
  return !in_valid_band(tau, t.pos, p);
}

/// The Def.-3.4 completion signature: a token deleted by lines 32-33 right
/// after its last landing sits at shifted target tau == psi moving left.
[[nodiscard]] constexpr bool is_completed_landing(const PlState& v,
                                                  const Token& t, int d,
                                                  const PlParams& p) noexcept {
  if (t.pos != 1 - p.psi) return false;
  return mod_2psi(static_cast<int>(v.dist) + t.pos + d, p.two_psi()) ==
         p.psi;
}

/// MoveToken(token, d) — Algorithm 3. `tm` selects token_b (d = 0) or
/// token_w (d = psi).
template <typename Sink>
inline void move_token(PlState& l, PlState& r, Token PlState::* tm, int d,
                       const PlParams& p, Sink& sink) noexcept {
  const int psi = p.psi;
  const bool black = d == 0;
  Token& lt = l.*tm;
  Token& rt = r.*tm;

  // Lines 12-13: a border agent outside the last segment (re)creates a token
  // initialized for round 0 of the ripple-carry increment:
  // (b', b'') = (1 - b, b), target index T = psi.
  if (static_cast<int>(l.dist) == d && l.last == 0 && !lt.exists()) {
    lt = Token{static_cast<std::int8_t>(psi),
               static_cast<std::uint8_t>(1 - l.b), l.b};
    sink.token_created(black);
  }

  // Lines 14-15: the left token dies when the responder holds a token of the
  // same color (collision; the rightmost survives) or belongs to the last
  // segment (a token never enters the last segment).
  if (lt.exists() && (rt.exists() || r.last == 1)) {
    sink.token_died(black, rt.exists() ? TokenDeath::kCollision
                                       : TokenDeath::kLastSegment);
    lt.clear();
  }

  if (lt.pos == 1) {
    // Lines 16-22: the token reaches its right target r.
    if (in_detect_mode(r, p.kappa_max)) {
      sink.token_delivered(black, false);
      if (lt.value != r.b) {
        // Lines 17-18: imperfection detected.
        if (r.leader == 0) sink.leader_created(true);
        become_leader(r);
      }
    } else {
      r.b = lt.value;  // lines 19-20: construction writes the bit
      sink.token_delivered(black, true);
    }
    // Line 21: turn around; head left toward the next source bit.
    rt = Token{static_cast<std::int8_t>(1 - psi), lt.value, lt.carry};
    lt.clear();  // line 22
    sink.token_moved(black);
  } else if (lt.pos >= 2) {
    // Lines 23-25: move right.
    rt = Token{static_cast<std::int8_t>(lt.pos - 1), lt.value, lt.carry};
    lt.clear();
    sink.token_moved(black);
  } else if (rt.pos == -1) {
    // Lines 26-28: the token reaches its left target l; compute the next
    // round's bit and carry and head right again:
    // (b', b'') <- (1 - l.b, l.b) if carry else (l.b, 0).
    lt = rt.carry != 0 ? Token{static_cast<std::int8_t>(psi),
                               static_cast<std::uint8_t>(1 - l.b), l.b}
                       : Token{static_cast<std::int8_t>(psi), l.b, 0};
    rt.clear();
    sink.token_moved(black);
  } else if (rt.exists() && rt.pos <= -2) {
    // Lines 29-31: move left. (Line 30's payload travels with the token;
    // README.md, Fidelity note 2.)
    lt = Token{static_cast<std::int8_t>(rt.pos + 1), rt.value, rt.carry};
    rt.clear();
    sink.token_moved(black);
  }

  // Lines 32-33: delete tokens that sit in the last segment or are invalid
  // (out of trajectory / trajectory completed).
  if (lt.exists() && (l.last == 1 || invalid_token(l, lt, d, p))) {
    sink.token_died(black, l.last == 1 ? TokenDeath::kLastSegment
                    : is_completed_landing(l, lt, d, p)
                        ? TokenDeath::kCompleted
                        : TokenDeath::kInvalid);
    lt.clear();
  }
  if (rt.exists() && (r.last == 1 || invalid_token(r, rt, d, p))) {
    sink.token_died(black, r.last == 1 ? TokenDeath::kLastSegment
                    : is_completed_landing(r, rt, d, p)
                        ? TokenDeath::kCompleted
                        : TokenDeath::kInvalid);
    rt.clear();
  }
}

/// DetermineMode() — Algorithm 4. Manages the leader-absence barometer
/// `clock` via resetting signals whose lifetime is governed by the lottery
/// game (Def. 3.8) on `hits`.
template <typename Sink>
inline void determine_mode(PlState& l, PlState& r, const PlParams& p,
                           Sink& sink) noexcept {
  // Lines 34-35: a leader (as initiator) generates a fresh resetting signal.
  if (l.leader == 1) {
    if (l.signal_r == 0) sink.signal_generated();
    l.signal_r = static_cast<std::uint16_t>(p.kappa_max);
  }
  // Line 36: interacting with the right neighbor resets the run length.
  l.hits = 0;
  // Line 37: interacting with the left neighbor extends it.
  r.hits = static_cast<std::uint8_t>(
      std::min(static_cast<int>(r.hits) + 1, p.psi));

  if (l.signal_r > 0 || r.signal_r > 0) {
    // Line 39: observing a signal resets both clocks.
    l.clock = 0;
    r.clock = 0;
    // Lines 40-41: the left signal absorbs the right one (hits reset to
    // simplify the paper's analysis).
    if (r.signal_r > 0 && l.signal_r >= r.signal_r) r.hits = 0;
    if (l.signal_r > 0 && r.signal_r > 0) sink.signal_absorbed();
    // Line 42: the (merged) signal moves right.
    if (l.signal_r > 0) sink.signal_moved();
    r.signal_r = std::max(l.signal_r, r.signal_r);
    l.signal_r = 0;
    // Lines 43-45: a lottery win decrements the signal's TTL.
    if (static_cast<int>(r.hits) == p.psi) {
      r.signal_r = static_cast<std::uint16_t>(r.signal_r - 1);
      r.hits = 0;
      if (r.signal_r == 0) sink.signal_expired();
    }
  } else if (static_cast<int>(r.hits) == p.psi) {
    // Lines 46-48: with no signal around, a lottery win advances the clock.
    r.clock = static_cast<std::uint16_t>(
        std::min(static_cast<int>(r.clock) + 1, p.kappa_max));
    r.hits = 0;
    sink.clock_advanced();
    if (static_cast<int>(r.clock) == p.kappa_max) sink.entered_detect();
  }
  // Lines 49-50: mode is derived from clock (README.md, Fidelity note 3).
}

/// CreateLeader() — Algorithm 2.
template <typename Sink>
inline void create_leader(PlState& l, PlState& r, const PlParams& p,
                          Sink& sink) noexcept {
  determine_mode(l, r, p, sink);  // line 3

  // Line 4: the responder's expected distance value.
  const int tmp =
      r.leader == 1 ? 0 : (static_cast<int>(l.dist) + 1) % p.two_psi();

  if (in_detect_mode(r, p.kappa_max) &&
      tmp != static_cast<int>(r.dist)) {
    // Lines 5-6: dist inconsistency detected.
    if (r.leader == 0) sink.leader_created(false);
    become_leader(r);
  }
  if (!in_detect_mode(r, p.kappa_max)) {
    r.dist = static_cast<std::uint16_t>(tmp);  // lines 7-8
  }

  // Line 9: does l belong to the last segment? Yes if its right neighbor is
  // a leader; no if its right neighbor starts a new segment; otherwise copy.
  if (r.leader == 1) {
    l.last = 1;
  } else if (static_cast<int>(r.dist) == 0 ||
             static_cast<int>(r.dist) == p.psi) {
    l.last = 0;
  } else {
    l.last = r.last;
  }

  move_token(l, r, &PlState::token_b, 0, p, sink);      // line 10
  move_token(l, r, &PlState::token_w, p.psi, p, sink);  // line 11
}

}  // namespace detail

/// Full Algorithm 1 with an event sink.
template <typename Sink>
inline void apply_instrumented(PlState& l, PlState& r, const PlParams& p,
                               Sink& sink) noexcept {
  detail::create_leader(l, r, p, sink);
  common::eliminate_leaders_step(l, r, sink);
}

/// The protocol object consumed by core::Runner and the test harness.
struct PlProtocol {
  using State = PlState;
  using Params = PlParams;
  static constexpr bool directed = true;

  /// Algorithm 1: CreateLeader(); EliminateLeaders().
  static void apply(State& l, State& r, const Params& p) noexcept {
    NullSink sink;
    apply_instrumented(l, r, p, sink);
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.leader == 1;
  }

  // --- Word-packed fast path (core::HasWordKernel) ---
  // The whole variable block bit-sliced into one uint64_t with a
  // parameter-derived layout (pl/packed_state.hpp) and a branch-lean
  // transition kernel bit-identical to apply() on in-domain states
  // (pl/packed_protocol.hpp). The EnsembleRunner kernel lane dispatches
  // to this automatically when the layout fits 64 bits; out-of-domain
  // states (fault injection beyond the declared domains) fail the
  // pack/unpack round trip and drop the ensemble back to its generic path.
  using WordLayout = PackedLayout;
  using WordKernelConsts = PlKernelConsts;

  [[nodiscard]] static WordLayout word_layout(const Params& p) noexcept {
    return PackedLayout::make(p);
  }
  [[nodiscard]] static std::uint64_t pack_word(
      const State& s, const WordLayout& l) noexcept {
    return pl::pack_word(s, l);
  }
  [[nodiscard]] static State unpack_word(std::uint64_t w,
                                         const WordLayout& l) noexcept {
    return pl::unpack_word(w, l);
  }
  [[nodiscard]] static WordKernelConsts make_word_consts(
      const WordLayout& l) noexcept {
    return PlKernelConsts::make(l);
  }
  [[gnu::always_inline]] static inline void apply_word_one(
      std::uint64_t& l, std::uint64_t& r,
      const WordKernelConsts& k) noexcept {
    pl::apply_word_one(l, r, k);
  }
  // always_inline so the vector bodies compile inside the ISA-dispatched
  // driver clones (core::WordGroupDriver), at the clone's ISA; `bcast` is
  // the clone's broadcast policy for the constants (core/wordlane.hpp).
  template <typename B>
  [[gnu::always_inline]] static inline void apply_word_x4(
      core::WordVec& l, core::WordVec& r, const WordKernelConsts& k,
      B bcast) noexcept {
    pl::apply_word_x4(l, r, k, bcast);
  }
  template <typename B>
  [[gnu::always_inline]] static inline void apply_word_x8(
      core::WordVec8& l, core::WordVec8& r, const WordKernelConsts& k,
      B bcast) noexcept {
    pl::apply_word_x8(l, r, k, bcast);
  }
  [[nodiscard]] static bool word_leader(std::uint64_t w,
                                        const WordLayout& l) noexcept {
    return pl::word_leader(w, l);
  }

  /// Human-readable state rendering (differential-fuzzer divergence reports;
  /// same customization point the checker adapters expose for decoded
  /// counterexamples).
  static std::string describe(const State& s, const Params&) {
    const auto token = [](const Token& t) {
      if (!t.exists()) return std::string("bot");
      // append, not a "(" + ... chain: the chain trips GCC 12's -Wrestrict
      // false positive in libstdc++'s operator+.
      std::string out("(");
      out.append(std::to_string(t.pos))
          .append(",")
          .append(std::to_string(t.value))
          .append(",")
          .append(std::to_string(t.carry))
          .append(")");
      return out;
    };
    return "{leader=" + std::to_string(s.leader) +
           " b=" + std::to_string(s.b) + " dist=" + std::to_string(s.dist) +
           " last=" + std::to_string(s.last) + " tokB=" + token(s.token_b) +
           " tokW=" + token(s.token_w) + " clock=" + std::to_string(s.clock) +
           " hits=" + std::to_string(s.hits) +
           " signalR=" + std::to_string(s.signal_r) +
           " bullet=" + std::to_string(s.bullet) +
           " shield=" + std::to_string(s.shield) +
           " signalB=" + std::to_string(s.signal_b) + "}";
  }
};

/// P_PL with a shared EventCounters sink, usable directly in core::Runner.
/// (The sink pointer lives in the params so the protocol stays stateless.)
struct InstrumentedPlProtocol {
  using State = PlState;
  struct Params {
    int n = 0;
    PlParams pl;
    EventCounters* sink = nullptr;

    [[nodiscard]] static Params make(const PlParams& p,
                                     EventCounters* counters) {
      return Params{p.n, p, counters};
    }
  };
  static constexpr bool directed = true;

  static void apply(State& l, State& r, const Params& p) noexcept {
    apply_instrumented(l, r, p.pl, *p.sink);
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.leader == 1;
  }
};

}  // namespace ppsim::pl
