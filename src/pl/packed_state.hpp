// Word-packed representation of PlState: the whole Algorithm-1 variable
// block of one agent bit-sliced into a single uint64_t.
//
// The poly-logarithmic state bound that is the paper's headline result is
// exactly what makes this possible: every field domain is O(psi) or
// O(kappa_max) = O(c1 * psi), so with psi = ceil(log2 n) + O(1) the packed
// width is ~11 + 3*ceil(log2 2psi) + ceil(log2(psi+1)) +
// 2*ceil(log2(kappa_max+1)) bits — 51 bits at n = 2^16 with the paper's
// c1 = 32, comfortably inside one machine word.
//
// Layout (LSB first; widths derived from the parameters at runtime):
//
//   bit 0        leader
//   bit 1        b
//   bit 2        last
//   bit 3        shield
//   bit 4        signal_b
//   bits 5-6     bullet               (2 bits, domain {0,1,2})
//   D bits       dist                 D = ceil(log2 2psi),   domain [0, 2psi)
//   H bits       hits                 H = ceil(log2(psi+1)), domain [0, psi]
//   K bits       clock                K = ceil(log2(kappa_max+1))
//   K bits       signal_r
//   D+2 bits     token_b              biased pos (D bits) | value | carry
//   D+2 bits     token_w              same sub-layout
//
// Token positions are sign-biased: stored = pos + (psi - 1), mapping the
// domain pos in [1-psi, psi] (0 = bot) onto [0, 2psi-1]. value and carry are
// stored verbatim even for bot tokens, so pack/unpack is a bijection on the
// full per-field domain and a bot token's payload bits survive a round trip
// exactly as they do in the 22-byte scalar struct.
//
// pack_word clamps every field into its domain, which makes the generic
// engine-side acceptance test ("does unpack_word(pack_word(s)) == s?")
// double as a *domain* check: any out-of-domain field (an injected fault
// with dist >= 2psi, a token value > 1, ...) clamps to a different value,
// the round trip fails, and the engine falls back to the scalar path — the
// packed representation never silently truncates a state it cannot hold.
//
// The capacity probe is constexpr: parameter regimes whose layout exceeds
// 64 bits (huge psi_slack or c1) report !fits() and every engine keeps the
// scalar path (tests/pl/packed_state_test.cpp pins both directions).
#pragma once

#include <algorithm>
#include <cstdint>

#include "pl/params.hpp"
#include "pl/state.hpp"

namespace ppsim::pl {

struct PackedLayout {
  // Protocol parameters the kernel needs (copied out of PlParams so the hot
  // loop touches one small, loop-invariant struct).
  int psi = 0;
  int two_psi = 0;
  int kappa_max = 0;

  // Field widths (bits) and shifts. The five 1-bit flags and the 2-bit
  // bullet occupy the fixed low 7 bits; everything above is derived.
  unsigned dist_bits = 0;
  unsigned hits_bits = 0;
  unsigned clock_bits = 0;
  unsigned token_bits = 0;  ///< dist_bits + 2 (biased pos | value | carry)

  unsigned dist_shift = 0;
  unsigned hits_shift = 0;
  unsigned clock_shift = 0;
  unsigned sigr_shift = 0;
  unsigned tokb_shift = 0;
  unsigned tokw_shift = 0;
  unsigned total_bits = 0;

  std::uint64_t dist_mask = 0;   ///< unshifted, (1 << dist_bits) - 1
  std::uint64_t hits_mask = 0;
  std::uint64_t clock_mask = 0;

  /// True iff the whole variable block fits one 64-bit word. When false the
  /// layout must not be used; every engine stays on the scalar path.
  [[nodiscard]] constexpr bool fits() const noexcept {
    return total_bits > 0 && total_bits <= 64;
  }

  /// Bit width of the packed layout for the given parameters (the constexpr
  /// capacity probe; usable in static_asserts and tests without building a
  /// layout).
  [[nodiscard]] static constexpr unsigned width(int psi,
                                                int kappa_max) noexcept {
    const unsigned d = bits_for(2 * psi);
    return 7 + 3 * d + 4 + bits_for(psi + 1) + 2 * bits_for(kappa_max + 1);
  }

  [[nodiscard]] static constexpr PackedLayout make(
      const PlParams& p) noexcept {
    PackedLayout l;
    l.psi = p.psi;
    l.two_psi = p.two_psi();
    l.kappa_max = p.kappa_max;
    l.dist_bits = bits_for(l.two_psi);
    l.hits_bits = bits_for(p.psi + 1);
    l.clock_bits = bits_for(p.kappa_max + 1);
    l.token_bits = l.dist_bits + 2;
    l.dist_shift = 7;
    l.hits_shift = l.dist_shift + l.dist_bits;
    l.clock_shift = l.hits_shift + l.hits_bits;
    l.sigr_shift = l.clock_shift + l.clock_bits;
    l.tokb_shift = l.sigr_shift + l.clock_bits;
    l.tokw_shift = l.tokb_shift + l.token_bits;
    l.total_bits = l.tokw_shift + l.token_bits;
    l.dist_mask = (std::uint64_t{1} << l.dist_bits) - 1;
    l.hits_mask = (std::uint64_t{1} << l.hits_bits) - 1;
    l.clock_mask = (std::uint64_t{1} << l.clock_bits) - 1;
    return l;
  }

  // Single-field reads of a packed word: what unpack_word decodes, one field
  // at a time, for readers that need only a few fields of each agent.
  [[nodiscard]] static constexpr std::uint8_t leader(std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>(w & 1);
  }
  [[nodiscard]] static constexpr std::uint8_t b(std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>((w >> 1) & 1);
  }
  [[nodiscard]] static constexpr std::uint8_t last(std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>((w >> 2) & 1);
  }
  [[nodiscard]] static constexpr std::uint8_t shield(std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>((w >> 3) & 1);
  }
  [[nodiscard]] static constexpr std::uint8_t signal_b(
      std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>((w >> 4) & 1);
  }
  [[nodiscard]] static constexpr std::uint8_t bullet(std::uint64_t w) noexcept {
    return static_cast<std::uint8_t>((w >> 5) & 3);
  }
  [[nodiscard]] constexpr std::uint16_t dist(std::uint64_t w) const noexcept {
    return static_cast<std::uint16_t>((w >> dist_shift) & dist_mask);
  }
  [[nodiscard]] constexpr Token token(std::uint64_t w,
                                      bool black) const noexcept {
    const std::uint64_t f = w >> (black ? tokb_shift : tokw_shift);
    Token t;
    t.pos = static_cast<std::int8_t>(static_cast<int>(f & dist_mask) -
                                     (psi - 1));
    t.value = static_cast<std::uint8_t>((f >> dist_bits) & 1);
    t.carry = static_cast<std::uint8_t>((f >> (dist_bits + 1)) & 1);
    return t;
  }
  /// Whether either token exists: a bot token stores biased pos psi - 1.
  [[nodiscard]] constexpr bool has_token(std::uint64_t w) const noexcept {
    const std::uint64_t pos_mask =
        (dist_mask << tokb_shift) | (dist_mask << tokw_shift);
    const auto bot = static_cast<std::uint64_t>(psi - 1);
    return (w & pos_mask) != ((bot << tokb_shift) | (bot << tokw_shift));
  }

 private:
  /// Bits needed to store values in [0, domain): ceil(log2 domain), min 1.
  [[nodiscard]] static constexpr unsigned bits_for(int domain) noexcept {
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) < static_cast<std::uint64_t>(domain))
      ++bits;
    return bits;
  }
};

/// Is every field of `s` inside the domain the packed layout represents?
/// (The declared variable domains of Algorithm 1; the scalar struct can hold
/// wider values after arbitrary fault injection.)
[[nodiscard]] constexpr bool in_word_domain(const PlState& s,
                                            const PackedLayout& l) noexcept {
  const auto token_ok = [&](const Token& t) {
    return t.pos >= 1 - l.psi && t.pos <= l.psi && t.value <= 1 &&
           t.carry <= 1;
  };
  return s.leader <= 1 && s.b <= 1 && s.last <= 1 && s.shield <= 1 &&
         s.signal_b <= 1 && s.bullet <= 2 &&
         static_cast<int>(s.dist) < l.two_psi &&
         static_cast<int>(s.hits) <= l.psi &&
         static_cast<int>(s.clock) <= l.kappa_max &&
         static_cast<int>(s.signal_r) <= l.kappa_max && token_ok(s.token_b) &&
         token_ok(s.token_w);
}

/// Pack one scalar state into a word, clamping every field into its domain
/// (see the header comment: clamping makes the engines' round-trip check a
/// domain check — an out-of-domain state never round-trips, so it can never
/// enter a packed engine lane).
[[nodiscard]] constexpr std::uint64_t pack_word(
    const PlState& s, const PackedLayout& l) noexcept {
  const auto clamp_int = [](int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  const auto pack_token = [&](const Token& t) -> std::uint64_t {
    const auto biased = static_cast<std::uint64_t>(
        clamp_int(static_cast<int>(t.pos), 1 - l.psi, l.psi) + (l.psi - 1));
    return biased | (static_cast<std::uint64_t>(t.value > 1 ? 1 : t.value)
                     << l.dist_bits) |
           (static_cast<std::uint64_t>(t.carry > 1 ? 1 : t.carry)
            << (l.dist_bits + 1));
  };
  std::uint64_t w = 0;
  w |= static_cast<std::uint64_t>(s.leader > 1 ? 1 : s.leader);
  w |= static_cast<std::uint64_t>(s.b > 1 ? 1 : s.b) << 1;
  w |= static_cast<std::uint64_t>(s.last > 1 ? 1 : s.last) << 2;
  w |= static_cast<std::uint64_t>(s.shield > 1 ? 1 : s.shield) << 3;
  w |= static_cast<std::uint64_t>(s.signal_b > 1 ? 1 : s.signal_b) << 4;
  w |= static_cast<std::uint64_t>(s.bullet > 2 ? 2 : s.bullet) << 5;
  w |= static_cast<std::uint64_t>(
           clamp_int(static_cast<int>(s.dist), 0, l.two_psi - 1))
       << l.dist_shift;
  w |= static_cast<std::uint64_t>(
           clamp_int(static_cast<int>(s.hits), 0, l.psi))
       << l.hits_shift;
  w |= static_cast<std::uint64_t>(
           clamp_int(static_cast<int>(s.clock), 0, l.kappa_max))
       << l.clock_shift;
  w |= static_cast<std::uint64_t>(
           clamp_int(static_cast<int>(s.signal_r), 0, l.kappa_max))
       << l.sigr_shift;
  w |= pack_token(s.token_b) << l.tokb_shift;
  w |= pack_token(s.token_w) << l.tokw_shift;
  return w;
}

/// Inverse of pack_word on in-domain states.
[[nodiscard]] constexpr PlState unpack_word(std::uint64_t w,
                                            const PackedLayout& l) noexcept {
  PlState s;
  s.leader = PackedLayout::leader(w);
  s.b = PackedLayout::b(w);
  s.last = PackedLayout::last(w);
  s.shield = PackedLayout::shield(w);
  s.signal_b = PackedLayout::signal_b(w);
  s.bullet = PackedLayout::bullet(w);
  s.dist = l.dist(w);
  s.hits = static_cast<std::uint8_t>((w >> l.hits_shift) & l.hits_mask);
  s.clock = static_cast<std::uint16_t>((w >> l.clock_shift) & l.clock_mask);
  s.signal_r =
      static_cast<std::uint16_t>((w >> l.sigr_shift) & l.clock_mask);
  s.token_b = l.token(w, true);
  s.token_w = l.token(w, false);
  return s;
}

}  // namespace ppsim::pl
