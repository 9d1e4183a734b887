// Agent state of P_PL (Algorithm 1 variable block).
//
//   leader in {0,1}
//   b in {0,1}, dist in [0, 2psi-1], last in {0,1}
//   tokenB, tokenW in {bot} u (([-psi+1,-1] u [1,psi]) x {0,1} x {0,1})
//   clock in [0, kappa_max], hits in [0, psi], signalR in [0, kappa_max]
//   bullet in {0,1,2}, shield in {0,1}, signalB in {0,1}
//
// `mode` is derived, not stored: DetermineMode() (lines 49-50) recomputes
// mode from clock for both interaction partners before any read of mode in
// Algorithms 2-3, so mode == Detect <=> clock == kappa_max at every read.
// See README.md, Fidelity note 3.
#pragma once

#include <compare>
#include <cstdint>

namespace ppsim::pl {

/// A black or white token. `pos` is token[1], the signed relative position of
/// the target (positive = moving right, negative = moving left); pos == 0
/// encodes "bot" (no token). `value` is token[2] (the bit to write/check at
/// the target), `carry` is token[3] (the ripple-carry flag).
struct Token {
  std::int8_t pos = 0;
  std::uint8_t value = 0;
  std::uint8_t carry = 0;

  [[nodiscard]] constexpr bool exists() const noexcept { return pos != 0; }
  constexpr void clear() noexcept { *this = Token{}; }

  friend constexpr bool operator==(const Token&, const Token&) = default;
};

inline constexpr Token kNoToken{};

struct PlState {
  std::uint8_t leader = 0;    ///< output: 1 = L, 0 = F
  std::uint8_t b = 0;         ///< segment-ID bit
  std::uint16_t dist = 0;     ///< distance to nearest left leader mod 2psi
  std::uint8_t last = 0;      ///< 1 iff the agent believes it is in the last segment
  Token token_b;              ///< black token (d = 0)
  Token token_w;              ///< white token (d = psi)
  std::uint16_t clock = 0;    ///< leader-absence barometer, [0, kappa_max]
  std::uint8_t hits = 0;      ///< lottery-game run length, [0, psi]
  std::uint16_t signal_r = 0; ///< resetting-signal TTL, [0, kappa_max]
  std::uint8_t bullet = 0;    ///< 0 none / 1 dummy / 2 live
  std::uint8_t shield = 0;    ///< 1 = shielded
  std::uint8_t signal_b = 0;  ///< bullet-absence signal

  friend constexpr bool operator==(const PlState&, const PlState&) = default;
};

/// Derived mode (lines 49-50): Detect iff clock == kappa_max.
[[nodiscard]] constexpr bool in_detect_mode(const PlState& s,
                                            int kappa_max) noexcept {
  return s.clock == kappa_max;
}

/// Leader creation (lines 6 and 18): the fresh leader immediately fires a
/// live bullet and shields itself, keeping every live bullet peaceful.
constexpr void become_leader(PlState& s) noexcept {
  s.leader = 1;
  s.bullet = 2;
  s.shield = 1;
  s.signal_b = 0;
}

}  // namespace ppsim::pl
