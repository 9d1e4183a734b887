// P_OR — Algorithm 6: self-stabilizing ring orientation on an undirected
// ring, given a proper two-hop coloring as input. O(1) states, O(n^2 log n)
// steps w.h.p. (Theorem 5.2).
//
// Segment heads extend their segments when they meet; strong heads beat weak
// heads, ties go to the initiator, and the winner's strength moves to the
// fresh head (the flipped loser). Non-head strong agents turn weak.
//
// One fidelity note (README.md, Fidelity note 7): Definition 5.1 quantifies
// over all configurations, but the printed guards only fire when dir points
// at one of the agent's neighbors; a garbage dir (not a neighbor color)
// would be frozen forever. We add the minimal sanitization — dir values
// outside {c1, c2} are reset to the partner's color on interaction.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace ppsim::orient {

struct OrState {
  // Input variables (never written by the transition):
  std::uint8_t color = 0;
  std::uint8_t c1 = 0;  ///< one neighbor's color
  std::uint8_t c2 = 0;  ///< the other neighbor's color (c1 != c2 on rings)
  // Output/working variables:
  std::uint8_t dir = 0;     ///< color of the neighbor this agent points at
  std::uint8_t strong = 0;  ///< head strength bit

  friend constexpr bool operator==(const OrState&, const OrState&) = default;
};

struct OrParams {
  int n = 0;
  int xi = 3;  ///< palette size

  [[nodiscard]] static OrParams make(int n, int xi = 3) {
    if (n < 3)
      throw std::invalid_argument("OrParams: orientation requires n >= 3");
    if (xi < 3) throw std::invalid_argument("OrParams: xi must be >= 3");
    return OrParams{n, xi};
  }
};

struct Por {
  using State = OrState;
  using Params = OrParams;
  static constexpr bool directed = false;  // undirected ring: 2n arcs

  /// u is the initiator, v the responder (either side may be initiator on an
  /// undirected ring).
  static void apply(State& u, State& v, const Params&) noexcept {
    // Sanitization: a dir that points at neither neighbor can never trigger
    // the guards below; reset it to the partner's color.
    if (u.dir != u.c1 && u.dir != u.c2) u.dir = v.color;
    if (v.dir != v.c1 && v.dir != v.c2) v.dir = u.color;

    const bool u_points_v = u.dir == v.color;
    const bool v_points_u = v.dir == u.color;
    if (u_points_v && v_points_u) {
      // Lines 63-69: two heads meet.
      if (u.strong == 0 && v.strong == 1) {
        // v (strong) wins: u flips away from v and becomes the new head.
        u.dir = other_neighbor_color(u, v.color);
        u.strong = 1;
        v.strong = 0;
      } else {
        // Initiator wins (strong-vs-weak with u strong, both strong, or both
        // weak): v flips away from u and carries the strength.
        v.dir = other_neighbor_color(v, u.color);
        u.strong = 0;
        v.strong = 1;
      }
    } else if (u_points_v) {
      u.strong = 0;  // lines 70-71: non-head strong agents turn weak
    } else if (v_points_u) {
      v.strong = 0;  // lines 72-73
    }
  }

  [[nodiscard]] static std::uint8_t other_neighbor_color(
      const State& s, std::uint8_t excluded) noexcept {
    return s.c1 == excluded ? s.c2 : s.c1;
  }

  /// Canonical enumeration of the *full* per-agent state (colors included)
  /// over the xi-color palette: 2 strong x xi^4 (color, c1, c2, dir) = 162
  /// states for xi = 3. This is the position-free enumeration
  /// core::EnsembleRunner's packed-state mode and the differential fuzzer
  /// consume; the exhaustive checker keeps the separate PorModel below,
  /// which pins the colors to the ring position and enumerates only the
  /// writable dir/strong pair. The domain is closed under apply: the
  /// transition never writes the color inputs, and every dir it writes is a
  /// palette color.
  static std::size_t num_states(const Params& p) {
    const auto xi = static_cast<std::size_t>(p.xi);
    return xi * xi * xi * xi * 2;
  }
  static std::size_t pack_state(const State& s, const Params& p) {
    const auto xi = static_cast<std::size_t>(p.xi);
    std::size_t v = s.color;
    v = v * xi + s.c1;
    v = v * xi + s.c2;
    v = v * xi + s.dir;
    v = v * 2 + s.strong;
    return v;
  }
  static State unpack_state(std::size_t v, const Params& p) {
    const auto xi = static_cast<std::size_t>(p.xi);
    State s;
    s.strong = static_cast<std::uint8_t>(v % 2);
    v /= 2;
    s.dir = static_cast<std::uint8_t>(v % xi);
    v /= xi;
    s.c2 = static_cast<std::uint8_t>(v % xi);
    v /= xi;
    s.c1 = static_cast<std::uint8_t>(v % xi);
    v /= xi;
    s.color = static_cast<std::uint8_t>(v);
    return s;
  }

  static std::string describe(const State& s, const Params&) {
    return "{color=" + std::to_string(s.color) +
           " c1=" + std::to_string(s.c1) + " c2=" + std::to_string(s.c2) +
           " dir=" + std::to_string(s.dir) +
           " strong=" + std::to_string(s.strong) + "}";
  }
};

/// Definition 5.1 (i)+(ii): proper two-hop coloring (guaranteed by the
/// inputs) and a globally consistent direction — every agent points at its
/// clockwise neighbor, or every agent points at its counter-clockwise
/// neighbor. (Colors may repeat on *adjacent* agents; dir is interpreted
/// through the two-hop-distinct c1/c2.)
[[nodiscard]] bool is_oriented(std::span<const OrState> c, const OrParams& p);

/// Builds the initial configuration: colors from two_hop_coloring(), correct
/// c1/c2, dir/strong from the given generators.
[[nodiscard]] std::vector<OrState> or_config(
    const OrParams& p, core::Xoshiro256pp& rng, bool random_dir = true);

/// Model-checker adapter: colors fixed by position (two_hop_coloring), only
/// dir and strong enumerated — dir over the full palette so garbage dirs are
/// covered.
struct PorModel {
  using State = OrState;
  using Params = OrParams;
  static constexpr bool directed = false;

  static std::size_t num_states(const Params& p) {
    return static_cast<std::size_t>(p.xi) * 2;
  }
  static std::size_t pack(const State& s, const Params&, int /*agent*/) {
    return static_cast<std::size_t>(s.dir) * 2 + s.strong;
  }
  static State unpack(std::size_t v, const Params& p, int agent);
  static void apply(State& l, State& r, const Params& p) noexcept {
    Por::apply(l, r, p);
  }
  static std::string describe(const State& s, const Params& p) {
    return Por::describe(s, p);
  }
};

}  // namespace ppsim::orient
