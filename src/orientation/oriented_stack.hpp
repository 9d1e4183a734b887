// The full Section-5 stack: self-stabilizing leader election on an
// *undirected* ring.
//
// Composition (product protocol, one interaction drives all layers):
//   1. neighbor-color learning — the paper's "memorize the two different
//      colors observed most recently" warm-up supplies c1/c2;
//   2. P_OR (Algorithm 6) on the learned neighbor colors — orients the ring;
//   3. P_PL — run on the pair ordered by the current orientation: whichever
//      agent points at the other (and is not pointed back at) acts as the
//      left neighbor / initiator of Algorithm 1.
//
// Once orientation stabilizes (all agents pointing clockwise, or all
// counter-clockwise), every physical interaction maps to exactly one directed
// P_PL interaction, so P_PL experiences its uniformly random directed
// scheduler and self-stabilizes from whatever garbage the unoriented phase
// left behind.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "orientation/por.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace ppsim::orient {

struct StackState {
  // Orientation layer. color is the fixed input; c1/c2 are *learned* here
  // (lc1 = most recently observed partner color, lc2 = most recent color
  // different from lc1).
  std::uint8_t color = 0;
  std::uint8_t lc1 = 0;
  std::uint8_t lc2 = 0;
  std::uint8_t dir = 0;
  std::uint8_t strong = 0;
  // Election layer.
  pl::PlState pl;

  friend constexpr bool operator==(const StackState&,
                                   const StackState&) = default;
};

struct StackParams {
  int n = 0;
  int xi = 3;
  pl::PlParams pl;

  /// Throws std::invalid_argument below n = 3, where no proper two-hop
  /// coloring (and so no orientation) exists, as OrParams does.
  [[nodiscard]] static StackParams make(int n, int c1 = 32,
                                        int psi_slack = 0) {
    if (n < 3)
      throw std::invalid_argument(
          "StackParams: orientation requires n >= 3");
    StackParams p;
    p.n = n;
    p.xi = 3;
    p.pl = pl::PlParams::make(n, c1, psi_slack);
    return p;
  }
};

struct OrientedStack {
  using State = StackState;
  using Params = StackParams;
  static constexpr bool directed = false;

  static void apply(State& u, State& v, const Params& p) noexcept {
    // 1. Learn neighbor colors (two most recent distinct observations).
    observe(u, v.color);
    observe(v, u.color);

    // 2. P_OR on the learned colors.
    if (u.dir != u.lc1 && u.dir != u.lc2) u.dir = v.color;
    if (v.dir != v.lc1 && v.dir != v.lc2) v.dir = u.color;
    const bool u_points_v = u.dir == v.color;
    const bool v_points_u = v.dir == u.color;
    if (u_points_v && v_points_u) {
      if (u.strong == 0 && v.strong == 1) {
        u.dir = u.lc1 == v.color ? u.lc2 : u.lc1;
        u.strong = 1;
        v.strong = 0;
      } else {
        v.dir = v.lc1 == u.color ? v.lc2 : v.lc1;
        u.strong = 0;
        v.strong = 1;
      }
    } else if (u_points_v) {
      u.strong = 0;
    } else if (v_points_u) {
      v.strong = 0;
    }

    // 3. P_PL on the oriented pair: the agent pointing at the other (without
    // being pointed back at) acts as the left neighbor.
    const bool upv = u.dir == v.color;
    const bool vpu = v.dir == u.color;
    if (upv && !vpu) {
      pl::PlProtocol::apply(u.pl, v.pl, p.pl);
    } else if (vpu && !upv) {
      pl::PlProtocol::apply(v.pl, u.pl, p.pl);
    }
    // Heads still facing each other: the ring is locally unoriented here;
    // the election layer waits.
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.pl.leader == 1;
  }

 private:
  static void observe(State& s, std::uint8_t seen) noexcept {
    if (seen != s.lc1) {
      s.lc2 = s.lc1;
      s.lc1 = seen;
    }
  }
};

/// Is the orientation layer settled (Def. 5.1(ii) on the learned state)?
/// Returns +1 (all clockwise), -1 (all counter-clockwise), 0 (not oriented).
[[nodiscard]] int stack_orientation(std::span<const StackState> c);

/// Full-stack safety: orientation settled and the extracted P_PL
/// configuration (read along the settled direction) is in S_PL.
[[nodiscard]] bool stack_is_safe(std::span<const StackState> c,
                                 const StackParams& p);

/// Initial configuration: proper input coloring, everything else random.
[[nodiscard]] std::vector<StackState> stack_random_config(
    const StackParams& p, core::Xoshiro256pp& rng);

}  // namespace ppsim::orient
