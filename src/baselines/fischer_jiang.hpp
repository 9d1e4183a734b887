// Baseline [15]: Fischer & Jiang (2006) — SS-LE on rings with the eventual
// leader detector Omega?, O(1) states, Theta(n^3) expected steps (Table 1;
// bound stated for an immediately-reporting oracle).
//
// Reconstruction note (README.md, Fidelity note 5): the original pseudocode
// is not in this paper. We implement the structure the paper describes:
// bullets and shields (first introduced by [15]) with *fire-on-absorb*
// discipline — a leader re-arms when the previous bullet is absorbed, with
// the live/dummy + shield coin extracted from the scheduler — plus the
// oracle:
//   * Omega?[leader]: while the population is leaderless, interacting
//     responders promote themselves;
//   * Omega?[bullet]: while no bullet exists, leaders re-arm (this breaks the
//     stale multi-leader / zero-bullet deadlock; Beauquier et al. [7]
//     likewise use two Omega? instances).
// The oracle is provided by the harness (core::InteractionContext), with a
// configurable reporting delay (0 = the regime of the Theta(n^3) analysis).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/runner.hpp"

namespace ppsim::baselines {

struct FjState {
  std::uint8_t leader = 0;
  std::uint8_t bullet = 0;  ///< 0 none / 1 dummy / 2 live
  std::uint8_t shield = 0;
  std::uint8_t armed = 0;   ///< 1 = fires at its next interaction

  friend constexpr bool operator==(const FjState&, const FjState&) = default;
};

struct FjParams {
  int n = 0;

  [[nodiscard]] static FjParams make(int n) {
    if (n < 2) throw std::invalid_argument("FjParams: n must be >= 2");
    return FjParams{n};
  }
};

struct FischerJiang {
  using State = FjState;
  using Params = FjParams;
  static constexpr bool directed = true;

  static void apply(State& l, State& r, const Params&,
                    const core::InteractionContext& ctx) noexcept {
    // Armed leaders fire using the scheduler coin: as initiator -> live
    // bullet + shield up; as responder -> dummy bullet + shield down.
    if (l.leader == 1 && l.armed == 1) {
      l.bullet = 2;
      l.shield = 1;
      l.armed = 0;
    }
    if (r.leader == 1 && r.armed == 1) {
      r.bullet = 1;
      r.shield = 0;
      r.armed = 0;
    }
    // Omega?[bullet]: no bullet anywhere -> leaders re-arm. The census is
    // taken at interaction start, so a leader that just fired above still
    // holds its bullet — the bullet guard keeps it from double-arming (a
    // double fire could unshield it under its own live bullet).
    if (ctx.no_token) {
      if (l.leader == 1 && l.bullet == 0) l.armed = 1;
      if (r.leader == 1 && r.bullet == 0) r.armed = 1;
    }
    // Bullet reaches a leader: kill iff live & unshielded; absorb & re-arm.
    if (l.bullet > 0 && r.leader == 1) {
      if (l.bullet == 2 && r.shield == 0) {
        r.leader = 0;
        r.armed = 0;
      } else {
        r.armed = 1;
      }
      l.bullet = 0;
    } else if (l.bullet > 0) {
      if (r.bullet == 0) r.bullet = l.bullet;
      l.bullet = 0;
    }
    // Omega?[leader]: leaderless population -> the responder promotes itself
    // (shielded, firing immediately).
    if (ctx.no_leader && l.leader == 0 && r.leader == 0) {
      r.leader = 1;
      r.shield = 1;
      r.armed = 1;
    }
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.leader == 1;
  }

  /// Enables the runner's Omega?[bullet] census (ctx.no_token).
  [[nodiscard]] static bool has_token(const State& s,
                                      const Params&) noexcept {
    return s.bullet != 0;
  }

  static std::string describe(const State& s, const Params&) {
    return "{leader=" + std::to_string(s.leader) +
           " bullet=" + std::to_string(s.bullet) +
           " shield=" + std::to_string(s.shield) +
           " armed=" + std::to_string(s.armed) + "}";
  }
};

/// Practical safe predicate for the baseline: a unique leader and no live
/// bullet that could still kill it (every live bullet's nearest left leader
/// is shielded).
[[nodiscard]] bool fj_is_safe(std::span<const FjState> c, const FjParams& p);

/// One uniformly random agent state over the declared O(1) domain (armed
/// only ever set on leaders, as the protocol maintains).
[[nodiscard]] FjState fj_random_state(const FjParams& p,
                                      core::Xoshiro256pp& rng);

[[nodiscard]] std::vector<FjState> fj_random_config(const FjParams& p,
                                                    core::Xoshiro256pp& rng);

/// Converged reference configuration: the unique, shielded leader at
/// `leader_pos`, everything else zero. Satisfies fj_is_safe.
[[nodiscard]] std::vector<FjState> fj_safe_config(const FjParams& p,
                                                  int leader_pos = 0);

}  // namespace ppsim::baselines
