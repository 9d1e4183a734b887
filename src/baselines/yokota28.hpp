// Baseline [28]: Yokota, Sudo, Masuzawa (2021) — time-optimal SS-LE on rings
// with Theta(n^2) expected convergence and O(n) states, given knowledge
// N = n + O(n).
//
// Reconstruction note (README.md, Fidelity note 5): the elimination half is
// Algorithm 5 of this paper verbatim (the paper imports it from [28]
// unchanged); the creation half is the mechanism §3.1 attributes to [28]:
// every agent computes the exact distance from its nearest left leader and a
// responder that would reach distance N concludes no leader exists within
// the horizon and promotes itself. N = 2^psi in [n, 2n), i.e. the same
// knowledge psi = ceil(log2 n) + O(1) this paper assumes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/elimination.hpp"
#include "core/ring.hpp"
#include "core/rng.hpp"

namespace ppsim::baselines {

struct Y28State {
  std::uint8_t leader = 0;
  std::uint16_t dist = 0;  ///< exact distance from nearest left leader, [0, N-1]
  std::uint8_t bullet = 0;
  std::uint8_t shield = 0;
  std::uint8_t signal_b = 0;

  friend constexpr bool operator==(const Y28State&, const Y28State&) = default;
};

struct Y28Params {
  int n = 0;
  int cap = 0;  ///< N = 2^psi

  /// Throws when n < 2, psi_slack < 0 or cap > 2^16: Y28State::dist is 16
  /// bits wide, and dist + 1 must be able to reach cap.
  [[nodiscard]] static Y28Params make(int n, int psi_slack = 0) {
    if (n < 2) throw std::invalid_argument("Y28Params: n must be >= 2");
    if (psi_slack < 0)
      throw std::invalid_argument("Y28Params: psi_slack must be >= 0");
    const int psi =
        std::max(2, core::ceil_log2(static_cast<std::uint64_t>(n)));
    if (psi_slack > 16 - psi)
      throw std::invalid_argument("Y28Params: cap must be <= 65536");
    Y28Params p;
    p.n = n;
    p.cap = 1 << (psi + psi_slack);
    return p;
  }
};

struct Yokota28 {
  using State = Y28State;
  using Params = Y28Params;
  static constexpr bool directed = true;

  static void apply(State& l, State& r, const Params& p) noexcept {
    // CreateLeader of [28]: exact-distance propagation with threshold N.
    const int tmp = r.leader == 1 ? 0 : static_cast<int>(l.dist) + 1;
    if (tmp >= p.cap && r.leader == 0) {
      r.leader = 1;
      r.bullet = common::kLiveBullet;
      r.shield = 1;
      r.signal_b = 0;
      r.dist = 0;
    } else {
      r.dist = static_cast<std::uint16_t>(tmp);
    }
    common::eliminate_leaders_step(l, r);
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.leader == 1;
  }

  static std::string describe(const State& s, const Params&) {
    return "{leader=" + std::to_string(s.leader) +
           " dist=" + std::to_string(s.dist) +
           " bullet=" + std::to_string(s.bullet) +
           " shield=" + std::to_string(s.shield) +
           " signalB=" + std::to_string(s.signal_b) + "}";
  }
};

/// Safe-configuration certificate for yokota28 (the analog of S_PL): a unique
/// leader, exact distances relative to it, and every live bullet peaceful.
[[nodiscard]] bool y28_is_safe(std::span<const Y28State> c,
                               const Y28Params& p);

/// One uniformly random agent state over the declared state space.
[[nodiscard]] Y28State y28_random_state(const Y28Params& p,
                                        core::Xoshiro256pp& rng);

/// Uniformly random configuration over the declared state space.
[[nodiscard]] std::vector<Y28State> y28_random_config(const Y28Params& p,
                                                      core::Xoshiro256pp& rng);

/// Converged reference configuration: the unique, shielded leader at
/// `leader_pos` with exact distances relative to it. Satisfies y28_is_safe.
[[nodiscard]] std::vector<Y28State> y28_safe_config(const Y28Params& p,
                                                    int leader_pos = 0);

/// Leaderless configuration with a consistent distance ramp (the slowest
/// detection instance: the ramp must grow to N before anyone promotes).
[[nodiscard]] std::vector<Y28State> y28_leaderless(const Y28Params& p);

}  // namespace ppsim::baselines
