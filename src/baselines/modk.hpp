// Baseline [5]: Angluin, Aspnes, Fischer, Jiang (2008) — SS-LE with O(1)
// states on rings whose size n is *not* a multiple of a given k.
//
// Reconstruction (README.md, Fidelity note 5; the original pseudocode is not
// in this paper). It keeps [5]'s impossibility-breaking invariant: every
// agent carries a label lab in Z_k with the intended relation
//     lab(u_{i+1}) = lab(u_i) + 1 (mod k),   lab(leader) = 0.
// A leaderless ring cannot satisfy this everywhere (the labels would have to
// gain n ≢ 0 (mod k) around the ring), so *some* violating pair always
// exists, and a violating responder promotes itself — that is the
// absence-detection. Elimination is the bullets-and-shields war of
// Algorithm 5, with one addition: a killed leader inherits the label
// (lab(left)+1) mod k, which is left-consistent; if that label is nonzero the
// right neighbor becomes a violating responder and leadership relocates one
// step clockwise — repeated relocation eventually aligns a gap ≡ 0 (mod k)
// where a kill is clean. A lone leader is never relocated/killed because a
// leader is shielded whenever one of its own live bullets is in flight.
//
// Self-stabilization of this reconstruction is machine-verified by the
// exhaustive model checker at small n (see tests/baselines/modk_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/elimination.hpp"
#include "core/rng.hpp"

namespace ppsim::baselines {

struct ModkState {
  std::uint8_t leader = 0;
  std::uint8_t lab = 0;     ///< label in Z_k
  std::uint8_t bullet = 0;  ///< 0 none / 1 dummy / 2 live
  std::uint8_t shield = 0;
  std::uint8_t signal_b = 0;

  friend constexpr bool operator==(const ModkState&,
                                   const ModkState&) = default;
};

struct ModkParams {
  int n = 0;
  int k = 2;

  [[nodiscard]] static ModkParams make(int n, int k = 2) {
    if (n < 2) throw std::invalid_argument("ModkParams: n must be >= 2");
    if (k < 2) throw std::invalid_argument("ModkParams: k must be >= 2");
    if (n % k == 0)
      throw std::invalid_argument(
          "ModkParams: requires n not a multiple of k");
    return ModkParams{n, k};
  }
};

struct Modk {
  using State = ModkState;
  using Params = ModkParams;
  static constexpr bool directed = true;

  static void apply(State& l, State& r, const Params& p) noexcept {
    const auto k = static_cast<std::uint8_t>(p.k);
    // Bullets-and-shields with the same firing discipline as Algorithm 5,
    // except the kill also rewrites the victim's label left-consistently.
    if (l.leader == 1 && l.signal_b == 1) {
      l.bullet = common::kLiveBullet;
      l.shield = 1;
      l.signal_b = 0;
    }
    if (r.leader == 1 && r.signal_b == 1) {
      r.bullet = common::kDummyBullet;
      r.shield = 0;
      r.signal_b = 0;
    }
    if (l.bullet > 0 && r.leader == 1) {
      if (l.bullet == common::kLiveBullet && r.shield == 0) {
        r.leader = 0;
        r.lab = static_cast<std::uint8_t>((l.lab + 1) % k);
      }
      l.bullet = common::kNoBullet;
    } else if (l.bullet > 0) {
      if (r.bullet == common::kNoBullet) r.bullet = l.bullet;
      l.bullet = common::kNoBullet;
      r.signal_b = 0;
    }
    l.signal_b = std::max({static_cast<int>(l.signal_b),
                           static_cast<int>(r.signal_b),
                           static_cast<int>(r.leader)});
    // Label maintenance / absence detection.
    if (r.leader == 1) {
      r.lab = 0;  // leader labels are pinned at 0
    } else if (r.lab != (l.lab + 1) % k) {
      // Violating responder: no leader can explain this labeling locally —
      // promote (shielded, firing a live bullet), as in lines 6/18.
      r.leader = 1;
      r.lab = 0;
      r.bullet = common::kLiveBullet;
      r.shield = 1;
      r.signal_b = 0;
    }
  }

  [[nodiscard]] static bool is_leader(const State& s,
                                      const Params&) noexcept {
    return s.leader == 1;
  }

  /// Canonical enumeration of the O(1) per-agent state domain (24k states:
  /// 2 leader x k lab x 3 bullet x 2 shield x 2 signal_b, 48 for the
  /// checked k = 2). Shared by the model checker's adapter below and by
  /// core::EnsembleRunner's packed-state mode, which precomputes the whole
  /// pair-transition table from it — one definition, so the checker's and
  /// the ensemble's view of the domain cannot drift.
  static std::size_t num_states(const Params& p) {
    return 2ULL * static_cast<std::size_t>(p.k) * 3 * 2 * 2;
  }
  static std::size_t pack_state(const State& s, const Params& p) {
    std::size_t v = s.leader;
    v = v * static_cast<std::size_t>(p.k) + s.lab;
    v = v * 3 + s.bullet;
    v = v * 2 + s.shield;
    v = v * 2 + s.signal_b;
    return v;
  }
  static State unpack_state(std::size_t v, const Params& p) {
    State s;
    s.signal_b = static_cast<std::uint8_t>(v % 2);
    v /= 2;
    s.shield = static_cast<std::uint8_t>(v % 2);
    v /= 2;
    s.bullet = static_cast<std::uint8_t>(v % 3);
    v /= 3;
    s.lab = static_cast<std::uint8_t>(v % static_cast<std::size_t>(p.k));
    v /= static_cast<std::size_t>(p.k);
    s.leader = static_cast<std::uint8_t>(v);
    return s;
  }

  static std::string describe(const State& s, const Params&) {
    return "{leader=" + std::to_string(s.leader) +
           " lab=" + std::to_string(s.lab) +
           " bullet=" + std::to_string(s.bullet) +
           " shield=" + std::to_string(s.shield) +
           " signalB=" + std::to_string(s.signal_b) + "}";
  }
};

/// Model-checker adapter (pack/unpack the 48-state-per-agent space for k=2);
/// delegates to the protocol's canonical enumeration.
struct ModkModel {
  using State = ModkState;
  using Params = ModkParams;
  static constexpr bool directed = true;

  static std::size_t num_states(const Params& p) {
    return Modk::num_states(p);
  }
  static std::size_t pack(const State& s, const Params& p, int /*agent*/) {
    return Modk::pack_state(s, p);
  }
  static State unpack(std::size_t v, const Params& p, int /*agent*/) {
    return Modk::unpack_state(v, p);
  }
  static void apply(State& l, State& r, const Params& p) noexcept {
    Modk::apply(l, r, p);
  }
  /// Human-readable state rendering for decoded counterexamples
  /// (core::ModelChecker::describe_counterexample).
  static std::string describe(const State& s, const Params& p) {
    return Modk::describe(s, p);
  }
};

/// Safe predicate: unique leader, consistent labels, every live bullet
/// peaceful (so the leader can never be killed or relocated again).
[[nodiscard]] bool modk_is_safe(std::span<const ModkState> c,
                                const ModkParams& p);

/// One uniformly random agent state over the declared O(1) domain.
[[nodiscard]] ModkState modk_random_state(const ModkParams& p,
                                          core::Xoshiro256pp& rng);

[[nodiscard]] std::vector<ModkState> modk_random_config(
    const ModkParams& p, core::Xoshiro256pp& rng);

/// Converged reference configuration: the unique, shielded leader at
/// `leader_pos` with the consistent label ramp lab = dist mod k around it.
/// Satisfies modk_is_safe.
[[nodiscard]] std::vector<ModkState> modk_safe_config(const ModkParams& p,
                                                      int leader_pos = 0);

}  // namespace ppsim::baselines
