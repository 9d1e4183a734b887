// Zero-cost event instrumentation for P_PL.
//
// The transition functions in protocol.hpp are templated on an event sink;
// the default NullSink compiles to nothing, while EventCounters records the
// protocol's internal life: token trajectories (Def. 3.4), resetting-signal
// births/absorptions/expiries (Lemma 3.11), clock advancement, bullet wars
// and both leader-creation sites. tests/pl/events_test.cpp checks the
// paper's per-mechanism accounting against these counts.
#pragma once

#include <cstdint>

namespace ppsim::pl {

enum class TokenDeath {
  kCollision,    ///< left token met a right token (lines 14-15)
  kLastSegment,  ///< host or responder in the last segment (lines 14, 32-33)
  kInvalid,      ///< out of trajectory (lines 32-33)
  kCompleted,    ///< reached the final destination u_{2psi-1} (Def. 3.4)
};

/// No-op sink: the default. All hooks are static constexpr no-ops so the
/// instrumented code paths inline away entirely.
struct NullSink {
  static constexpr void token_created(bool /*black*/) {}
  static constexpr void token_moved(bool /*black*/) {}
  static constexpr void token_died(bool /*black*/, TokenDeath) {}
  static constexpr void token_delivered(bool /*black*/, bool /*wrote*/) {}
  static constexpr void leader_created(bool /*via_token*/) {}
  static constexpr void signal_generated() {}
  static constexpr void signal_moved() {}
  static constexpr void signal_absorbed() {}
  static constexpr void signal_expired() {}
  static constexpr void clock_advanced() {}
  static constexpr void entered_detect() {}
  static constexpr void fired_live() {}
  static constexpr void fired_dummy() {}
  static constexpr void bullet_moved() {}
  static constexpr void bullet_blocked() {}
  static constexpr void bullet_absorbed(bool /*killed*/) {}
};

/// Counting sink.
struct EventCounters {
  // Tokens, indexed [0] = white, [1] = black.
  std::uint64_t tokens_created[2] = {0, 0};
  std::uint64_t token_moves[2] = {0, 0};
  std::uint64_t deaths_collision[2] = {0, 0};
  std::uint64_t deaths_last_segment[2] = {0, 0};
  std::uint64_t deaths_invalid[2] = {0, 0};
  std::uint64_t completions[2] = {0, 0};
  std::uint64_t deliveries_written[2] = {0, 0};
  std::uint64_t deliveries_checked[2] = {0, 0};
  // Leader creation sites.
  std::uint64_t created_via_dist = 0;
  std::uint64_t created_via_token = 0;
  // Resetting signals.
  std::uint64_t signals_generated = 0;
  std::uint64_t signal_moves = 0;
  std::uint64_t signals_absorbed = 0;
  std::uint64_t signals_expired = 0;
  // Clocks.
  std::uint64_t clock_advances = 0;
  std::uint64_t detect_entries = 0;
  // Bullets.
  std::uint64_t live_fired = 0;
  std::uint64_t dummy_fired = 0;
  std::uint64_t bullet_moves = 0;
  std::uint64_t bullets_blocked = 0;
  std::uint64_t bullets_absorbed = 0;
  std::uint64_t leaders_killed = 0;

  void token_created(bool black) { ++tokens_created[black ? 1 : 0]; }
  void token_moved(bool black) { ++token_moves[black ? 1 : 0]; }
  void token_died(bool black, TokenDeath reason) {
    const int i = black ? 1 : 0;
    switch (reason) {
      case TokenDeath::kCollision: ++deaths_collision[i]; break;
      case TokenDeath::kLastSegment: ++deaths_last_segment[i]; break;
      case TokenDeath::kInvalid: ++deaths_invalid[i]; break;
      case TokenDeath::kCompleted: ++completions[i]; break;
    }
  }
  void token_delivered(bool black, bool wrote) {
    ++(wrote ? deliveries_written : deliveries_checked)[black ? 1 : 0];
  }
  void leader_created(bool via_token) {
    ++(via_token ? created_via_token : created_via_dist);
  }
  void signal_generated() { ++signals_generated; }
  void signal_moved() { ++signal_moves; }
  void signal_absorbed() { ++signals_absorbed; }
  void signal_expired() { ++signals_expired; }
  void clock_advanced() { ++clock_advances; }
  void entered_detect() { ++detect_entries; }
  void fired_live() { ++live_fired; }
  void fired_dummy() { ++dummy_fired; }
  void bullet_moved() { ++bullet_moves; }
  void bullet_blocked() { ++bullets_blocked; }
  void bullet_absorbed(bool killed) {
    ++bullets_absorbed;
    if (killed) ++leaders_killed;
  }

  [[nodiscard]] std::uint64_t token_deaths(bool black) const {
    const int i = black ? 1 : 0;
    return deaths_collision[i] + deaths_last_segment[i] + deaths_invalid[i] +
           completions[i];
  }
};

}  // namespace ppsim::pl
