// Configuration predicates for P_PL, mirroring the paper's Section 3/4
// machinery:
//
//   * perfection — conditions (1) and (2) on dist/segment IDs
//   * token validity (Def. 3.3) and correctness (Def. 4.3)
//   * peaceful live bullets (C_PB)
//   * the C_DL layout and the safe set S_PL (Def. 4.6)
//
// These are measurement/verification tools of the harness, not part of the
// protocol itself: convergence time is *defined* as first entry into S_PL.
//
// Every S_PL clause has one implementation, a template over a field reader
// in invariants.cpp. It is instantiated for spans of PlState and for
// core::WordRingView, the word lane's view of a ring's u64 mirror, which it
// reads field by field (bit extractions, no PlState decode), so convergence
// sweeps on that lane check S_PL without unpacking the ring.
//
// The check runs in cost order, not proof order. It has two modes:
//
//   * membership (is_safe, SafePredicate, membership_exit_clause): the
//     leader count; then the segment IDs, each read at its C_DL offset
//     from the leader, pairs compared from the far end back; then one walk
//     from the leader over the C_DL layout and peaceful bullets (a running
//     absence-signal flag); then the token clause, the most expensive,
//     last. It returns at the first failure it meets. A ring on its way
//     into S_PL almost always fails at its far-end segment pair, after two
//     IDs, and never pays for the walk or its ~n/3 tokens.
//   * exact (first_failing_clause, check_safe): the leader count, the walk,
//     the tokens, then the segment IDs in index order. It names the first
//     clause in proof order (the SafeClause order below) and where it
//     failed, whatever order the passes ran in.
//
// Both answer "is it in S_PL?" identically; they differ only in which
// clause they name when several fail. Every entry point throws
// std::invalid_argument on a configuration whose size is not p.n.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "pl/state.hpp"

namespace ppsim::pl {

using Config = std::span<const PlState>;

[[nodiscard]] std::vector<int> leader_positions(Config c);
[[nodiscard]] int count_leaders(Config c);

/// Condition (1): u_i.dist == 0 if u_i is a leader, else
/// (u_{i-1}.dist + 1) mod 2psi — checked for every agent.
[[nodiscard]] bool satisfies_condition1(Config c, const PlParams& p);

/// A border is an agent with dist in {0, psi}.
[[nodiscard]] bool is_border(const PlState& s, const PlParams& p);

/// Segment decomposition by borders, in ring order starting from the first
/// border at or after index 0. Empty if the configuration has no border.
struct SegmentView {
  int start = 0;             ///< index of the border agent opening the segment
  int length = 0;            ///< number of agents up to (excl.) the next border
  unsigned long long id = 0; ///< iota(S): bits b_{start..start+len-1}, LSB first
};
[[nodiscard]] std::vector<SegmentView> decompose_segments(Config c,
                                                          const PlParams& p);

/// Condition (2): every segment S satisfies
/// iota(S) == (iota(prev(S)) + 1) mod 2^psi, unless S starts with a leader or
/// the border agent following S is a leader.
[[nodiscard]] bool satisfies_condition2(Config c, const PlParams& p);

/// Perfect configuration: no violation of (1) or (2). Lemma 3.2: a
/// configuration without a leader is never perfect.
[[nodiscard]] bool is_perfect(Config c, const PlParams& p);

/// Token validity (Def. 3.3, interval sense per README.md, Fidelity note 1).
[[nodiscard]] bool token_valid(const PlState& host, const Token& t, int d,
                               const PlParams& p);

/// Token correctness (Def. 4.3, carry-phase fix per README.md, Fidelity
/// note 4).
/// Defined relative to the C_DL layout anchored at `leader_pos`; returns
/// false when the token's working-pair geometry is broken.
[[nodiscard]] bool token_correct(Config c, const PlParams& p, int host,
                                 bool black, int leader_pos);

/// Peaceful(i) for the live bullet at u_i (general, multi-leader form): its
/// nearest left leader exists, is shielded, and no bullet-absence signal
/// lies on the path from that leader to u_i.
[[nodiscard]] bool live_bullet_peaceful(Config c, int i);

/// C_PB: at least one leader and every live bullet is peaceful.
[[nodiscard]] bool in_cpb(Config c);

/// C_DL dist/last layout relative to the unique leader at `leader_pos`:
/// dist(u_{k+i}) == i mod 2psi and last == 1 iff i in [psi*(zeta-1), n-1].
[[nodiscard]] bool in_cdl_layout(Config c, const PlParams& p, int leader_pos);

/// The clauses of S_PL (Def. 4.6) in proof order; kSafe when none fails.
enum class SafeClause : std::uint8_t {
  kLeaderCount,      ///< exactly one leader
  kCdlLayout,        ///< dist/last follow C_DL from the leader
  kPeacefulBullets,  ///< every live bullet is peaceful
  kTokens,           ///< every token is correct and outside the last segment
  kSegmentIds,       ///< segment IDs consecutive for S_0..S_{zeta-2}
  kSafe,
};

/// The word lane's view of one ring (core::WordRingView over P_PL's u64
/// mirror).
using WordConfig = core::WordRingView<PlProtocol>;

/// The first S_PL clause, in proof order, that the configuration fails, or
/// kSafe. Allocation-free; the two overloads are the one clause template
/// instantiated for spans and for word views, so they agree on every
/// configuration both can hold.
[[nodiscard]] SafeClause first_failing_clause(Config c, const PlParams& p);
[[nodiscard]] SafeClause first_failing_clause(const WordConfig& c,
                                              const PlParams& p);

/// The clause at which the membership check (cost order, early exit)
/// stopped: kSafe iff first_failing_clause is kSafe, but when several
/// clauses fail it names the first one the passes met, e.g. kSegmentIds on
/// a ring that fails the segment IDs and C_DL or the tokens.
[[nodiscard]] SafeClause membership_exit_clause(Config c, const PlParams& p);
[[nodiscard]] SafeClause membership_exit_clause(const WordConfig& c,
                                                const PlParams& p);

/// Membership in the safe set S_PL (Def. 4.6) with the first failing clause
/// and a human-readable reason on failure.
struct SafetyVerdict {
  bool safe = false;
  SafeClause clause = SafeClause::kLeaderCount;
  std::string reason;
};
[[nodiscard]] SafetyVerdict check_safe(Config c, const PlParams& p);

/// Membership in S_PL (membership mode: cheapest clause first, early exit).
[[nodiscard]] bool is_safe(Config c, const PlParams& p);
[[nodiscard]] bool is_safe(const WordConfig& c, const PlParams& p);

/// Predicates in the shape core::Runner::run_until expects. SafePredicate
/// also takes the word view, which EnsembleRunner::run_until_each prefers on
/// its word lane (no sync_ring unpack per check). Both predicates below
/// accept only configurations with exactly one leader and say so with
/// unique_leader(), so run_until_each rejects a ring whose leader census is
/// not 1 without calling them (core::requires_unique_leader).
struct SafePredicate {
  static constexpr bool unique_leader() noexcept { return true; }
  bool operator()(Config c, const PlParams& p) const { return is_safe(c, p); }
  bool operator()(const WordConfig& c, const PlParams& p) const {
    return is_safe(c, p);
  }
};
struct UniqueLeaderPredicate {
  static constexpr bool unique_leader() noexcept { return true; }
  bool operator()(Config c, const PlParams&) const {
    return count_leaders(c) == 1;
  }
};
struct AnyLeaderPredicate {
  bool operator()(Config c, const PlParams&) const {
    return count_leaders(c) >= 1;
  }
};
struct AllDetectPredicate {
  bool operator()(Config c, const PlParams& p) const {
    for (const PlState& s : c)
      if (!in_detect_mode(s, p.kappa_max)) return false;
    return true;
  }
};

}  // namespace ppsim::pl
