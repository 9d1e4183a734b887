// State-space accounting for the Table-1 "#states" column (E9).
//
// These count |Q(n)| — the number of *abstract protocol states* per agent as
// declared by each protocol's variable domains — and the corresponding bits
// of agent memory.
#pragma once

#include <cstdint>
#include <string>

#include "pl/params.hpp"
#include "pl/state.hpp"

namespace ppsim::analysis {

struct StateCount {
  double states = 0.0;  ///< |Q(n)| (double: polylog products overflow u64 late)
  double bits = 0.0;    ///< log2 |Q(n)|
};

/// P_PL: 2(leader) * 2(b) * 2psi(dist) * 2(last) * T^2(tokens,
/// T = 1 + (2psi-1)*4) * (kappa_max+1)(clock) * (psi+1)(hits) *
/// (kappa_max+1)(signalR) * 3(bullet) * 2(shield) * 2(signalB).
/// (mode is derived; counting it would multiply by 2 but not change the
/// polylog character.)
[[nodiscard]] StateCount pl_state_count(const pl::PlParams& p);

/// yokota28: 2 * (2^psi)(dist) * 3 * 2 * 2 — Theta(n).
[[nodiscard]] StateCount y28_state_count(int n, int psi_slack = 0);

/// fischer_jiang: 2 * 3 * 2 * 2 = 24 — O(1).
[[nodiscard]] StateCount fj_state_count();

/// modk: 2 * k * 3 * 2 * 2 — O(1).
[[nodiscard]] StateCount modk_state_count(int k);

[[nodiscard]] std::string format_state_count(const StateCount& c);

/// Injective packing of a PlState into 64 bits, below the declared |Q(n)|
/// for every in-domain state (tests/analysis/analysis_test.cpp checks both,
/// so the declared domains cover what the generators produce). Valid for
/// psi <= 60 and kappa_max <= 2^16 - 1.
[[nodiscard]] std::uint64_t pack_pl_state(const pl::PlState& s,
                                          const pl::PlParams& p);

}  // namespace ppsim::analysis
