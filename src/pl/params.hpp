// Parameters of P_PL.
//
// The protocol is parameterized by the common knowledge
// psi = ceil(log2 n) + O(1) (so 2^psi >= n, as Lemma 3.2 requires) and by
// kappa_max = c1 * psi for a sufficiently large constant c1 (the paper
// assumes c1 >= 32; kappa_max controls how long the population is guaranteed
// to stay in construction mode once a leader exists, cf. Lemma 3.6).
#pragma once

#include <cassert>
#include <stdexcept>

#include "core/ring.hpp"

namespace ppsim::pl {

struct PlParams {
  int n = 0;          ///< ring size (>= 2)
  int psi = 2;        ///< knowledge, >= 2 and 2^psi >= n
  int kappa_max = 64; ///< c1 * psi

  /// Largest psi: id_modulus() is 2^psi in a signed 64-bit integer.
  static constexpr int kMaxPsi = 62;
  /// Largest kappa_max: PlState::clock and signal_r are 16 bits wide.
  static constexpr int kMaxKappa = 65535;

  /// Paper-faithful construction: psi = max(2, ceil(log2 n)) + psi_slack,
  /// kappa_max = c1 * psi. constexpr so parameter regimes can be certified
  /// at compile time (pl/packed_certify.hpp static_asserts the committed
  /// bench regimes clamp-free). Throws on a regime the state cannot hold:
  /// psi > kMaxPsi or kappa_max > kMaxKappa.
  [[nodiscard]] static constexpr PlParams make(int n, int c1 = 32,
                                               int psi_slack = 0) {
    if (n < 2) throw std::invalid_argument("PlParams: n must be >= 2");
    if (c1 < 1) throw std::invalid_argument("PlParams: c1 must be >= 1");
    if (psi_slack < 0)
      throw std::invalid_argument("PlParams: psi_slack must be >= 0");
    const int base =
        std::max(2, core::ceil_log2(static_cast<std::uint64_t>(n)));
    if (psi_slack > kMaxPsi - base)
      throw std::invalid_argument("PlParams: psi must be <= 62");
    PlParams p;
    p.n = n;
    p.psi = base + psi_slack;
    if (static_cast<long long>(c1) * p.psi > kMaxKappa)
      throw std::invalid_argument("PlParams: kappa_max must be <= 65535");
    p.kappa_max = c1 * p.psi;
    return p;
  }

  [[nodiscard]] constexpr int two_psi() const noexcept { return 2 * psi; }

  /// Segment-ID modulus 2^psi.
  [[nodiscard]] constexpr long long id_modulus() const noexcept {
    return 1LL << psi;
  }

  /// zeta = ceil(n / psi): the number of segments in C_DL.
  [[nodiscard]] constexpr int zeta() const noexcept {
    return (n + psi - 1) / psi;
  }

  /// Trajectory length of a token (Definition 3.4): 2*psi^2 - 2*psi + 1.
  [[nodiscard]] constexpr int trajectory_length() const noexcept {
    return 2 * psi * psi - 2 * psi + 1;
  }

  friend bool operator==(const PlParams&, const PlParams&) = default;
};

}  // namespace ppsim::pl
