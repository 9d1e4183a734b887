// Ring-topology index arithmetic shared by all protocols and checkers.
//
// The population is V = {u_0, ..., u_{n-1}} with arcs (u_i, u_{i+1 mod n}).
// Agents themselves are anonymous; indices exist only in the harness, exactly
// as in the paper ("we use the indices of the agents only for simplicity").
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppsim::core {

/// i + d (mod n) for 0 <= i < n and d possibly negative or > n.
[[nodiscard]] constexpr int ring_add(int i, long long d, int n) noexcept {
  assert(n > 0);
  long long v = (static_cast<long long>(i) + d) % n;
  if (v < 0) v += n;
  return static_cast<int>(v);
}

/// Clockwise (left-to-right) distance from i to j on a ring of size n.
[[nodiscard]] constexpr int ring_distance(int i, int j, int n) noexcept {
  assert(n > 0);
  int d = j - i;
  if (d < 0) d += n;
  return d;
}

/// Endpoints of one interaction arc, in scheduler order.
struct ArcEndpoints {
  int initiator = 0;
  int responder = 0;
};

/// The initiator/responder arc mapping of the ring scheduler: Runner,
/// EnsembleRunner (every lane), ModelChecker and QuotientChecker all resolve
/// arcs through this one function, so the random scheduler and the
/// exhaustive checker read one definition. tests/core/topology_drift_test.cpp
/// pins the engine against ModelChecker::successor exhaustively at small n,
/// in both orientations.
///
/// Arcs [0, n) are the directed arcs e_i = (u_i, u_{i+1 mod n}): the *left*
/// agent is the initiator, matching the paper's "l is the initiator and r is
/// the responder". On the undirected ring there are 2n arcs; arc n + i is the
/// reverse of e_i, i.e. (u_{i+1 mod n} initiator, u_i responder).
[[nodiscard]] constexpr ArcEndpoints arc_endpoints(int arc, int n) noexcept {
  assert(n > 0 && arc >= 0 && arc < 2 * n);
  if (arc < n) {
    return {arc, arc + 1 == n ? 0 : arc + 1};
  }
  const int resp = arc - n;
  return {resp + 1 == n ? 0 : resp + 1, resp};
}

/// Number of arcs the uniform scheduler draws from: n on the directed ring,
/// 2n on the undirected one.
[[nodiscard]] constexpr int arc_count(int n, bool directed) noexcept {
  return directed ? n : 2 * n;
}

/// `n` when it is a ring size (n >= 1). Otherwise throws
/// std::invalid_argument naming `who`, in every build type: with no agents
/// the scheduler has no arcs and its rejection threshold divides by zero.
/// The engines and the exhaustive checker call this in their constructors.
inline int checked_ring_size(int n, const char* who) {
  if (n < 1)
    throw std::invalid_argument(std::string(who) + ": n must be >= 1, got " +
                                std::to_string(n));
  return n;
}

/// Arc id of `arc` after rotating every agent index by `delta` (the ring
/// automorphism u_i -> u_{i+delta}). Forward arcs map to forward arcs and
/// reversed arcs to reversed arcs, so the uniform scheduler is invariant
/// under rotation — the soundness premise of the symmetry-reduced checker
/// (src/verification/quotient.hpp). Verified against arc_endpoints in
/// tests/core/ring_test.cpp.
[[nodiscard]] constexpr int rotate_arc(int arc, int delta, int n) noexcept {
  assert(n > 0 && arc >= 0 && arc < 2 * n);
  if (arc < n) return ring_add(arc, delta, n);
  return n + ring_add(arc - n, delta, n);
}

/// Arc id of `arc` under the reflection u_i -> u_{n-1-i}. Reflection swaps
/// the two orientations of every edge, so it maps forward arcs to reversed
/// arcs and back — an automorphism of the *undirected* scheduler's arc set
/// (all 2n arcs, uniform) but not of the directed one. An involution.
[[nodiscard]] constexpr int reflect_arc(int arc, int n) noexcept {
  assert(n > 0 && arc >= 0 && arc < 2 * n);
  // n - 2 - arc can be negative, so it rides in ring_add's delta argument
  // (the only one allowed out of range).
  if (arc < n) return n + ring_add(0, n - 2 - arc, n);
  return ring_add(0, n - 2 - (arc - n), n);
}

/// ceil(log2(x)) for x >= 1.
[[nodiscard]] constexpr int ceil_log2(std::uint64_t x) noexcept {
  int bits = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

/// Interaction sequence builders from Section 2 of the paper.
/// Arc e_i is the interaction (u_i, u_{i+1}); a sequence is a list of arc ids.
///
/// seq_R(i, j) = e_i, e_{i+1}, ..., e_{i+j-1}   (a clockwise sweep)
/// Precondition: length >= 0 (asserted; a negative length is a caller bug,
/// not an empty sweep).
[[nodiscard]] inline std::vector<int> seq_r(int start, int length, int n) {
  assert(length >= 0);
  std::vector<int> out;
  if (length <= 0) return out;
  out.reserve(static_cast<std::size_t>(length));
  for (int k = 0; k < length; ++k) out.push_back(ring_add(start, k, n));
  return out;
}

/// seq_L(i, j) = e_{i-1}, e_{i-2}, ..., e_{i-j}  (a counter-clockwise sweep)
/// Precondition: length >= 0 (asserted).
[[nodiscard]] inline std::vector<int> seq_l(int start, int length, int n) {
  assert(length >= 0);
  std::vector<int> out;
  if (length <= 0) return out;
  out.reserve(static_cast<std::size_t>(length));
  for (int k = 1; k <= length; ++k) out.push_back(ring_add(start, -k, n));
  return out;
}

/// Concatenation helper: s . t
[[nodiscard]] inline std::vector<int> seq_concat(std::vector<int> s,
                                                 const std::vector<int>& t) {
  s.insert(s.end(), t.begin(), t.end());
  return s;
}

/// s^k: the k-times repetition of s. Precondition: times >= 0 (asserted).
/// The reserve arithmetic runs entirely in std::size_t so a large `times`
/// cannot overflow an int product before the cast; repeating an empty
/// sequence any number of times is an empty sequence without touching the
/// allocator.
[[nodiscard]] inline std::vector<int> seq_repeat(const std::vector<int>& s,
                                                 int times) {
  assert(times >= 0);
  std::vector<int> out;
  if (times <= 0 || s.empty()) return out;
  out.reserve(s.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out.insert(out.end(), s.begin(), s.end());
  return out;
}

}  // namespace ppsim::core
