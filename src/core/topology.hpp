// Topology-generic interaction layer.
//
// Every engine and checker in this repo schedules interactions by drawing a
// uniform arc id and resolving it to an (initiator, responder) pair. This
// header abstracts that resolution — plus the automorphism group that the
// symmetry-reduced checker quotients by — behind a small Topology interface,
// so the engines, adversaries and checkers are no longer hard-wired to the
// directed ring of core/ring.hpp.
//
// Arc numbering contract (uniform across topologies):
//   * A topology over n agents exposes F = forward_arcs() directed arcs
//     [0, F), each a scheduler-ordered (initiator, responder) pair.
//   * For undirected protocols the arc set doubles: arc F + a is arc a with
//     its endpoints swapped, so arc_count(directed) = directed ? F : 2F.
//     RingTopology reproduces the historical numbering of
//     core::arc_endpoints exactly (F = n, arc n + i reverses e_i).
//   * endpoints(arc) must be valid for arc in [0, 2F) regardless of the
//     protocol's orientation; directed protocols simply never draw >= F.
//
// Automorphism contract (consumed by verification/quotient.hpp):
//   * aut_count(directed) enumerates a group of scheduler automorphisms as
//     ids g in [0, aut_count). g = 0 is always the identity.
//   * aut_agent(g, v) is the agent permutation, aut_arc(g, arc) the induced
//     arc permutation. They must commute with endpoints():
//         endpoints(aut_arc(g, a)).initiator ==
//             aut_agent(g, endpoints(a).initiator)     (same for responder)
//     and every aut must map the drawn arc set [0, arc_count(directed)) onto
//     itself — that bijection is what makes the uniform scheduler invariant
//     under the group, the soundness premise of the quotient checker.
//   * Declaring a *subgroup* of the true automorphism group is always sound
//     (the quotient is merely coarser); TreeTopology uses this to declare
//     the trivial group rather than compute subtree isomorphisms.
//   * The contract is enforced exhaustively at small n by
//     tests/core/topology_test.cpp.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ring.hpp"

namespace ppsim::core {

namespace detail {
/// A topology constructor's n, checked in every build type: a bad n would
/// leave arc_count 0 and the scheduler's rejection threshold undefined.
constexpr int checked_n(int n, int min, const char* who) {
  if (n < min)
    throw std::invalid_argument(std::string(who) + ": n must be >= " +
                                std::to_string(min));
  return n;
}
}  // namespace detail

template <typename T>
concept TopologyLike = requires(const T& t, int arc, int v, bool directed,
                                std::uint64_t g) {
  { t.n() } -> std::convertible_to<int>;
  { t.forward_arcs() } -> std::convertible_to<int>;
  { t.arc_count(directed) } -> std::convertible_to<int>;
  { t.endpoints(arc) } -> std::same_as<ArcEndpoints>;
  { t.aut_count(directed) } -> std::convertible_to<std::uint64_t>;
  { t.aut_agent(g, v) } -> std::convertible_to<int>;
  { t.aut_arc(g, arc) } -> std::convertible_to<int>;
  { T::kName } -> std::convertible_to<const char*>;
};

/// The directed ring of the paper: arcs e_i = (u_i, u_{i+1 mod n}). This is
/// a zero-overhead wrapper over the free functions in core/ring.hpp — every
/// member is a constexpr inline forward, so Runner<P, RingTopology> compiles
/// to exactly the pre-topology code (bit-identity is pinned by the existing
/// equivalence tests and the differential matrix).
class RingTopology {
 public:
  static constexpr const char* kName = "ring";

  constexpr RingTopology() = default;
  /// Throws std::invalid_argument unless n >= 1.
  explicit constexpr RingTopology(int n)
      : n_(detail::checked_n(n, 1, "RingTopology")) {}

  [[nodiscard]] constexpr int n() const noexcept { return n_; }
  [[nodiscard]] constexpr int forward_arcs() const noexcept { return n_; }
  [[nodiscard]] constexpr int arc_count(bool directed) const noexcept {
    return directed ? n_ : 2 * n_;
  }
  [[nodiscard]] constexpr ArcEndpoints endpoints(int arc) const noexcept {
    return arc_endpoints(arc, n_);
  }

  /// Rotations (ids [0, n)), then rotation-followed-by-reflection
  /// (ids [n, 2n)). Reflection swaps arc orientations, so it is only an
  /// automorphism of the undirected scheduler.
  [[nodiscard]] constexpr std::uint64_t aut_count(bool directed) const noexcept {
    return directed ? static_cast<std::uint64_t>(n_)
                    : static_cast<std::uint64_t>(2 * n_);
  }
  [[nodiscard]] constexpr int aut_agent(std::uint64_t g, int v) const noexcept {
    const bool reflect = g >= static_cast<std::uint64_t>(n_);
    const int delta = static_cast<int>(reflect ? g - n_ : g);
    const int rotated = ring_add(v, delta, n_);
    return reflect ? n_ - 1 - rotated : rotated;
  }
  [[nodiscard]] constexpr int aut_arc(std::uint64_t g, int arc) const noexcept {
    const bool reflect = g >= static_cast<std::uint64_t>(n_);
    const int delta = static_cast<int>(reflect ? g - n_ : g);
    const int rotated = rotate_arc(arc, delta, n_);
    return reflect ? reflect_arc(rotated, n_) : rotated;
  }

 private:
  int n_ = 1;
};

/// The path u_0 - u_1 - ... - u_{n-1}: forward arc a = (u_a, u_{a+1}) for
/// a in [0, n-1). The only non-trivial automorphism is the reflection
/// u_v -> u_{n-1-v}, and it swaps arc orientations, so the directed line has
/// a trivial group.
class LineTopology {
 public:
  static constexpr const char* kName = "line";

  constexpr LineTopology() = default;
  /// Throws std::invalid_argument unless n >= 2.
  explicit constexpr LineTopology(int n)
      : n_(detail::checked_n(n, 2, "LineTopology")) {}

  [[nodiscard]] constexpr int n() const noexcept { return n_; }
  [[nodiscard]] constexpr int forward_arcs() const noexcept { return n_ - 1; }
  [[nodiscard]] constexpr int arc_count(bool directed) const noexcept {
    return directed ? forward_arcs() : 2 * forward_arcs();
  }
  [[nodiscard]] constexpr ArcEndpoints endpoints(int arc) const noexcept {
    const int f = forward_arcs();
    assert(arc >= 0 && arc < 2 * f);
    if (arc < f) return {arc, arc + 1};
    const int resp = arc - f;
    return {resp + 1, resp};
  }

  [[nodiscard]] constexpr std::uint64_t aut_count(bool directed) const noexcept {
    return directed ? 1u : 2u;
  }
  [[nodiscard]] constexpr int aut_agent(std::uint64_t g, int v) const noexcept {
    return g == 0 ? v : n_ - 1 - v;
  }
  [[nodiscard]] constexpr int aut_arc(std::uint64_t g, int arc) const noexcept {
    if (g == 0) return arc;
    // Reflection maps forward arc a = (a, a+1) to (n-1-a, n-2-a), which is
    // the reverse of forward arc n-2-a = f-1-a; reverse arcs map back.
    const int f = forward_arcs();
    return arc < f ? f + (f - 1 - arc) : f - 1 - (arc - f);
  }

 private:
  int n_ = 2;
};

/// The complete graph with every *ordered* pair as a forward arc
/// (F = n(n-1)), matching Burman et al.'s complete-graph SSLE setting.
/// Using ordered pairs (rather than i < j) keeps the full symmetric group
/// S_n a scheduler automorphism group for directed protocols too: any
/// relabeling maps the ordered-pair arc set onto itself. For undirected
/// protocols the doubled arc set draws every ordered pair twice — still
/// uniform over ordered pairs, mirroring the n = 2 ring multigraph.
class CliqueTopology {
 public:
  static constexpr const char* kName = "clique";

  constexpr CliqueTopology() = default;
  /// Throws std::invalid_argument unless n >= 2.
  explicit constexpr CliqueTopology(int n)
      : n_(detail::checked_n(n, 2, "CliqueTopology")) {}

  [[nodiscard]] constexpr int n() const noexcept { return n_; }
  [[nodiscard]] constexpr int forward_arcs() const noexcept {
    return n_ * (n_ - 1);
  }
  [[nodiscard]] constexpr int arc_count(bool directed) const noexcept {
    return directed ? forward_arcs() : 2 * forward_arcs();
  }
  [[nodiscard]] constexpr ArcEndpoints endpoints(int arc) const noexcept {
    const int f = forward_arcs();
    assert(arc >= 0 && arc < 2 * f);
    const bool reversed = arc >= f;
    const ArcEndpoints e = decode(reversed ? arc - f : arc);
    return reversed ? ArcEndpoints{e.responder, e.initiator} : e;
  }

  /// The full symmetric group S_n, indexed in the factorial number system
  /// (g = 0 is the identity). n! must fit in 64 bits, so n <= 20 — far above
  /// any checker-reachable population.
  [[nodiscard]] std::uint64_t aut_count(bool /*directed*/) const noexcept {
    assert(n_ <= 20);
    std::uint64_t f = 1;
    for (int i = 2; i <= n_; ++i) f *= static_cast<std::uint64_t>(i);
    return f;
  }
  [[nodiscard]] int aut_agent(std::uint64_t g, int v) const {
    return decode_perm(g)[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int aut_arc(std::uint64_t g, int arc) const {
    const int f = forward_arcs();
    assert(arc >= 0 && arc < 2 * f);
    const bool reversed = arc >= f;
    const ArcEndpoints e = decode(reversed ? arc - f : arc);
    const std::vector<int> perm = decode_perm(g);
    const int enc = encode(perm[static_cast<std::size_t>(e.initiator)],
                           perm[static_cast<std::size_t>(e.responder)]);
    return reversed ? f + enc : enc;
  }

 private:
  // Ordered pair (i, j), i != j  <->  arc id i*(n-1) + (j adjusted past i).
  [[nodiscard]] constexpr int encode(int i, int j) const noexcept {
    return i * (n_ - 1) + (j > i ? j - 1 : j);
  }
  [[nodiscard]] constexpr ArcEndpoints decode(int a) const noexcept {
    const int i = a / (n_ - 1);
    const int jj = a % (n_ - 1);
    return {i, jj >= i ? jj + 1 : jj};
  }
  // Lehmer-code decode of permutation id g (cold path: the quotient checker
  // materializes the group once; tests call it at tiny n).
  [[nodiscard]] std::vector<int> decode_perm(std::uint64_t g) const {
    std::vector<int> pool(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) pool[static_cast<std::size_t>(i)] = i;
    std::vector<std::uint64_t> fact(static_cast<std::size_t>(n_), 1);
    for (int i = 1; i < n_; ++i) {
      fact[static_cast<std::size_t>(i)] =
          fact[static_cast<std::size_t>(i - 1)] * static_cast<std::uint64_t>(i);
    }
    std::vector<int> perm;
    perm.reserve(pool.size());
    for (int i = n_ - 1; i >= 0; --i) {
      const std::uint64_t base = fact[static_cast<std::size_t>(i)];
      const auto d = static_cast<std::size_t>(g / base);
      g %= base;
      assert(d < pool.size());
      perm.push_back(pool[d]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(d));
    }
    return perm;
  }

  int n_ = 2;
};

/// A rooted binary tree in heap layout: parent(v) = (v-1)/2, forward arc
/// a = (parent(a+1), a+1) for a in [0, n-1) — the parent initiates. Heap
/// trees can have non-trivial automorphisms when sibling subtrees happen to
/// be isomorphic, but computing them is not worth the quotient gain at test
/// sizes; declaring the trivial subgroup is always sound (see header note).
class TreeTopology {
 public:
  static constexpr const char* kName = "tree";

  constexpr TreeTopology() = default;
  /// Throws std::invalid_argument unless n >= 2.
  explicit constexpr TreeTopology(int n)
      : n_(detail::checked_n(n, 2, "TreeTopology")) {}

  [[nodiscard]] constexpr int n() const noexcept { return n_; }
  [[nodiscard]] constexpr int forward_arcs() const noexcept { return n_ - 1; }
  [[nodiscard]] constexpr int arc_count(bool directed) const noexcept {
    return directed ? forward_arcs() : 2 * forward_arcs();
  }
  [[nodiscard]] constexpr ArcEndpoints endpoints(int arc) const noexcept {
    const int f = forward_arcs();
    assert(arc >= 0 && arc < 2 * f);
    if (arc < f) return {arc / 2, arc + 1};  // parent(arc+1) = arc/2
    const int resp = arc - f;
    return {resp + 1, resp / 2};
  }

  [[nodiscard]] constexpr std::uint64_t aut_count(bool /*directed*/) const noexcept {
    return 1;
  }
  [[nodiscard]] constexpr int aut_agent(std::uint64_t /*g*/, int v) const noexcept {
    return v;
  }
  [[nodiscard]] constexpr int aut_arc(std::uint64_t /*g*/, int arc) const noexcept {
    return arc;
  }

 private:
  int n_ = 2;
};

static_assert(TopologyLike<RingTopology>);
static_assert(TopologyLike<LineTopology>);
static_assert(TopologyLike<CliqueTopology>);
static_assert(TopologyLike<TreeTopology>);

}  // namespace ppsim::core
