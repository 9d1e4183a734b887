// Exhaustive small-n enforcement of the core::Topology contracts
// (core/topology.hpp): arc numbering (forward arcs [0, F), arc F + a is
// arc a endpoint-swapped) and the automorphism group (g = 0 identity,
// agent maps are bijections, arc maps permute the drawn arc set, and the
// two commute with endpoints() — the equivariance the quotient checker's
// soundness rests on). Plus per-topology group shape: ring = rotations
// (+ reflection when undirected), line = reflection only (undirected),
// clique = full S_n, tree = declared-trivial.
#include "core/topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ring.hpp"

namespace ppsim::core {
namespace {

template <typename Topo>
void check_endpoints_contract(const Topo& t) {
  const int n = t.n();
  const int f = t.forward_arcs();
  ASSERT_GE(f, 1);
  EXPECT_EQ(t.arc_count(true), f);
  EXPECT_EQ(t.arc_count(false), 2 * f);
  std::set<std::pair<int, int>> forward;
  for (int a = 0; a < 2 * f; ++a) {
    const ArcEndpoints e = t.endpoints(a);
    ASSERT_GE(e.initiator, 0);
    ASSERT_LT(e.initiator, n);
    ASSERT_GE(e.responder, 0);
    ASSERT_LT(e.responder, n);
    if (n >= 2) {
      EXPECT_NE(e.initiator, e.responder);
    }
  }
  for (int a = 0; a < f; ++a) {
    const ArcEndpoints e = t.endpoints(a);
    const ArcEndpoints r = t.endpoints(f + a);
    EXPECT_EQ(r.initiator, e.responder) << Topo::kName << " arc " << a;
    EXPECT_EQ(r.responder, e.initiator) << Topo::kName << " arc " << a;
    forward.insert({e.initiator, e.responder});
  }
  // Forward arcs are distinct ordered pairs (the n = 1 ring self-loop is
  // the only exception, excluded by the n >= 2 sweep below).
  if (n >= 2) {
    EXPECT_EQ(forward.size(), static_cast<std::size_t>(f));
  }
}

/// The full automorphism contract for one orientation: identity at g = 0,
/// agent bijection, drawn-arc-set permutation, equivariance with
/// endpoints(). Does NOT require the enumerated elements to be pairwise
/// distinct (the n = 2 ring's rotation and reflection coincide); per-group
/// shape is pinned by the topology-specific tests below.
template <typename Topo>
void check_aut_contract(const Topo& t, bool directed) {
  const int n = t.n();
  const int arcs = t.arc_count(directed);
  const std::uint64_t count = t.aut_count(directed);
  ASSERT_GE(count, 1u);
  for (int v = 0; v < n; ++v) EXPECT_EQ(t.aut_agent(0, v), v);
  for (int a = 0; a < arcs; ++a) EXPECT_EQ(t.aut_arc(0, a), a);
  for (std::uint64_t g = 0; g < count; ++g) {
    std::vector<int> hit(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      const int w = t.aut_agent(g, v);
      ASSERT_GE(w, 0);
      ASSERT_LT(w, n);
      ++hit[static_cast<std::size_t>(w)];
    }
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(hit[static_cast<std::size_t>(v)], 1)
          << Topo::kName << " g=" << g << " not an agent bijection";
    std::vector<int> arc_hit(static_cast<std::size_t>(arcs), 0);
    for (int a = 0; a < arcs; ++a) {
      const int b = t.aut_arc(g, a);
      ASSERT_GE(b, 0) << Topo::kName << " g=" << g;
      ASSERT_LT(b, arcs)
          << Topo::kName << " g=" << g
          << ": aut_arc left the drawn arc set (scheduler not invariant)";
      ++arc_hit[static_cast<std::size_t>(b)];
      const ArcEndpoints e = t.endpoints(a);
      const ArcEndpoints img = t.endpoints(b);
      EXPECT_EQ(img.initiator, t.aut_agent(g, e.initiator))
          << Topo::kName << " g=" << g << " arc=" << a;
      EXPECT_EQ(img.responder, t.aut_agent(g, e.responder))
          << Topo::kName << " g=" << g << " arc=" << a;
    }
    for (int a = 0; a < arcs; ++a)
      EXPECT_EQ(arc_hit[a], 1)
          << Topo::kName << " g=" << g << " arc map not onto";
  }
}

template <typename Topo>
void check_both_orientations(int n) {
  const Topo t(n);
  check_endpoints_contract(t);
  check_aut_contract(t, true);
  check_aut_contract(t, false);
}

TEST(TopologyContract, RingExhaustiveSmallN) {
  for (int n = 2; n <= 6; ++n) check_both_orientations<RingTopology>(n);
}

TEST(TopologyContract, LineExhaustiveSmallN) {
  for (int n = 2; n <= 6; ++n) check_both_orientations<LineTopology>(n);
}

TEST(TopologyContract, CliqueExhaustiveSmallN) {
  // n = 6 enumerates all 720 elements of S_6 against 30 forward arcs.
  for (int n = 2; n <= 6; ++n) check_both_orientations<CliqueTopology>(n);
}

TEST(TopologyContract, TreeExhaustiveSmallN) {
  for (int n = 2; n <= 6; ++n) check_both_orientations<TreeTopology>(n);
}

// ---- ring: bit-identity with the historical free functions --------------

TEST(RingTopologyTest, EndpointsMatchArcEndpoints) {
  for (int n = 1; n <= 8; ++n) {
    const RingTopology t(n);
    EXPECT_EQ(t.forward_arcs(), n);
    for (int arc = 0; arc < 2 * n; ++arc) {
      const ArcEndpoints a = t.endpoints(arc);
      const ArcEndpoints b = arc_endpoints(arc, n);
      EXPECT_EQ(a.initiator, b.initiator) << "n=" << n << " arc=" << arc;
      EXPECT_EQ(a.responder, b.responder) << "n=" << n << " arc=" << arc;
    }
  }
}

TEST(RingTopologyTest, AutArcMatchesRotateAndReflect) {
  for (int n = 2; n <= 6; ++n) {
    const RingTopology t(n);
    for (int arc = 0; arc < 2 * n; ++arc) {
      for (int delta = 0; delta < n; ++delta) {
        EXPECT_EQ(t.aut_arc(static_cast<std::uint64_t>(delta), arc),
                  rotate_arc(arc, delta, n));
        EXPECT_EQ(t.aut_arc(static_cast<std::uint64_t>(n + delta), arc),
                  reflect_arc(rotate_arc(arc, delta, n), n));
      }
    }
  }
}

// ---- line: reflection is the only non-trivial automorphism --------------

TEST(LineTopologyTest, ReflectionOnlyAndUndirectedOnly) {
  for (int n = 2; n <= 6; ++n) {
    const LineTopology t(n);
    // The reflection reverses arc orientations, so the directed line's
    // declared group is trivial.
    EXPECT_EQ(t.aut_count(true), 1u);
    EXPECT_EQ(t.aut_count(false), 2u);
    for (int v = 0; v < n; ++v) EXPECT_EQ(t.aut_agent(1, v), n - 1 - v);
    // An involution on agents and arcs.
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(t.aut_agent(1, t.aut_agent(1, v)), v);
    for (int a = 0; a < t.arc_count(false); ++a)
      EXPECT_EQ(t.aut_arc(1, t.aut_arc(1, a)), a);
  }
}

// ---- clique: the full symmetric group, each element exactly once --------

TEST(CliqueTopologyTest, FullSymmetricGroup) {
  for (int n = 2; n <= 5; ++n) {
    const CliqueTopology t(n);
    std::uint64_t fact = 1;
    for (int i = 2; i <= n; ++i) fact *= static_cast<std::uint64_t>(i);
    ASSERT_EQ(t.aut_count(true), fact);
    ASSERT_EQ(t.aut_count(false), fact);
    std::set<std::vector<int>> seen;
    for (std::uint64_t g = 0; g < fact; ++g) {
      std::vector<int> perm(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        perm[static_cast<std::size_t>(v)] = t.aut_agent(g, v);
      EXPECT_TRUE(seen.insert(perm).second)
          << "duplicate permutation at g=" << g;
    }
    EXPECT_EQ(seen.size(), fact);  // all of S_n, each exactly once
  }
}

TEST(CliqueTopologyTest, OrderedPairEncoding) {
  for (int n = 2; n <= 6; ++n) {
    const CliqueTopology t(n);
    ASSERT_EQ(t.forward_arcs(), n * (n - 1));
    std::set<std::pair<int, int>> pairs;
    for (int a = 0; a < t.forward_arcs(); ++a) {
      const ArcEndpoints e = t.endpoints(a);
      pairs.insert({e.initiator, e.responder});
    }
    // Every ordered pair (i, j), i != j, appears exactly once.
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n * (n - 1)));
  }
}

// ---- tree: heap layout, declared-trivial group --------------------------

TEST(TreeTopologyTest, HeapParentArcsAndTrivialGroup) {
  for (int n = 2; n <= 7; ++n) {
    const TreeTopology t(n);
    for (int a = 0; a < t.forward_arcs(); ++a) {
      const ArcEndpoints e = t.endpoints(a);
      EXPECT_EQ(e.responder, a + 1);
      EXPECT_EQ(e.initiator, (e.responder - 1) / 2);  // parent initiates
    }
    EXPECT_EQ(t.aut_count(true), 1u);
    EXPECT_EQ(t.aut_count(false), 1u);
  }
}

// ---- constructor checks: a bad n throws in every build type -------------

TEST(TopologyCtorTest, RingRejectsNonPositiveN) {
  EXPECT_THROW(RingTopology(0), std::invalid_argument);
  EXPECT_THROW(RingTopology(-3), std::invalid_argument);
  EXPECT_EQ(RingTopology(1).arc_count(true), 1);
}

TEST(TopologyCtorTest, LineRejectsNBelowTwo) {
  EXPECT_THROW(LineTopology(1), std::invalid_argument);
  EXPECT_THROW(LineTopology(0), std::invalid_argument);
  EXPECT_EQ(LineTopology(2).arc_count(true), 1);
}

TEST(TopologyCtorTest, CliqueRejectsNBelowTwo) {
  EXPECT_THROW(CliqueTopology(1), std::invalid_argument);
  EXPECT_THROW(CliqueTopology(-1), std::invalid_argument);
  EXPECT_EQ(CliqueTopology(2).arc_count(true), 2);
}

TEST(TopologyCtorTest, TreeRejectsNBelowTwo) {
  EXPECT_THROW(TreeTopology(1), std::invalid_argument);
  EXPECT_THROW(TreeTopology(0), std::invalid_argument);
  EXPECT_EQ(TreeTopology(2).arc_count(true), 1);
}

}  // namespace
}  // namespace ppsim::core
