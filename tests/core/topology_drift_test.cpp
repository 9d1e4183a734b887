// Engine/checker arc-mapping agreement on the ring: for every configuration
// and every drawable arc at n <= 6, a Runner step through that arc must
// produce exactly the configuration ModelChecker::successor predicts, on
// the directed ring (n arcs) and the undirected one (2n arcs, arc n + i
// reversing e_i). Both layers call core::arc_endpoints, but through
// different code (InteractionEngine::apply_arc on a State array vs decode /
// M::apply / encode on a configuration id); a transposed endpoint pair or an
// off-by-one in either fails here by construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ensemble.hpp"
#include "core/model_checker.hpp"
#include "core/ring.hpp"
#include "core/runner.hpp"
#include "verification/toys.hpp"

namespace ppsim::core {
namespace {

using verification::TokenMergeModel;

/// TokenMergeModel on the undirected ring: the scheduler draws all 2n arcs.
struct UndirectedTokenMerge : TokenMergeModel {
  static constexpr bool directed = false;
};

/// TokenMergeModel is deliberately asymmetric in (initiator, responder) —
/// a lone token moves initiator -> responder — so any endpoint swap or
/// off-by-one in either layer changes the successor configuration.
template <typename M>
void drift_check(int n) {
  const typename M::Params p{n};
  const ModelChecker<M> mc(p);
  ASSERT_FALSE(mc.capacity_exceeded());
  const int arcs = arc_count(n, M::directed);
  for (std::uint64_t id = 0; id < mc.num_configurations(); ++id) {
    const auto cfg = mc.decode(id);
    for (int a = 0; a < arcs; ++a) {
      Runner<M> runner(p, cfg, /*seed=*/1);
      runner.apply_arc(a);
      const auto got = runner.agents();
      const auto want = mc.decode(mc.successor(id, a));
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)].tok,
                  want[static_cast<std::size_t>(i)].tok)
            << "directed=" << M::directed << " n=" << n << " id=" << id
            << " arc=" << a << " agent=" << i;
      }
    }
  }
}

TEST(TopologyDrift, RingEngineMatchesChecker) {
  for (int n = 2; n <= 6; ++n) drift_check<TokenMergeModel>(n);
}

TEST(TopologyDrift, UndirectedRingEngineMatchesChecker) {
  for (int n = 2; n <= 6; ++n) drift_check<UndirectedTokenMerge>(n);
}

// The ensemble's generic lane resolves arcs in its own loop
// (InteractionEngine::run_block); Runner and EnsembleRunner ring 0 share
// the seed, so a short scheduled run must draw and apply identical arcs.
template <typename M>
void ensemble_agrees(int n, std::uint64_t steps) {
  const typename M::Params p{n};
  std::vector<typename M::State> init(static_cast<std::size_t>(n));
  init[0].tok = 1;
  if (n > 2) init[static_cast<std::size_t>(n / 2)].tok = 1;
  Runner<M> runner(p, init, /*seed=*/99);
  EnsembleRunner<M> ensemble(p, 1);
  ensemble.add_ring(init, /*seed=*/99);
  runner.run(steps);
  ensemble.run_ring(0, steps);
  EXPECT_EQ(runner.steps(), ensemble.steps(0));
  const auto a = runner.agents();
  const auto b = ensemble.agents(0);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(a[static_cast<std::size_t>(i)].tok,
              b[static_cast<std::size_t>(i)].tok)
        << "directed=" << M::directed << " n=" << n << " agent=" << i;
}

TEST(TopologyDrift, EnsembleMatchesRunner) {
  for (int n = 2; n <= 6; ++n) {
    ensemble_agrees<TokenMergeModel>(n, 512);
    ensemble_agrees<UndirectedTokenMerge>(n, 512);
  }
}

}  // namespace
}  // namespace ppsim::core
