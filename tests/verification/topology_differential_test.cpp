// Differential-fuzz lanes for the generic engine path on the ring: the
// token-merge toy (generic engines vs the ModelChecker mirror, fault storms
// on), on the directed and the undirected ring.
#include "verification/differential.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "verification/toys.hpp"

namespace ppsim::verification {
namespace {

TokenMergeModel::State toy_fault(const TokenMergeModel::Params&,
                                 core::Xoshiro256pp& rng,
                                 const TokenMergeModel::State&, int) {
  return TokenMergeModel::State{static_cast<int>(rng.bounded(2))};
}

std::vector<TokenMergeModel::State> toy_config(int n,
                                               core::Xoshiro256pp& rng) {
  std::vector<TokenMergeModel::State> c(static_cast<std::size_t>(n));
  for (auto& s : c) s.tok = static_cast<int>(rng.bounded(2));
  c[0].tok = 1;  // at least one token, so the dynamics stay interesting
  return c;
}

/// TokenMergeModel on the undirected ring: the scheduler draws all 2n arcs.
struct UndirectedTokenMerge : TokenMergeModel {
  static constexpr bool directed = false;
};

/// Engines + checker mirror, storms on, zero divergences.
template <typename M>
void toy_lane(std::uint64_t seed) {
  const typename M::Params p{6};
  core::Xoshiro256pp cfg_rng(seed ^ 0xC0FFEEULL);
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.steps = 4096;
  cfg.check_every = 64;
  cfg.fault_storms = 4;
  cfg.faults_per_storm = 2;
  const auto rep =
      run_differential<M, M>(p, toy_config(p.n, cfg_rng), cfg, toy_fault);
  EXPECT_TRUE(rep.ok) << "directed=" << M::directed << ": " << rep.divergence;
  EXPECT_TRUE(rep.mirror_lane);
  EXPECT_EQ(rep.interactions, cfg.steps);
  EXPECT_EQ(rep.faults, static_cast<std::uint64_t>(cfg.fault_storms *
                                                   cfg.faults_per_storm));
}

TEST(TopologyDifferential, RingLanesThroughGenericPathStillAgree) {
  toy_lane<TokenMergeModel>(0x51A5);
  toy_lane<UndirectedTokenMerge>(0x51A6);
}

}  // namespace
}  // namespace ppsim::verification
