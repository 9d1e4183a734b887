// Differential-fuzz lanes for the generic engine path on the ring: the
// token-merge toy (generic engines vs the ModelChecker mirror, fault storms
// on), then the scheduler-fault models (omission + biased draws) under the
// same cross-engine fire, on the directed and the undirected ring.
#include "verification/differential.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ring.hpp"
#include "core/rng.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
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

pl::PlState pl_fault(const pl::PlParams& p, core::Xoshiro256pp& rng,
                     const pl::PlState&, int) {
  return pl::random_state(p, rng);
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

// ---- scheduler-fault models under differential fire ---------------------

template <typename M>
void toy_faulted_lane(std::uint64_t seed, double loss_p, bool biased) {
  const typename M::Params p{6};
  core::Xoshiro256pp cfg_rng(seed ^ 0xC0FFEEULL);
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.steps = 4096;
  cfg.check_every = 64;
  cfg.fault_storms = 2;
  cfg.faults_per_storm = 2;
  cfg.loss_p = loss_p;
  if (biased) {
    // A lumpy distribution with a never-drawn arc mixed in.
    const int arcs = core::arc_count(p.n, M::directed);
    cfg.arc_bias.resize(static_cast<std::size_t>(arcs));
    for (int a = 0; a < arcs; ++a)
      cfg.arc_bias[static_cast<std::size_t>(a)] =
          a % 3 == 0 ? 0.0 : 1.0 + static_cast<double>(a % 5);
  }
  const auto rep =
      run_differential<M, M>(p, toy_config(p.n, cfg_rng), cfg, toy_fault);
  EXPECT_TRUE(rep.ok) << "directed=" << M::directed << " loss=" << loss_p
                      << " biased=" << biased << ": " << rep.divergence;
  EXPECT_TRUE(rep.mirror_lane);
  // Lost interactions still count: steps advance by exactly cfg.steps.
  EXPECT_EQ(rep.interactions, cfg.steps);
}

TEST(TopologyDifferential, OmissionFaults) {
  toy_faulted_lane<TokenMergeModel>(0x10551, 0.25, false);
  toy_faulted_lane<UndirectedTokenMerge>(0x10552, 0.25, false);
}

TEST(TopologyDifferential, BiasedDraws) {
  toy_faulted_lane<TokenMergeModel>(0xB1A51, 0.0, true);
  toy_faulted_lane<UndirectedTokenMerge>(0xB1A52, 0.0, true);
}

TEST(TopologyDifferential, OmissionPlusBiasCombined) {
  toy_faulted_lane<TokenMergeModel>(0xC0531, 0.15, true);
  toy_faulted_lane<UndirectedTokenMerge>(0xC0532, 0.15, true);
}

// ---- the study protocol under omission ------------------------------------

TEST(TopologyDifferential, PlProtocolWithOmission) {
  // Active scheduler faults take P_PL off its word kernel in every lane;
  // the scalar/generic lanes must still agree, with and without loss.
  for (const double loss : {0.0, 0.2}) {
    const auto p = pl::PlParams::make(8, 4);
    core::Xoshiro256pp cfg_rng(41);
    FuzzConfig cfg;
    cfg.seed = 0x0FF7106;
    cfg.steps = 4096;
    cfg.check_every = 128;
    cfg.fault_storms = 2;
    cfg.faults_per_storm = 2;
    cfg.loss_p = loss;
    const auto rep = run_differential<pl::PlProtocol>(
        p, pl::random_config(p, cfg_rng), cfg, pl_fault);
    EXPECT_TRUE(rep.ok) << "loss=" << loss << ": " << rep.divergence;
    if (loss > 0.0) {
      EXPECT_FALSE(rep.packed_lane);
    }
  }
}

}  // namespace
}  // namespace ppsim::verification
