// Differential-fuzz lanes for the topology-generic layer: one lane per
// non-ring topology (generic engines vs the ModelChecker mirror, fault
// storms on), the scheduler-fault models (omission + biased draws) under
// the same cross-engine fire, and a canary proving a mis-mapped arc on a
// non-ring topology is *caught and named* — the mirror runs a deliberately
// corrupted MirrorTopo and the report must blame lane E(checker-mirror).
#include "verification/differential.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/topology.hpp"
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

/// Engines + checker mirror on one topology, storms on, zero divergences.
template <typename Topo>
void toy_lane(std::uint64_t seed) {
  const TokenMergeModel::Params p{6};
  core::Xoshiro256pp cfg_rng(seed ^ 0xC0FFEEULL);
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.steps = 4096;
  cfg.check_every = 64;
  cfg.fault_storms = 4;
  cfg.faults_per_storm = 2;
  const auto rep = run_differential<TokenMergeModel, TokenMergeModel, Topo>(
      p, toy_config(p.n, cfg_rng), cfg, toy_fault);
  EXPECT_TRUE(rep.ok) << Topo::kName << ": " << rep.divergence;
  EXPECT_TRUE(rep.mirror_lane) << Topo::kName;
  EXPECT_EQ(rep.interactions, cfg.steps);
  EXPECT_EQ(rep.faults, static_cast<std::uint64_t>(cfg.fault_storms *
                                                   cfg.faults_per_storm));
}

TEST(TopologyDifferential, LineLanesWithStorms) {
  toy_lane<core::LineTopology>(0xA11CE);
}

TEST(TopologyDifferential, CliqueLanesWithStorms) {
  toy_lane<core::CliqueTopology>(0xB0B);
}

TEST(TopologyDifferential, TreeLanesWithStorms) {
  toy_lane<core::TreeTopology>(0x7EE);
}

TEST(TopologyDifferential, RingLanesThroughGenericPathStillAgree) {
  // The same generic matrix instantiated back on the ring: the default
  // topology must not be a special case of the new plumbing.
  toy_lane<core::RingTopology>(0x51A5);
}

// ---- scheduler-fault models under differential fire ---------------------

template <typename Topo>
void toy_faulted_lane(std::uint64_t seed, double loss_p, bool biased) {
  const TokenMergeModel::Params p{6};
  const Topo topo(p.n);
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
    const int arcs = topo.arc_count(TokenMergeModel::directed);
    cfg.arc_bias.resize(static_cast<std::size_t>(arcs));
    for (int a = 0; a < arcs; ++a)
      cfg.arc_bias[static_cast<std::size_t>(a)] =
          a % 3 == 0 ? 0.0 : 1.0 + static_cast<double>(a % 5);
  }
  const auto rep = run_differential<TokenMergeModel, TokenMergeModel, Topo>(
      p, toy_config(p.n, cfg_rng), cfg, toy_fault);
  EXPECT_TRUE(rep.ok) << Topo::kName << " loss=" << loss_p
                      << " biased=" << biased << ": " << rep.divergence;
  EXPECT_TRUE(rep.mirror_lane);
  // Lost interactions still count: steps advance by exactly cfg.steps.
  EXPECT_EQ(rep.interactions, cfg.steps);
}

TEST(TopologyDifferential, OmissionFaultsAllTopologies) {
  toy_faulted_lane<core::RingTopology>(0x10551, 0.25, false);
  toy_faulted_lane<core::LineTopology>(0x10552, 0.25, false);
  toy_faulted_lane<core::CliqueTopology>(0x10553, 0.25, false);
  toy_faulted_lane<core::TreeTopology>(0x10554, 0.25, false);
}

TEST(TopologyDifferential, BiasedDrawsAllTopologies) {
  toy_faulted_lane<core::RingTopology>(0xB1A51, 0.0, true);
  toy_faulted_lane<core::LineTopology>(0xB1A52, 0.0, true);
  toy_faulted_lane<core::CliqueTopology>(0xB1A53, 0.0, true);
  toy_faulted_lane<core::TreeTopology>(0xB1A54, 0.0, true);
}

TEST(TopologyDifferential, OmissionPlusBiasCombined) {
  toy_faulted_lane<core::LineTopology>(0xC0531, 0.15, true);
  toy_faulted_lane<core::CliqueTopology>(0xC0532, 0.15, true);
}

// ---- the study protocol off the ring ------------------------------------

TEST(TopologyDifferential, PlProtocolOffRingWithOmission) {
  // P_PL's word kernel is ring-only; off the ring every lane must fall to
  // the scalar/generic paths and still agree — with and without loss.
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
    const auto line = run_differential<pl::PlProtocol, void,
                                       core::LineTopology>(
        p, pl::random_config(p, cfg_rng), cfg, pl_fault);
    EXPECT_TRUE(line.ok) << "line loss=" << loss << ": " << line.divergence;
    EXPECT_FALSE(line.packed_lane);  // ring-only kernel must not engage
    const auto clique = run_differential<pl::PlProtocol, void,
                                         core::CliqueTopology>(
        p, pl::random_config(p, cfg_rng), cfg, pl_fault);
    EXPECT_TRUE(clique.ok) << "clique loss=" << loss << ": "
                           << clique.divergence;
    EXPECT_FALSE(clique.packed_lane);
  }
}

// ---- the canary: a mis-mapped arc must be caught and named ---------------

/// LineTopology with exactly one arc's endpoints transposed — the smallest
/// possible topology-mapping bug. Only the mirror runs it.
struct MisMappedLine : core::LineTopology {
  using core::LineTopology::LineTopology;
  [[nodiscard]] constexpr core::ArcEndpoints endpoints(int arc) const {
    core::ArcEndpoints e = core::LineTopology::endpoints(arc);
    if (arc == 0) {
      const int tmp = e.initiator;
      e.initiator = e.responder;
      e.responder = tmp;
    }
    return e;
  }
};
static_assert(core::TopologyLike<MisMappedLine>);

TEST(TopologyDifferential, MisMappedArcIsCaughtAndNamed) {
  // n = 2 directed line: arc 0 is the only drawable arc, so the engines
  // walk the token 0 -> 1 on the first interaction while the corrupted
  // mirror applies (1, 0) and never moves it.
  const TokenMergeModel::Params p{2};
  std::vector<TokenMergeModel::State> init(2);
  init[0].tok = 1;
  FuzzConfig cfg;
  cfg.seed = 7;
  cfg.steps = 64;
  cfg.check_every = 1;
  const auto rep =
      run_differential<TokenMergeModel, TokenMergeModel, core::LineTopology,
                       MisMappedLine>(p, init, cfg, toy_fault);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.divergence.find("E(checker-mirror)"), std::string::npos)
      << "divergence not blamed on the mirror lane: " << rep.divergence;
  EXPECT_NE(rep.divergence.find("agent"), std::string::npos)
      << rep.divergence;
}

}  // namespace
}  // namespace ppsim::verification
