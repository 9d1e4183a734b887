// Scheduler-fault models (omission + biased arc draws) and non-ring
// campaigns: determinism contracts first — same seed ⇒ bit-identical
// trajectories, standalone Runner ⇒ ensemble ring bit-identity, thread-count
// invariance of faulted campaigns — then semantic sanity (loss_p = 1 freezes
// state while steps advance; a zero-weight arc never fires), then full
// recovery campaigns through measure_recovery / run_campaign off the ring.
// Invalid fault configurations throw std::invalid_argument in both engines.
#include "analysis/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "core/ensemble.hpp"
#include "core/runner.hpp"
#include "core/topology.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "verification/toys.hpp"

namespace ppsim::analysis {
namespace {

using verification::TokenMergeModel;

template <typename P, typename Topo>
void expect_same_config(const core::Runner<P, Topo>& a,
                        const core::Runner<P, Topo>& b) {
  ASSERT_EQ(a.steps(), b.steps());
  const auto sa = a.agents();
  const auto sb = b.agents();
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_TRUE(sa[i] == sb[i]) << "agent " << i;
}

core::SchedulerFaults lossy_biased(double loss_p, int arcs) {
  core::SchedulerFaults f;
  f.loss_p = loss_p;
  f.arc_weights.resize(static_cast<std::size_t>(arcs));
  for (int a = 0; a < arcs; ++a)
    f.arc_weights[static_cast<std::size_t>(a)] =
        a % 4 == 0 ? 0.0 : 1.0 + static_cast<double>(a % 3);
  return f;
}

TEST(SchedulerFaults, SameSeedSameTrajectory) {
  const auto p = pl::PlParams::make(12, 4);
  core::Xoshiro256pp cfg_rng(3);
  const auto init = pl::random_config(p, cfg_rng);
  const core::LineTopology topo(p.n);
  const auto faults =
      lossy_biased(0.3, topo.arc_count(pl::PlProtocol::directed));

  core::Runner<pl::PlProtocol, core::LineTopology> r1(p, init, 42);
  core::Runner<pl::PlProtocol, core::LineTopology> r2(p, init, 42);
  r1.set_scheduler_faults(faults);
  r2.set_scheduler_faults(faults);
  r1.run(5000);
  // Chunked differently: trajectories must not depend on batching.
  for (int k = 0; k < 10; ++k) r2.run(500);
  expect_same_config(r1, r2);
}

TEST(SchedulerFaults, FullLossFreezesStateButAdvancesClock) {
  const auto p = pl::PlParams::make(8, 4);
  core::Xoshiro256pp cfg_rng(5);
  const auto init = pl::random_config(p, cfg_rng);
  core::SchedulerFaults faults;
  faults.loss_p = 1.0;
  core::Runner<pl::PlProtocol, core::CliqueTopology> runner(p, init, 9);
  runner.set_scheduler_faults(faults);
  runner.run(1000);
  EXPECT_EQ(runner.steps(), 1000u);  // lost draws still count as steps
  const auto got = runner.agents();
  for (std::size_t i = 0; i < init.size(); ++i)
    EXPECT_TRUE(got[i] == init[i]) << "agent " << i << " mutated under p=1";
}

TEST(SchedulerFaults, ZeroWeightArcNeverFires) {
  // Line of 3 with bias {1, 0}: arc 1 = (1, 2) never drawn, so the token
  // can reach agent 1 but never agent 2.
  const TokenMergeModel::Params p{3};
  std::vector<TokenMergeModel::State> init(3);
  init[0].tok = 1;
  core::SchedulerFaults faults;
  faults.arc_weights = {1.0, 0.0};
  core::Runner<TokenMergeModel, core::LineTopology> runner(p, init, 11);
  runner.set_scheduler_faults(faults);
  for (int k = 0; k < 64; ++k) {
    runner.run(16);
    EXPECT_EQ(runner.agents()[2].tok, 0) << "zero-weight arc fired";
  }
  EXPECT_EQ(runner.agents()[1].tok, 1);  // ... but arc 0 did its job
}

/// Both engines must refuse `bad` with std::invalid_argument (in every build
/// type, not only under assert) and stay fault-free afterwards.
void expect_rejected_by_both_engines(const core::SchedulerFaults& bad) {
  const auto p = pl::PlParams::make(8, 4);
  core::Xoshiro256pp cfg_rng(7);
  const auto init = pl::random_config(p, cfg_rng);
  core::Runner<pl::PlProtocol> runner(p, init, 1);
  EXPECT_THROW(runner.set_scheduler_faults(bad), std::invalid_argument);
  EXPECT_FALSE(runner.scheduler_faults_active());
  core::EnsembleRunner<pl::PlProtocol> ensemble(p, 1);
  ensemble.add_ring(init, 1);
  EXPECT_THROW(ensemble.set_scheduler_faults(bad), std::invalid_argument);
  EXPECT_FALSE(ensemble.scheduler_faults_active());
}

core::SchedulerFaults uniform_weights(int arcs) {
  core::SchedulerFaults f;
  f.arc_weights.assign(static_cast<std::size_t>(arcs), 1.0);
  return f;
}

TEST(SchedulerFaults, RejectsWeightTableOfWrongSize) {
  // P_PL on a ring of 8 is directed: 8 arcs. A longer table would let
  // BiasTable::draw return arc ids past the topology.
  expect_rejected_by_both_engines(uniform_weights(9));
  expect_rejected_by_both_engines(uniform_weights(7));
}

TEST(SchedulerFaults, RejectsLossOutsideUnitInterval) {
  core::SchedulerFaults f;
  f.loss_p = 1.5;
  expect_rejected_by_both_engines(f);
  f.loss_p = -0.25;
  expect_rejected_by_both_engines(f);
}

TEST(SchedulerFaults, RejectsNanLoss) {
  core::SchedulerFaults f;
  f.loss_p = std::numeric_limits<double>::quiet_NaN();
  expect_rejected_by_both_engines(f);
}

TEST(SchedulerFaults, RejectsNegativeWeight) {
  auto f = uniform_weights(8);
  f.arc_weights[3] = -1.0;
  expect_rejected_by_both_engines(f);
}

TEST(SchedulerFaults, RejectsNanWeight) {
  auto f = uniform_weights(8);
  f.arc_weights[5] = std::numeric_limits<double>::quiet_NaN();
  expect_rejected_by_both_engines(f);
}

TEST(SchedulerFaults, RejectsAllZeroWeights) {
  auto f = uniform_weights(8);
  for (double& w : f.arc_weights) w = 0.0;
  expect_rejected_by_both_engines(f);
}

TEST(SchedulerFaults, EnsembleRingBitIdenticalToRunnerUnderFaults) {
  // Per-ring loss streams re-derive from each ring's own seed, so ring r
  // under faults is the standalone Runner with the same seed, bit for bit.
  const auto p = pl::PlParams::make(10, 4);
  const core::CliqueTopology topo(p.n);
  const auto faults =
      lossy_biased(0.2, topo.arc_count(pl::PlProtocol::directed));

  core::EnsembleRunner<pl::PlProtocol, core::CliqueTopology> ensemble(p, 3);
  std::vector<std::vector<pl::PlState>> inits;
  for (int r = 0; r < 3; ++r) {
    core::Xoshiro256pp cfg_rng(100 + static_cast<std::uint64_t>(r));
    inits.push_back(pl::random_config(p, cfg_rng));
    ensemble.add_ring(inits.back(), 500 + static_cast<std::uint64_t>(r));
  }
  ensemble.set_scheduler_faults(faults);
  ensemble.run(4000);
  for (int r = 0; r < 3; ++r) {
    core::Runner<pl::PlProtocol, core::CliqueTopology> solo(
        p, inits[static_cast<std::size_t>(r)],
        500 + static_cast<std::uint64_t>(r));
    solo.set_scheduler_faults(faults);
    solo.run(4000);
    ASSERT_EQ(ensemble.steps(r), solo.steps());
    const auto a = ensemble.agents(r);
    const auto b = solo.agents();
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(a[i] == b[i]) << "ring " << r << " agent " << i;
  }
}

// ---- recovery campaigns off the ring -------------------------------------

/// Token-merge recovery scenario on a line: tokens walk right and merge, so
/// "exactly one token" is reached from any >= 1-token configuration; faults
/// drop extra tokens in; recovery = re-merging down to one.
ScenarioSpec<TokenMergeModel, core::LineTopology> toy_line_scenario(
    TrialPlan plan, double loss_p) {
  ScenarioSpec<TokenMergeModel, core::LineTopology> spec;
  spec.name = "toy_line";
  spec.initial = [](const TokenMergeModel::Params& p,
                    core::Xoshiro256pp& rng) {
    std::vector<TokenMergeModel::State> c(static_cast<std::size_t>(p.n));
    for (auto& s : c) s.tok = static_cast<int>(rng.bounded(2));
    c[0].tok = 1;  // at least one token or the safe set is unreachable
    return c;
  };
  spec.schedule = burst_schedule(2);
  spec.inject = [](core::RingView<TokenMergeModel, core::LineTopology> r,
                   int faults, core::Xoshiro256pp& rng) {
    for (int f = 0; f < faults; ++f) {
      const int idx = static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(r.n())));
      r.set_agent(idx, TokenMergeModel::State{1});
    }
  };
  spec.recovered = [](std::span<const TokenMergeModel::State> c,
                      const TokenMergeModel::Params&) {
    return TokenMergeModel::count_tokens(c) == 1;
  };
  spec.plan = plan;
  spec.sched_faults.loss_p = loss_p;
  return spec;
}

TEST(TopologyCampaign, LineRecoveryUnderOmissionThreadInvariant) {
  TrialPlan plan;
  plan.trials = 12;
  plan.max_steps = 200'000;
  plan.seed_base = 5;
  plan.tag = 77;
  plan.check_every = 16;
  const TokenMergeModel::Params p{8};

  plan.threads = 1;
  const auto serial = measure_recovery<TokenMergeModel, core::LineTopology>(
      p, toy_line_scenario(plan, 0.2));
  EXPECT_EQ(serial.trials, 12);
  EXPECT_EQ(serial.stabilization_failures, 0);
  EXPECT_EQ(serial.recovery_failures, 0);

  for (const int threads : {2, 4}) {
    plan.threads = threads;
    const auto par = measure_recovery<TokenMergeModel, core::LineTopology>(
        p, toy_line_scenario(plan, 0.2));
    EXPECT_EQ(par.raw, serial.raw) << "threads=" << threads;
    EXPECT_EQ(par.stabilization_failures, serial.stabilization_failures);
    EXPECT_EQ(par.recovery_failures, serial.recovery_failures);
  }
}

TEST(TopologyCampaign, EnsembleShardsMatchPerTrialReferenceUnderFaults) {
  // measure_recovery (ensemble-sharded) against the standalone-Runner
  // reference path, trial for trial, with omission faults active.
  TrialPlan plan;
  plan.trials = 8;
  plan.max_steps = 200'000;
  plan.seed_base = 21;
  plan.tag = 99;
  plan.check_every = 16;
  plan.threads = 2;
  const TokenMergeModel::Params p{8};
  const auto spec = toy_line_scenario(plan, 0.25);

  const auto stats =
      measure_recovery<TokenMergeModel, core::LineTopology>(p, spec);
  std::vector<RecoveryTrial> reference;
  for (int t = 0; t < plan.trials; ++t)
    reference.push_back(detail::recovery_trial<TokenMergeModel,
                                               core::LineTopology>(
        p, spec, static_cast<std::uint64_t>(t)));
  const auto folded = detail::fold_recovery(reference);
  EXPECT_EQ(stats.raw, folded.raw);
  EXPECT_EQ(stats.stabilization_failures, folded.stabilization_failures);
  EXPECT_EQ(stats.recovery_failures, folded.recovery_failures);
}

TEST(TopologyCampaign, RunCampaignAcrossTopologyFaultCells) {
  // run_campaign end-to-end on a non-ring topology with both fault models
  // mixed: cells stay decorrelated (distinct tags) and reproducible.
  TrialPlan plan;
  plan.trials = 6;
  plan.max_steps = 150'000;
  plan.seed_base = 33;
  plan.check_every = 16;
  plan.threads = 2;
  const TokenMergeModel::Params p{6};

  std::vector<std::pair<TokenMergeModel::Params,
                        ScenarioSpec<TokenMergeModel, core::LineTopology>>>
      cells;
  for (const double loss : {0.0, 0.2}) {
    plan.tag = campaign_tag(loss > 0.0 ? 2 : 1, p.n, 2);
    auto spec = toy_line_scenario(plan, loss);
    // The second cell additionally biases the draw (never disabling an
    // arc entirely, so the safe set stays reachable).
    if (loss > 0.0) {
      const core::LineTopology topo(p.n);
      const int arcs = topo.arc_count(TokenMergeModel::directed);
      spec.sched_faults.arc_weights.assign(static_cast<std::size_t>(arcs),
                                           1.0);
      spec.sched_faults.arc_weights[0] = 3.0;
    }
    cells.emplace_back(p, std::move(spec));
  }
  const auto results =
      run_campaign<TokenMergeModel, core::LineTopology>(
          std::span<const std::pair<
              TokenMergeModel::Params,
              ScenarioSpec<TokenMergeModel, core::LineTopology>>>(cells));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.stats.trials, plan.trials);
    EXPECT_EQ(r.stats.stabilization_failures, 0);
    EXPECT_EQ(r.stats.recovery_failures, 0);
    EXPECT_EQ(r.faults, 2);
  }
}

TEST(TopologyCampaign, RingDefaultUnchangedByFaultMember) {
  // A default-constructed sched_faults is inactive: the existing ring
  // campaign path must produce the exact same numbers as a spec without
  // the member ever touched (guard against accidental activation).
  const auto p = pl::PlParams::make(16, 4);
  TrialPlan plan;
  plan.trials = 4;
  plan.max_steps = 400'000;
  plan.seed_base = 9;
  plan.tag = 1234;
  plan.threads = 1;
  const auto spec = make_recovery_scenario<pl::PlProtocol>(
      "burst", burst_schedule(2), plan);
  EXPECT_FALSE(spec.sched_faults.active());
  const auto a = measure_recovery<pl::PlProtocol>(p, spec);
  const auto b = measure_recovery<pl::PlProtocol>(p, spec);
  EXPECT_EQ(a.raw, b.raw);
  EXPECT_EQ(a.trials, 4);
}

}  // namespace
}  // namespace ppsim::analysis
