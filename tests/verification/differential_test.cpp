// Cross-engine differential fuzzing: the four runnable Table-1 protocols
// plus the elimination subsystem and the undirected P_OR, replayed through
// Runner::run_unbatched / Runner::run / the one-ring accelerated
// EnsembleRunner / the cross-ring lockstep lane (P_PL) / the checker-adapter
// mirror, with mid-run set_agent fault storms — zero divergences allowed.
// This is the one place the study protocols' engine lanes are compared
// against each other. The bounded smoke below runs in the normal ctest
// matrix (label `fuzz`); DifferentialFuzzLong.* self-skips unless
// PPSIM_FUZZ_LONG is set (the nightly-style run, see README).
#include "verification/differential.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "common/elimination.hpp"
#include "core/env.hpp"
#include "core/rng.hpp"
#include "orientation/coloring.hpp"
#include "orientation/por.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

#include "../isa_levels.hpp"

namespace ppsim::verification {
namespace {

/// A fuzz-size knob: core::env_int's strict parse (a garbled value exits
/// 2), and `fallback` for a value below 1.
int positive_knob(const char* name, int fallback) {
  const int parsed = core::env_int(name, fallback);
  return parsed > 0 ? parsed : fallback;
}

// ---- per-protocol fault/state generators -------------------------------

baselines::ModkState modk_fault(const baselines::ModkParams& p,
                                core::Xoshiro256pp& rng,
                                const baselines::ModkState&, int) {
  return baselines::modk_random_state(p, rng);
}

baselines::FjState fj_fault(const baselines::FjParams& p,
                            core::Xoshiro256pp& rng,
                            const baselines::FjState&, int) {
  return baselines::fj_random_state(p, rng);
}

baselines::Y28State y28_fault(const baselines::Y28Params& p,
                              core::Xoshiro256pp& rng,
                              const baselines::Y28State&, int) {
  return baselines::y28_random_state(p, rng);
}

pl::PlState pl_fault(const pl::PlParams& p, core::Xoshiro256pp& rng,
                     const pl::PlState&, int) {
  return pl::random_state(p, rng);
}

common::ElimAgentState elim_fault(
    const common::EliminationProtocol::Params& p, core::Xoshiro256pp& rng,
    const common::ElimAgentState&, int) {
  return common::EliminationProtocol::unpack_state(
      static_cast<std::size_t>(
          rng.bounded(common::EliminationProtocol::num_states(p))),
      p);
}

/// P_OR carries its coloring as read-only *input* variables: a fault may
/// scramble the writable dir/strong pair (dir over the full palette,
/// garbage directions included) but must preserve the inputs of the agent
/// it hits — which is why fault generators receive the current state.
orient::OrState por_fault(const orient::OrParams& p,
                          core::Xoshiro256pp& rng,
                          const orient::OrState& current, int) {
  orient::OrState s = current;
  s.dir = static_cast<std::uint8_t>(
      rng.bounded(static_cast<std::uint64_t>(p.xi)));
  s.strong = static_cast<std::uint8_t>(rng.bounded(2));
  return s;
}

std::vector<common::ElimAgentState> elim_random_config(
    const common::EliminationProtocol::Params& p, core::Xoshiro256pp& rng) {
  std::vector<common::ElimAgentState> c(static_cast<std::size_t>(p.n));
  for (auto& s : c)
    s = common::EliminationProtocol::unpack_state(
        static_cast<std::size_t>(
            rng.bounded(common::EliminationProtocol::num_states(p))),
        p);
  return c;
}

// ---- the smoke matrix (ctest label: fuzz) ------------------------------

TEST(Differential, ModkAllFiveLanesWithFaultStorms) {
  const auto p = baselines::ModkParams::make(5, 2);
  core::Xoshiro256pp cfg_rng(17);
  FuzzConfig cfg;
  cfg.seed = 1701;
  cfg.steps = 8192;
  cfg.check_every = 97;
  cfg.fault_storms = 4;
  cfg.faults_per_storm = 3;
  const auto rep = run_differential<baselines::Modk, baselines::ModkModel>(
      p, baselines::modk_random_config(p, cfg_rng), cfg, modk_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_TRUE(rep.packed_lane);  // in-domain faults keep the table active
  EXPECT_TRUE(rep.mirror_lane);  // 48^5 ids fit comfortably
  EXPECT_EQ(rep.interactions, cfg.steps);
  // Every requested storm runs (storms drawn at the final checkpoint
  // inject and re-compare there), so the fault count is exact.
  EXPECT_EQ(rep.faults, static_cast<std::uint64_t>(cfg.fault_storms *
                                                   cfg.faults_per_storm));
}

TEST(Differential, FischerJiangOracleLanes) {
  // Oracle protocol: no packed table (the oracle context is part of the
  // transition input) and no checker adapter — lanes A and B still must agree
  // on every interaction, census and oracle clock.
  const auto p = baselines::FjParams::make(6);
  core::Xoshiro256pp cfg_rng(23);
  FuzzConfig cfg;
  cfg.seed = 2038;
  cfg.steps = 8192;
  cfg.check_every = 64;
  cfg.fault_storms = 3;
  cfg.faults_per_storm = 2;
  const auto rep = run_differential<baselines::FischerJiang>(
      p, baselines::fj_random_config(p, cfg_rng), cfg, fj_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_FALSE(rep.packed_lane);
  EXPECT_FALSE(rep.mirror_lane);
}

TEST(Differential, Yokota28Lanes) {
  const auto p = baselines::Y28Params::make(6);
  core::Xoshiro256pp cfg_rng(29);
  FuzzConfig cfg;
  cfg.seed = 31337;
  cfg.steps = 8192;
  cfg.check_every = 113;
  cfg.fault_storms = 3;
  cfg.faults_per_storm = 2;
  const auto rep = run_differential<baselines::Yokota28>(
      p, baselines::y28_random_config(p, cfg_rng), cfg, y28_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

// The P_PL word lanes (D and G) and their canary run at every ISA level
// the CPU supports, so each clone of both word loops is fuzzed here.
using DifferentialWordLanes = testing_isa::IsaLevelTest;
PPSIM_INSTANTIATE_ISA_LEVELS(DifferentialWordLanes);

TEST_P(DifferentialWordLanes, PlProtocolLanes) {
  const auto p = pl::PlParams::make(6, 4);
  core::Xoshiro256pp cfg_rng(31);
  FuzzConfig cfg;
  cfg.seed = 404;
  cfg.steps = 6144;
  cfg.check_every = 128;
  cfg.fault_storms = 3;
  cfg.faults_per_storm = 2;
  const auto rep = run_differential<pl::PlProtocol>(
      p, pl::random_config(p, cfg_rng), cfg, pl_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  // Lane D holds the word lane (in-domain storms keep it active), but at
  // n = 6, below kWordCrossoverN, its one ring advances on the scalar loop.
  // Lane G: ring 0 advanced as a column of the cross-ring vector-RNG
  // driver, lockstep with decoy rings, still bit-identical to lane A. At
  // level 0 there is no word lane: lane D is skipped as a duplicate of B,
  // and lane G ran the scalar loop and still matched lane A.
  const bool engaged = core::word_isa_level() >= 1;
  EXPECT_EQ(rep.packed_lane, engaged);
  EXPECT_EQ(rep.lockstep_lane, engaged);
}

TEST_P(DifferentialWordLanes, PlPackedLanesAtLargerRingsWithStorms) {
  // Lane D (one ring) runs the grouped SIMD driver where runs_word_driver()
  // holds (from kWordCrossoverN up, at /avx512 and /avx2) and the scalar
  // loop otherwise; lane G runs cross-ring lockstep at every n at /avx512
  // and /avx2. At /scalar neither has a word lane: D is skipped and G runs
  // the scalar loop.
  // The grouped driver cuts a group into several masked runs whenever
  // two of its draws share an agent: at the crossover (the smallest n
  // where it runs) half the 8-draw groups cut, at n = 257 29% do, and at
  // n = 1024 92% run as one full-width run. Storms on. The
  // safe starts (pl::make_safe_config) cover the converged regime, where
  // the leader census holds at 1 until a storm breaks it.
  constexpr int kCrossover =
      core::EnsembleRunner<pl::PlProtocol>::kWordCrossoverN;
  for (const auto& [n, safe] :
       {std::pair{16, false}, std::pair{64, false},
        std::pair{kCrossover, false}, std::pair{257, false},
        std::pair{1024, false},
        std::pair{32, true}, std::pair{64, true}}) {
    const auto p = pl::PlParams::make(n, 4);
    core::Xoshiro256pp cfg_rng(600 + n);
    FuzzConfig cfg;
    cfg.seed = 7000 + static_cast<std::uint64_t>(n);
    cfg.steps = 8192;
    cfg.check_every = 256;
    cfg.fault_storms = 3;
    cfg.faults_per_storm = 2;
    const auto rep = run_differential<pl::PlProtocol>(
        p, safe ? pl::make_safe_config(p) : pl::random_config(p, cfg_rng),
        cfg, pl_fault);
    EXPECT_TRUE(rep.ok) << "n=" << n << " safe=" << safe << ": "
                        << rep.divergence;
    const bool engaged = core::word_isa_level() >= 1;
    EXPECT_EQ(rep.packed_lane, engaged) << n;
    EXPECT_EQ(rep.lockstep_lane, engaged) << n;
  }
}

TEST(Differential, PlOutOfDomainFaultDropsPackedLanesExactly) {
  // A fault outside the declared variable domains must fail the pack
  // round-trip, drop the word lanes (D, G) to the generic path, and still
  // diverge nowhere.
  const auto p = pl::PlParams::make(12, 4);
  core::Xoshiro256pp cfg_rng(77);
  FuzzConfig cfg;
  cfg.seed = 31;
  cfg.steps = 4096;
  cfg.check_every = 64;
  cfg.fault_storms = 2;
  cfg.faults_per_storm = 1;
  const auto garbage_fault = [](const pl::PlParams&, core::Xoshiro256pp& rng,
                                const pl::PlState&, int) {
    pl::PlState s;
    s.dist = static_cast<std::uint16_t>(40000 + rng.bounded(1000));
    s.clock = 60000;  // far outside [0, kappa_max]
    return s;
  };
  const auto rep = run_differential<pl::PlProtocol>(
      p, pl::random_config(p, cfg_rng), cfg, garbage_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_FALSE(rep.packed_lane);    // permanently back on the generic path
  EXPECT_FALSE(rep.lockstep_lane);  // same for the lockstep lane
}

/// P_PL whose vector kernel entries (x4, x8: every engine lane's only
/// kernel calls) flip the responder's b on every lane.
struct BrokenWordPl : pl::PlProtocol {
  static void sabotage(std::uint64_t& wr) { wr ^= 0x2; }  // flip r.b
  // always_inline, like PlProtocol's entries: the clone's broadcast
  // policy only compiles inside the clone.
  template <typename B>
  [[gnu::always_inline]] static inline void apply_word_x4(
      core::WordVec& l, core::WordVec& r, const WordKernelConsts& k,
      B bcast) noexcept {
    pl::apply_word_x4(l, r, k, bcast);
    for (int j = 0; j < 4; ++j) sabotage(r[j]);
  }
  template <typename B>
  [[gnu::always_inline]] static inline void apply_word_x8(
      core::WordVec8& l, core::WordVec8& r, const WordKernelConsts& k,
      B bcast) noexcept {
    pl::apply_word_x8(l, r, k, bcast);
    for (int j = 0; j < 8; ++j) sabotage(r[j]);
  }
};

TEST_P(DifferentialWordLanes, BrokenWordKernelIsDetected) {
  // The canary for the packed fast path itself: vector kernel entries
  // (x4, x8: every engine lane's only kernel calls) that drift from the
  // scalar transition by a single bit must be caught at the first
  // checkpoint — equivalence is certified, not assumed. It is also the
  // canary for the lane-parallel (vector-RNG) cross-ring driver: at n = 7
  // and 8 lane G's six rings are a full and a padded x4 group, or one
  // padded x8 group, so any desync between a vector column and its scalar
  // stream (RNG included) surfaces there and is named as the lockstep lane.
  static_assert(core::EnsembleRunner<BrokenWordPl>::kWordable);
  // The scalar lanes A and B are the truth. Where runs_word_driver() fails
  // (below kWordCrossoverN) the one-ring lane D runs the scalar loop too,
  // so only the lockstep lane G runs the broken kernel and the divergence
  // names it. Otherwise the kernel drives lanes D and G, and lane D is
  // compared first. At level 0 no word kernel runs in any lane, so there
  // is nothing to detect: every lane runs the scalar loop and must agree.
  const bool engaged = core::word_isa_level() >= 1;
  constexpr int kCrossover =
      core::EnsembleRunner<BrokenWordPl>::kWordCrossoverN;
  struct Case {
    int n;
    std::uint64_t config_seed;
    std::uint64_t fuzz_seed;
    const char* lane;
  };
  for (const Case& c : {Case{7, 6, 17, "G(ensemble-lockstep)"},
                        Case{8, 5, 13, "G(ensemble-lockstep)"},
                        Case{kCrossover, 5, 13, "D(ensemble-packed)"}}) {
    const auto p = pl::PlParams::make(c.n, 4);
    core::Xoshiro256pp cfg_rng(c.config_seed);
    FuzzConfig cfg;
    cfg.seed = c.fuzz_seed;
    cfg.steps = 2048;
    cfg.check_every = 32;
    const auto rep = run_differential<BrokenWordPl>(
        p, pl::random_config(p, cfg_rng), cfg, pl_fault);
    if (!engaged) {
      EXPECT_TRUE(rep.ok) << "n=" << c.n << ": " << rep.divergence;
      EXPECT_FALSE(rep.lockstep_lane) << "n=" << c.n;
      continue;
    }
    EXPECT_FALSE(rep.ok) << "n=" << c.n;
    EXPECT_NE(rep.divergence.find(c.lane), std::string::npos)
        << "n=" << c.n << ": " << rep.divergence;
  }
}

TEST(Differential, EliminationPackedAndMirrorLanes) {
  const common::EliminationProtocol::Params p{6};
  core::Xoshiro256pp cfg_rng(37);
  FuzzConfig cfg;
  cfg.seed = 90210;
  cfg.steps = 8192;
  cfg.check_every = 101;
  cfg.fault_storms = 4;
  cfg.faults_per_storm = 3;
  const auto rep =
      run_differential<common::EliminationProtocol,
                       common::EliminationProtocol>(
          p, elim_random_config(p, cfg_rng), cfg, elim_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_TRUE(rep.packed_lane);
  EXPECT_TRUE(rep.mirror_lane);
}

TEST(Differential, PorUndirectedPackedAndMirrorLanes) {
  // The undirected cell: 2n arcs, orientation-flip scheduling, P_OR's
  // packed table and the position-pinned PorModel mirror all in one run.
  const auto p = orient::OrParams::make(6);
  core::Xoshiro256pp cfg_rng(41);
  FuzzConfig cfg;
  cfg.seed = 555;
  cfg.steps = 8192;
  cfg.check_every = 89;
  cfg.fault_storms = 4;
  cfg.faults_per_storm = 2;
  const auto rep = run_differential<orient::Por, orient::PorModel>(
      p, orient::or_config(p, cfg_rng, /*random_dir=*/true), cfg, por_fault);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_TRUE(rep.packed_lane);
  EXPECT_TRUE(rep.mirror_lane);
}

TEST(Differential, BrokenCheckerAdapterIsDetected) {
  // A mirror whose apply drifts from the protocol (here: leader labels not
  // pinned to 0) must be flagged, proving the harness can actually see a
  // divergence — the fuzz matrix is only as good as its teeth.
  struct BrokenModkMirror : baselines::ModkModel {
    static void apply(State& l, State& r, const Params& p) noexcept {
      baselines::Modk::apply(l, r, p);
      if (r.leader == 1) r.lab = 1;  // sabotage: un-pin the leader label
    }
  };
  const auto p = baselines::ModkParams::make(5, 2);
  core::Xoshiro256pp cfg_rng(43);
  FuzzConfig cfg;
  cfg.seed = 77;
  cfg.steps = 4096;
  cfg.check_every = 32;
  const auto rep = run_differential<baselines::Modk, BrokenModkMirror>(
      p, baselines::modk_random_config(p, cfg_rng), cfg, modk_fault);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.divergence.find("E(checker-mirror)"), std::string::npos)
      << rep.divergence;
  EXPECT_NE(rep.divergence.find("lab="), std::string::npos)
      << rep.divergence;  // human-readable states in the report
}

// ---- schedule-replay determinism (the experiment.hpp contract) ---------

TEST(Differential, SameSeedReproducesBitIdenticalReports) {
  const auto p = baselines::ModkParams::make(7, 2);
  core::Xoshiro256pp rng_a(51);
  core::Xoshiro256pp rng_b(51);
  FuzzConfig cfg;
  cfg.seed = 999;
  cfg.steps = 4096;
  cfg.check_every = 53;
  cfg.fault_storms = 3;
  cfg.faults_per_storm = 2;
  const auto rep_a = run_differential<baselines::Modk, baselines::ModkModel>(
      p, baselines::modk_random_config(p, rng_a), cfg, modk_fault);
  const auto rep_b = run_differential<baselines::Modk, baselines::ModkModel>(
      p, baselines::modk_random_config(p, rng_b), cfg, modk_fault);
  ASSERT_TRUE(rep_a.ok) << rep_a.divergence;
  EXPECT_EQ(rep_a.digest, rep_b.digest);
  EXPECT_EQ(rep_a.final_digest, rep_b.final_digest);
  EXPECT_EQ(rep_a.faults, rep_b.faults);
  EXPECT_EQ(rep_a.checkpoints, rep_b.checkpoints);
}

TEST(Differential, CheckpointGranularityDoesNotChangeTheTrajectory) {
  // Without storms, checkpoints only *read* state, so the configuration
  // after k interactions must not depend on check_every — the quantized
  // hitting-time contract that lets run_until and
  // measure_convergence_parallel pick their granularity freely.
  const auto p = baselines::FjParams::make(8);
  std::vector<std::uint64_t> final_digests;
  for (const std::uint64_t check_every : {1ull, 7ull, 64ull, 1000ull}) {
    core::Xoshiro256pp cfg_rng(61);
    FuzzConfig cfg;
    cfg.seed = 4242;
    cfg.steps = 4096;
    cfg.check_every = check_every;
    const auto rep = run_differential<baselines::FischerJiang>(
        p, baselines::fj_random_config(p, cfg_rng), cfg, fj_fault);
    ASSERT_TRUE(rep.ok) << "check_every=" << check_every << ": "
                        << rep.divergence;
    EXPECT_EQ(rep.interactions, cfg.steps);
    final_digests.push_back(rep.final_digest);
  }
  for (std::size_t i = 1; i < final_digests.size(); ++i)
    EXPECT_EQ(final_digests[i], final_digests[0]) << "granularity " << i;
}

TEST(Differential, CampaignIsThreadCountInvariant) {
  const auto p = baselines::ModkParams::make(5, 2);
  FuzzConfig base;
  base.seed = 8086;
  base.steps = 2048;
  base.check_every = 41;
  base.fault_storms = 2;
  base.faults_per_storm = 2;
  const auto make_init = [](const baselines::ModkParams& pp,
                            core::Xoshiro256pp& rng) {
    return baselines::modk_random_config(pp, rng);
  };
  const auto serial =
      run_differential_campaign<baselines::Modk, baselines::ModkModel>(
          p, base, /*trials=*/6, /*threads=*/1, make_init, modk_fault);
  const auto parallel =
      run_differential_campaign<baselines::Modk, baselines::ModkModel>(
          p, base, /*trials=*/6, /*threads=*/3, make_init, modk_fault);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_TRUE(serial[t].ok) << "trial " << t << ": "
                              << serial[t].divergence;
    EXPECT_EQ(serial[t].digest, parallel[t].digest) << "trial " << t;
    EXPECT_EQ(serial[t].final_digest, parallel[t].final_digest)
        << "trial " << t;
    EXPECT_EQ(serial[t].faults, parallel[t].faults) << "trial " << t;
  }
}

// ---- the nightly-style long run (gated; ctest: fuzz;long) --------------

TEST(DifferentialFuzzLong, NightlySweep) {
  if (std::getenv("PPSIM_FUZZ_LONG") == nullptr) {
    GTEST_SKIP() << "set PPSIM_FUZZ_LONG=1 (and optionally "
                    "PPSIM_FUZZ_TRIALS / PPSIM_FUZZ_STEPS) for the long run";
  }
  const int trials = positive_knob("PPSIM_FUZZ_TRIALS", 16);
  const auto steps =
      static_cast<std::uint64_t>(positive_knob("PPSIM_FUZZ_STEPS", 1 << 18));
  FuzzConfig base;
  base.seed = 0xF0221;
  base.steps = steps;
  base.check_every = 251;
  base.fault_storms = 8;
  base.faults_per_storm = 4;

  const auto check_all = [&](const auto& reports, const char* what) {
    for (std::size_t t = 0; t < reports.size(); ++t) {
      EXPECT_TRUE(reports[t].ok)
          << what << " trial " << t << ": " << reports[t].divergence;
    }
  };

  check_all(
      run_differential_campaign<baselines::Modk, baselines::ModkModel>(
          baselines::ModkParams::make(9, 2), base, trials, 0,
          [](const baselines::ModkParams& pp, core::Xoshiro256pp& rng) {
            return baselines::modk_random_config(pp, rng);
          },
          modk_fault),
      "modk");
  check_all(run_differential_campaign<baselines::FischerJiang>(
                baselines::FjParams::make(12), base, trials, 0,
                [](const baselines::FjParams& pp, core::Xoshiro256pp& rng) {
                  return baselines::fj_random_config(pp, rng);
                },
                fj_fault),
            "fischer_jiang");
  check_all(run_differential_campaign<baselines::Yokota28>(
                baselines::Y28Params::make(12), base, trials, 0,
                [](const baselines::Y28Params& pp, core::Xoshiro256pp& rng) {
                  return baselines::y28_random_config(pp, rng);
                },
                y28_fault),
            "yokota28");
  check_all(run_differential_campaign<pl::PlProtocol>(
                pl::PlParams::make(12, 4), base, trials, 0,
                [](const pl::PlParams& pp, core::Xoshiro256pp& rng) {
                  return pl::random_config(pp, rng);
                },
                pl_fault),
            "P_PL");
  // At the crossover lane D runs the single-ring word driver
  // (WordGroupDriver::run_block) on an AVX2 or AVX-512 CPU; at n = 12 it
  // runs the scalar loop.
  check_all(run_differential_campaign<pl::PlProtocol>(
                pl::PlParams::make(
                    core::EnsembleRunner<pl::PlProtocol>::kWordCrossoverN, 4),
                base, trials, 0,
                [](const pl::PlParams& pp, core::Xoshiro256pp& rng) {
                  return pl::random_config(pp, rng);
                },
                pl_fault),
            "P_PL at the word crossover");
  check_all(
      run_differential_campaign<common::EliminationProtocol,
                                common::EliminationProtocol>(
          common::EliminationProtocol::Params{12}, base, trials, 0,
          elim_random_config, elim_fault),
      "elimination");
  check_all(run_differential_campaign<orient::Por, orient::PorModel>(
                orient::OrParams::make(9), base, trials, 0,
                [](const orient::OrParams& pp, core::Xoshiro256pp& rng) {
                  return orient::or_config(pp, rng, true);
                },
                por_fault),
            "P_OR");
}

}  // namespace
}  // namespace ppsim::verification
