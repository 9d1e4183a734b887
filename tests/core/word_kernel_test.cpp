// The word-kernel engine lanes (core::WordGroupDriver wired into
// EnsembleRunner, the only accelerated engine) against Runner's scalar
// reference path: one ring and nine rings (lockstep groups plus a leftover
// ring) across the crossover and the small-c1 layouts, padded partial
// lockstep groups at every ring count up to 17, the ISA level an ensemble
// keeps from its construction, fault storms
// (in-domain fast path and the documented fall-back-to-generic on
// out-of-domain states), capacity-probe gating, run_until_each, and
// thread-count byte-identity of the differential campaign driver; and the
// single-ring driver's run cuts against one-at-a-time apply_word_one. Every
// word-lane test runs at each ISA level the CPU supports (isa_levels.hpp).
// The differential harness (lanes D and G) fuzzes the same lanes per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/protocol.hpp"
#include "verification/differential.hpp"

#include "../isa_levels.hpp"

namespace ppsim {
namespace {

using core::EnsembleRunner;
using core::Runner;
using pl::PlParams;
using pl::PlProtocol;
using pl::PlState;

static_assert(EnsembleRunner<PlProtocol>::kWordable,
              "P_PL must satisfy the word-kernel concept");
static_assert(!EnsembleRunner<PlProtocol>::kPackable,
              "P_PL's state space must be far beyond the LUT lane");

void expect_ring_same(const Runner<PlProtocol>& ref,
                      EnsembleRunner<PlProtocol>& ens, int r,
                      const char* what) {
  ASSERT_EQ(ref.steps(), ens.steps(r)) << what;
  ASSERT_EQ(ref.leader_count(), ens.leader_count(r)) << what;
  ASSERT_EQ(ref.last_leader_change(), ens.last_leader_change(r)) << what;
  const auto sa = ref.agents();
  const auto sb = ens.agents(r);
  for (int i = 0; i < ref.n(); ++i)
    ASSERT_EQ(sa[i], sb[i]) << what << " ring " << r << " agent " << i;
}

using WordKernelIsa = testing_isa::IsaLevelTest;
PPSIM_INSTANTIATE_ISA_LEVELS(WordKernelIsa);

/// A span-only predicate (no census gate, no word view): every check
/// reads agents(r).
bool unique_leader(std::span<const PlState> c, const PlParams&) {
  int leaders = 0;
  for (const auto& s : c) leaders += s.leader == 1 ? 1 : 0;
  return leaders == 1;
}

TEST_P(WordKernelIsa, WordPathMatchesUnbatchedReference) {
  // A ring that advances alone (one ring, or a leftover of run()'s lockstep
  // groups) runs the grouped driver's one entry, WordGroupDriver::run_block,
  // on its words where runs_word_driver() holds (from kWordCrossoverN up)
  // and the scalar loop on its States otherwise; lockstep rings always own
  // their words. At level 0 there is no word lane: no ring ever leaves
  // kStates. Faults go into whichever copy owns the ring, before anything
  // unpacks it, so set_agent's word-owned path (States stay stale) and
  // State-owned path both run. The multi-ring variant ends with an
  // out-of-domain injection into a word-owned ring while leftover rings
  // own their States: the lane drops without overwriting them. The
  // small-c1 layouts (16, 3) and (64, 1) pack into at most 32 bits and run
  // on the same u64 word lane.
  constexpr int kCrossover = EnsembleRunner<PlProtocol>::kWordCrossoverN;
  for (const auto& [n, c1] :
       {std::pair{4, 4}, std::pair{16, 4}, std::pair{16, 3}, std::pair{64, 4},
        std::pair{64, 1}, std::pair{257, 4}, std::pair{kCrossover - 1, 4},
        std::pair{kCrossover, 4}, std::pair{1024, 4}}) {
    const bool engaged = core::word_isa_level() >= 1;
    const bool alone_on_words = engaged && n >= kCrossover;
    // Nine rings leave one leftover at both lockstep widths (8 + 1 and
    // 4 + 4 + 1): too few for a padded group, so it advances alone.
    for (const int rings : {1, 9}) {
      const auto p = PlParams::make(n, c1);
      std::vector<Runner<PlProtocol>> refs;  // scalar reference per ring
      EnsembleRunner<PlProtocol> word(p, rings);
      for (int r = 0; r < rings; ++r) {
        core::Xoshiro256pp cfg(900 + n + 31 * r);
        const auto init = pl::random_config(p, cfg);
        refs.emplace_back(p, init, 42 + r);
        word.add_ring(init, 42 + static_cast<std::uint64_t>(r));
      }
      ASSERT_EQ(word.word_kernel_mode(), engaged);
      ASSERT_EQ(word.runs_word_driver(), alone_on_words);
      const std::string what = "n=" + std::to_string(n) +
                               " c1=" + std::to_string(c1) +
                               " rings=" + std::to_string(rings);
      core::Xoshiro256pp faults(77);
      int mirror_faults = 0;
      int state_faults = 0;
      for (int round = 0; round < 6; ++round) {
        const std::uint64_t k = 500 + 37 * round;
        for (auto& ref : refs) ref.run_unbatched(k);
        word.run(k);
        if (rings == 1) {
          EXPECT_EQ(word.ring_owner(0), alone_on_words
                                            ? core::RingOwner::kMirror
                                            : core::RingOwner::kStates)
              << what;
        }
        if (!engaged) {
          for (int r = 0; r < rings; ++r)
            EXPECT_EQ(word.ring_owner(r), core::RingOwner::kStates) << what;
        }
        // In-domain fault storm through both engines' set_agent.
        for (int f = 0; f < 3 * rings; ++f) {
          const int r = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(rings)));
          const int idx = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(n)));
          const PlState s = pl::random_state(p, faults);
          (word.ring_owner(r) == core::RingOwner::kMirror ? mirror_faults
                                                          : state_faults)++;
          refs[static_cast<std::size_t>(r)].set_agent(idx, s);
          word.set_agent(r, idx, s);
        }
        for (int r = 0; r < rings; ++r)
          expect_ring_same(refs[static_cast<std::size_t>(r)], word, r,
                           what.c_str());
      }
      EXPECT_EQ(word.word_kernel_mode(), engaged) << what;  // in-domain
      if (engaged && (rings > 1 || alone_on_words)) {
        EXPECT_GT(mirror_faults, 0) << what;
      }
      if (!alone_on_words) {
        EXPECT_GT(state_faults, 0) << what;
      }
      if (rings == 1) continue;
      // Out of the word domain, into a word-owned ring while the leftovers
      // own their States (!alone_on_words); at level 0 every ring owns its
      // States, and the injection goes into ring 0.
      for (auto& ref : refs) ref.run_unbatched(300);
      word.run(300);
      int target = engaged ? -1 : 0;
      int state_owned = 0;
      for (int r = 0; r < rings; ++r) {
        if (word.ring_owner(r) == core::RingOwner::kMirror) target = r;
        if (word.ring_owner(r) == core::RingOwner::kStates) ++state_owned;
      }
      ASSERT_GE(target, 0) << what;
      if (!alone_on_words) {
        EXPECT_GT(state_owned, 0) << what;
      }
      PlState bad;
      bad.token_b = pl::Token{1, 7, 0};  // value outside {0, 1}
      refs[static_cast<std::size_t>(target)].set_agent(3 % n, bad);
      word.set_agent(target, 3 % n, bad);
      EXPECT_FALSE(word.word_kernel_mode()) << what;
      for (auto& ref : refs) ref.run_unbatched(400);
      word.run(400);
      for (int r = 0; r < rings; ++r)
        expect_ring_same(refs[static_cast<std::size_t>(r)], word, r,
                         what.c_str());
    }
  }
}

TEST_P(WordKernelIsa, PaddedPartialGroupsMatchRunners) {
  // Ring counts 1..17 leave every remainder modulo both lockstep widths:
  // a last group at least half full runs padded in lockstep (its rings end
  // word-owned), a smaller one runs the scalar loop at these n (its rings
  // end State-owned). At level 0 every ring runs the scalar loop. Every
  // ring must equal its per-trial Runner through run(k), run_until_each
  // and set_agent storms between them.
  const bool engaged = core::word_isa_level() >= 1;
  const int G = EnsembleRunner<PlProtocol>::lockstep_lanes();
  static_assert(64 < EnsembleRunner<PlProtocol>::kWordCrossoverN);
  for (const int n : {16, 64}) {
    const auto p = PlParams::make(n, 4);
    for (int rings = 1; rings <= 17; ++rings) {
      const std::string what =
          "n=" + std::to_string(n) + " rings=" + std::to_string(rings);
      std::vector<Runner<PlProtocol>> refs;
      EnsembleRunner<PlProtocol> ens(p, rings);
      for (int r = 0; r < rings; ++r) {
        core::Xoshiro256pp cfg(7000 + 97 * n + r);
        const auto init = pl::random_config(p, cfg);
        const auto seed = static_cast<std::uint64_t>(500 * n + r);
        refs.emplace_back(p, init, seed);
        ens.add_ring(init, seed);
      }
      const int rest = rings % G;
      const int scalar_rings = !engaged ? rings : 2 * rest >= G ? 0 : rest;
      core::Xoshiro256pp faults(31 + static_cast<std::uint64_t>(rings));
      const auto storm = [&] {
        for (int f = 0; f < 2 * rings; ++f) {
          const int r = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(rings)));
          const int idx = static_cast<int>(
              faults.bounded(static_cast<std::uint64_t>(n)));
          const PlState s = pl::random_state(p, faults);
          refs[static_cast<std::size_t>(r)].set_agent(idx, s);
          ens.set_agent(r, idx, s);
        }
      };
      const auto expect_all_same = [&](const char* when) {
        for (int r = 0; r < rings; ++r)
          expect_ring_same(refs[static_cast<std::size_t>(r)], ens, r,
                           (what + " " + when).c_str());
      };
      for (int round = 0; round < 3; ++round) {
        const std::uint64_t k = 301 + 53 * static_cast<std::uint64_t>(round);
        for (auto& ref : refs) ref.run(k);
        ens.run(k);
        int state_owned = 0;
        for (int r = 0; r < rings; ++r)
          state_owned += ens.ring_owner(r) == core::RingOwner::kStates;
        EXPECT_EQ(state_owned, scalar_rings) << what;
        storm();
        expect_all_same("run");
      }
      for (int round = 0; round < 2; ++round) {
        const std::uint64_t max_steps = 6000;
        const std::uint64_t check_every = 40;
        const auto hits = ens.run_until_each(unique_leader, max_steps,
                                             check_every);
        for (int r = 0; r < rings; ++r) {
          const auto want = refs[static_cast<std::size_t>(r)].run_until(
              unique_leader, max_steps, check_every);
          ASSERT_EQ(hits[static_cast<std::size_t>(r)],
                    want.value_or(EnsembleRunner<PlProtocol>::npos))
              << what << " ring " << r;
        }
        storm();
        expect_all_same("run_until_each");
      }
      EXPECT_EQ(ens.word_kernel_mode(), engaged) << what;
    }
  }
}

TEST_P(WordKernelIsa, EnsembleKeepsTheLevelItWasBuiltAt) {
  // The word ISA level belongs to the ensemble: its constructor reads it
  // once, and cap_isa_level afterwards changes nothing the ensemble runs.
  // Built at this test's level and run at level 0, then built at level 0
  // and run at the CPU's own level. Five rings at n = 16 tell the lockstep
  // widths apart: one padded group of 8 lanes (no ring State-owned), or a
  // group of 4 plus a leftover on the scalar loop (one), or no word lane
  // (all five).
  const int level = GetParam();
  const auto p = PlParams::make(16, 4);
  constexpr int kRings = 5;
  for (const auto& [built_at, run_at] :
       {std::pair{level, 0}, std::pair{0, testing_isa::kTopIsaLevel}}) {
    core::cap_isa_level(built_at);
    std::vector<Runner<PlProtocol>> refs;
    EnsembleRunner<PlProtocol> ens(p, kRings);
    for (int r = 0; r < kRings; ++r) {
      core::Xoshiro256pp cfg(8100 + r);
      const auto init = pl::random_config(p, cfg);
      refs.emplace_back(p, init, 61 + r);
      ens.add_ring(init, 61 + static_cast<std::uint64_t>(r));
    }
    core::cap_isa_level(run_at);
    const std::string what = "built at level " + std::to_string(built_at);
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t k = 211 + 29 * static_cast<std::uint64_t>(round);
      for (auto& ref : refs) ref.run(k);
      ens.run(k);
      int state_owned = 0;
      for (int r = 0; r < kRings; ++r)
        state_owned += ens.ring_owner(r) == core::RingOwner::kStates;
      EXPECT_EQ(state_owned, built_at == 2 ? 0 : built_at == 1 ? 1 : kRings)
          << what;
      for (int r = 0; r < kRings; ++r)
        expect_ring_same(refs[static_cast<std::size_t>(r)], ens, r,
                         what.c_str());
    }
    EXPECT_EQ(ens.word_kernel_mode(), built_at >= 1) << what;
  }
}

TEST(WordKernelEnsemble, CapacityExceededKeepsScalarPath) {
  // psi_slack blows the 64-bit layout; the capacity probe must refuse and
  // the ensemble must never activate the word lane (and still be exact).
  const auto p = PlParams::make(8, 32, /*psi_slack=*/5000);
  EXPECT_FALSE(pl::PackedLayout::make(p).fits());
  // All-zero initial configuration: make_safe_config's segment-ID modulus
  // (1 << psi) has no 64-bit representation at this psi, and the protocol
  // accepts any configuration anyway.
  const std::vector<PlState> init(static_cast<std::size_t>(p.n));
  EnsembleRunner<PlProtocol> ens(p, 1);
  ens.add_ring(init, 1);
  EXPECT_FALSE(ens.word_kernel_mode());
  Runner<PlProtocol> r(p, init, 1);
  Runner<PlProtocol> ref(p, init, 1);
  r.run(200);
  ens.run(200);
  ref.run_unbatched(200);
  expect_ring_same(ref, ens, 0, "capacity-refused ensemble");
  ASSERT_EQ(r.steps(), ref.steps());
  ASSERT_EQ(r.leader_count(), ref.leader_count());
  ASSERT_EQ(r.last_leader_change(), ref.last_leader_change());
  for (int i = 0; i < p.n; ++i) ASSERT_EQ(r.agent(i), ref.agent(i));
}

TEST_P(WordKernelIsa, RunUntilEachMatchesRunnerRunUntil) {
  const auto p = PlParams::make(16, 4);
  const int R = 10;
  EnsembleRunner<PlProtocol> ens(p, R);
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(400 + t);
    const auto init = pl::random_config(p, cfg);
    ens.add_ring(init, 4000 + t);
    refs.emplace_back(p, init, 4000 + t);
  }
  const std::uint64_t max_steps = 200000;
  const auto hits = ens.run_until_each(unique_leader, max_steps, 64);
  for (int t = 0; t < R; ++t) {
    const auto want = refs[static_cast<std::size_t>(t)].run_until(
        unique_leader, max_steps, 64);
    if (want.has_value()) {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)], *want) << "ring " << t;
    } else {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)],
                EnsembleRunner<PlProtocol>::npos)
          << "ring " << t;
    }
  }
}

TEST_P(WordKernelIsa, DifferentialReportsByteIdenticalAcrossThreads) {
  const auto p = PlParams::make(24, 4);
  verification::FuzzConfig cfg;
  cfg.steps = 2048;
  cfg.check_every = 64;
  cfg.fault_storms = 2;
  cfg.faults_per_storm = 2;
  const auto make_init = [](const PlParams& pp, core::Xoshiro256pp& rng) {
    return pl::random_config(pp, rng);
  };
  const auto fault = [](const PlParams& pp, core::Xoshiro256pp& rng,
                        const PlState&, int) {
    return pl::random_state(pp, rng);
  };
  const auto one = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 1, make_init, fault);
  const auto four = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 4, make_init, fault);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t t = 0; t < one.size(); ++t) {
    EXPECT_TRUE(one[t].ok) << one[t].divergence;
    EXPECT_EQ(one[t].digest, four[t].digest);
    EXPECT_EQ(one[t].final_digest, four[t].final_digest);
    // The one-ring word lane (D) stayed active and lane G rode the
    // vector-RNG driver, except at level 0, where there is no word lane.
    const bool engaged = core::word_isa_level() >= 1;
    EXPECT_EQ(one[t].packed_lane, engaged);
    EXPECT_EQ(one[t].lockstep_lane, engaged);
  }
}

TEST(WordKernelIsaCap, LowersButNeverRaises) {
  const int cpu = core::cap_isa_level(testing_isa::kTopIsaLevel);
  EXPECT_EQ(core::word_isa_level(), cpu);
  for (int level = 0; level <= testing_isa::kTopIsaLevel; ++level) {
    EXPECT_EQ(core::cap_isa_level(level), std::min(level, cpu));
    const int lanes[] = {1, 4, 8};  // level 0: no lockstep
    EXPECT_EQ(EnsembleRunner<PlProtocol>::lockstep_lanes(),
              lanes[std::min(level, cpu)]);
  }
  EXPECT_EQ(core::cap_isa_level(testing_isa::kTopIsaLevel), cpu);
}

/// One interaction at a time through apply_word_one, with the leader
/// census every engine path keeps: the trajectory the single-ring driver's
/// runs must reproduce.
void one_at_a_time(std::vector<std::uint64_t>& words, std::uint64_t bound,
                   std::uint64_t threshold, core::Xoshiro256pp& rng,
                   core::RingClock& clk,
                   const PlProtocol::WordKernelConsts& kc, std::uint64_t k) {
  const int n = static_cast<int>(words.size());
  for (std::uint64_t s = 0; s < k; ++s) {
    const core::ArcEndpoints e = core::arc_endpoints(
        static_cast<int>(rng.bounded_with_threshold(bound, threshold)), n);
    std::uint64_t& wa = words[static_cast<std::size_t>(e.initiator)];
    std::uint64_t& wb = words[static_cast<std::size_t>(e.responder)];
    const std::uint64_t oa = wa;
    const std::uint64_t ob = wb;
    PlProtocol::apply_word_one(wa, wb, kc);
    if ((((wa ^ oa) | (wb ^ ob)) & 1) != 0) {
      clk.note_leaders(static_cast<int>(wa & 1) + static_cast<int>(wb & 1) -
                           static_cast<int>(oa & 1) - static_cast<int>(ob & 1),
                       true, clk.steps);
    }
    ++clk.steps;
  }
}

TEST_P(WordKernelIsa, RunBlockCutsRunsLikeOneAtATime) {
  // WordGroupDriver::run_block against one-at-a-time apply_word_one from a
  // cloned RNG, at the levels that have a run_block clone. Rings of 2 to 17
  // agents cut most groups, so runs of every length and offset occur; k
  // from 1 to 17 leaves every tail length at both lane widths, and
  // k = 1024 runs many groups. The blocks run back
  // to back on one ring and one stamp buffer, which starts as garbage;
  // before every other block it is flooded with the id the next group
  // will take, so that group's first draw matches a stale stamp.
  const int level = core::word_isa_level();
  if (level < 1) GTEST_SKIP() << "no run_block clone at level 0";
  std::vector<std::uint64_t> ks;
  for (std::uint64_t k = 1; k <= 17; ++k) ks.push_back(k);
  ks.push_back(1024);
  for (int n = 2; n <= 17; ++n) {
    const auto p = PlParams::make(n, 4);
    const auto layout = PlProtocol::word_layout(p);
    const auto kc = PlProtocol::make_word_consts(layout);
    const auto bound = static_cast<std::uint64_t>(n);
    const std::uint64_t threshold =
        core::Xoshiro256pp::rejection_threshold(bound);
    core::Xoshiro256pp cfg(3000 + n);
    std::vector<std::uint64_t> words;
    for (const PlState& s : pl::random_config(p, cfg))
      words.push_back(PlProtocol::pack_word(s, layout));
    std::vector<std::uint64_t> want = words;
    core::RingClock clk;
    clk.steps = 5;
    for (const std::uint64_t w : words) clk.leader_count += (w & 1) != 0;
    core::RingClock want_clk = clk;
    core::Xoshiro256pp rng(40 + n);
    core::Xoshiro256pp want_rng = rng;
    core::RunStamps stamps;
    for (int i = 0; i < n; ++i)
      stamps.agent.push_back(static_cast<std::uint32_t>(cfg()));
    stamps.last = static_cast<std::uint32_t>(cfg());
    for (std::size_t b = 0; b < ks.size(); ++b) {
      const std::uint64_t k = ks[b];
      if (b % 2 == 1)
        std::fill(stamps.agent.begin(), stamps.agent.end(), stamps.last + 1);
      core::WordGroupDriver<PlProtocol>::run_block(
          level, words.data(), n, bound, threshold, rng, clk, kc, k, stamps);
      one_at_a_time(want, bound, threshold, want_rng, want_clk, kc, k);
      const std::string what =
          "n=" + std::to_string(n) + " k=" + std::to_string(k);
      ASSERT_EQ(words, want) << what;
      ASSERT_EQ(rng.state(), want_rng.state()) << what;
      ASSERT_EQ(clk.steps, want_clk.steps) << what;
      ASSERT_EQ(clk.leader_count, want_clk.leader_count) << what;
      ASSERT_EQ(clk.last_leader_change, want_clk.last_leader_change) << what;
    }
  }
}

}  // namespace
}  // namespace ppsim
