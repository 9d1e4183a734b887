// S_PL on the word lane. The safe-set clauses are one template instantiated
// for spans of PlState and for core::WordRingView (the word lane's view of a
// ring's u64 mirror). The two must agree, verdict and first failing clause,
// on:
//
//   * random configurations, tiny rings (psi >= n) included
//   * every adversary family
//   * single-field perturbations of safe configurations at every agent
//   * configurations sampled every check_every from a running ensemble under
//     fault storms, across an out-of-domain injection that ends its word lane
//
// and measure_convergence_parallel and measure_recovery must return the same
// results whether their predicate reads the view or a materialized span.
//
// Membership (is_safe, SafePredicate) runs the clauses in cost order with an
// early exit; first_failing_clause and check_safe report proof order. Both
// must give the same verdict everywhere, including where the two orders name
// different clauses, on tokens whose working pair would wrap past the leader
// (the general-arithmetic fallback), and at every check of a convergence run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/experiment.hpp"
#include "core/ensemble.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/packed_state.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::pl {
namespace {

/// Checks every S_PL entry point on the span against the word view of the
/// same configuration and returns the first failing clause.
SafeClause expect_view_agrees(std::span<const PlState> c, const PlParams& p,
                              const std::string& what) {
  const PackedLayout l = PackedLayout::make(p);
  std::vector<std::uint64_t> words;
  for (const PlState& s : c) {
    EXPECT_TRUE(in_word_domain(s, l)) << what;
    words.push_back(pack_word(s, l));
  }
  const WordConfig view(words, l);
  const SafetyVerdict v = check_safe(c, p);
  const SafeClause clause = first_failing_clause(c, p);
  EXPECT_EQ(v.clause, clause) << what;
  EXPECT_EQ(v.safe, clause == SafeClause::kSafe) << what;
  EXPECT_EQ(v.reason.empty(), v.safe) << what << ": " << v.reason;
  EXPECT_EQ(is_safe(c, p), v.safe) << what;
  EXPECT_EQ(first_failing_clause(view, p), clause) << what;
  EXPECT_EQ(SafePredicate{}(view, p), v.safe) << what;
  EXPECT_EQ(SafePredicate{}(c, p), v.safe) << what;
  EXPECT_EQ(is_safe(view, p), v.safe) << what;
  const SafeClause exit = membership_exit_clause(c, p);
  EXPECT_EQ(membership_exit_clause(view, p), exit) << what;
  EXPECT_EQ(exit == SafeClause::kSafe, v.safe) << what;
  return clause;
}

TEST(SafeView, RandomConfigsAgreeIncludingTinyRings) {
  core::Xoshiro256pp rng(0x5AFE);
  for (int n : {2, 3, 4, 5, 6, 7, 8, 16, 64, 257, 1024}) {
    const PlParams p = PlParams::make(n);
    const int draws = n <= 64 ? 200 : 20;
    for (int t = 0; t < draws; ++t)
      expect_view_agrees(random_config(p, rng), p,
                         "n=" + std::to_string(n) + " t=" + std::to_string(t));
    for (int k = 0; k < n; k += 1 + n / 8) {
      EXPECT_EQ(expect_view_agrees(make_safe_config(p, k, 5), p,
                                   "safe n=" + std::to_string(n)),
                SafeClause::kSafe);
    }
  }
}

TEST(SafeView, AdversaryFamiliesAgree) {
  core::Xoshiro256pp rng(0xFA31);
  for (int n : {3, 5, 16, 64}) {
    const PlParams p = PlParams::make(n, 4);
    for (const auto& family :
         analysis::Adversary<PlProtocol>::families()) {
      for (int t = 0; t < 4; ++t)
        expect_view_agrees(family.make(p, rng), p,
                           family.name + " n=" + std::to_string(n));
    }
  }
}

/// Safe configurations to perturb: the canonical one at a few leader
/// positions, the same with a live bullet as far from the leader as the
/// ring allows (so absence signals and the shield matter), and states
/// sampled from a trajectory inside S_PL (closure), which carry tokens.
std::vector<std::vector<PlState>> safe_bases(const PlParams& p) {
  const int n = p.n;
  std::vector<std::vector<PlState>> bases;
  for (int k : {0, n / 2, n - 1}) {
    auto c = make_safe_config(p, k, 3);
    bases.push_back(c);
    c[static_cast<std::size_t>((k + n - 1) % n)].bullet = common::kLiveBullet;
    bases.push_back(std::move(c));
  }
  core::Runner<PlProtocol> run(p, make_safe_config(p, 1 % n, 6), 0xBA5E);
  for (int t = 0; t < 6; ++t) {
    run.run(static_cast<std::uint64_t>(7 * n));
    const auto a = run.agents();
    bases.emplace_back(a.begin(), a.end());
  }
  return bases;
}

/// Single-field, in-domain perturbations of one agent state.
std::vector<std::pair<std::string, PlState>> perturbations(const PlState& s,
                                                           const PlParams& p) {
  std::vector<std::pair<std::string, PlState>> out;
  const auto add = [&](const std::string& field, auto&& edit) {
    PlState t = s;
    edit(t);
    out.emplace_back(field, t);
  };
  const auto flip = [](std::uint8_t v) {
    return static_cast<std::uint8_t>(v ^ 1);
  };
  add("leader", [&](PlState& t) { t.leader = flip(t.leader); });
  add("b", [&](PlState& t) { t.b = flip(t.b); });
  add("dist", [&](PlState& t) {
    t.dist = static_cast<std::uint16_t>((t.dist + 1) % p.two_psi());
  });
  add("last", [&](PlState& t) { t.last = flip(t.last); });
  add("shield", [&](PlState& t) { t.shield = flip(t.shield); });
  add("signal_b", [&](PlState& t) { t.signal_b = flip(t.signal_b); });
  for (int b = 0; b <= 2; ++b)
    if (b != s.bullet)
      add("bullet", [&](PlState& t) { t.bullet = static_cast<std::uint8_t>(b); });
  add("clock", [&](PlState& t) {
    t.clock = static_cast<std::uint16_t>(p.kappa_max - t.clock);
  });
  add("hits", [&](PlState& t) {
    t.hits = static_cast<std::uint8_t>(p.psi - t.hits);
  });
  add("signal_r", [&](PlState& t) {
    t.signal_r = static_cast<std::uint16_t>(p.kappa_max - t.signal_r);
  });
  for (Token PlState::* tm : {&PlState::token_b, &PlState::token_w}) {
    const Token& tok = s.*tm;
    if (tok.exists()) {
      add("token", [&](PlState& t) { (t.*tm).value ^= 1; });
      add("token", [&](PlState& t) { (t.*tm).carry ^= 1; });
      add("token", [&](PlState& t) { (t.*tm).clear(); });
    } else {
      add("token", [&](PlState& t) {
        t.*tm = Token{static_cast<std::int8_t>(p.psi), 0, 1};
      });
      add("token", [&](PlState& t) {
        t.*tm = Token{static_cast<std::int8_t>(1 - p.psi), 1, 0};
      });
    }
  }
  return out;
}

/// Every live bullet peaceful, by the definition: walking left from the
/// bullet, no agent up to and including the nearest leader carries a
/// bullet-absence signal, and that leader is shielded. The reference for the
/// running-flag walk S_PL uses.
bool all_bullets_peaceful_by_left_walk(std::span<const PlState> c) {
  const int n = static_cast<int>(c.size());
  const auto peaceful = [&](int i) {
    for (int j = 0, at = i; j < n; ++j, at = at == 0 ? n - 1 : at - 1) {
      const PlState& s = c[static_cast<std::size_t>(at)];
      if (s.signal_b != 0) return false;
      if (s.leader == 1) return s.shield == 1;
    }
    return false;
  };
  for (int i = 0; i < n; ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !peaceful(i))
      return false;
  return true;
}

TEST(SafeView, SingleFieldPerturbationsAgreeAndNameTheirClause) {
  std::set<SafeClause> seen;
  for (int n : {2, 3, 5, 8, 16, 33}) {
    const PlParams p = PlParams::make(n, 4);
    for (const auto& base : safe_bases(p)) {
      ASSERT_EQ(expect_view_agrees(base, p, "base n=" + std::to_string(n)),
                SafeClause::kSafe);
      for (int i = 0; i < n; ++i) {
        for (const auto& [field, s] :
             perturbations(base[static_cast<std::size_t>(i)], p)) {
          auto c = base;
          c[static_cast<std::size_t>(i)] = s;
          const std::string what =
              field + " at " + std::to_string(i) + " n=" + std::to_string(n);
          const SafeClause clause = expect_view_agrees(c, p, what);
          seen.insert(clause);
          if (field == "leader") {
            EXPECT_EQ(clause, SafeClause::kLeaderCount) << what;
          } else if (field == "dist" || field == "last") {
            EXPECT_EQ(clause, SafeClause::kCdlLayout) << what;
          } else if (field == "clock" || field == "hits" ||
                     field == "signal_r") {
            EXPECT_EQ(clause, SafeClause::kSafe) << what;  // not in S_PL
          } else if (field == "shield" || field == "signal_b" ||
                     field == "bullet") {
            EXPECT_EQ(clause, all_bullets_peaceful_by_left_walk(c)
                                  ? SafeClause::kSafe
                                  : SafeClause::kPeacefulBullets)
                << what;
          } else {  // b, token
            EXPECT_TRUE(clause == SafeClause::kTokens ||
                        clause == SafeClause::kSegmentIds ||
                        clause == SafeClause::kSafe)
                << what;
          }
        }
      }
    }
  }
  // Every clause, and the safe verdict, occurred at least once.
  EXPECT_EQ(seen.size(), 6u);
}

/// A predicate with both overloads: records which one run_until_each chose,
/// the clause it computed and the configuration it read.
struct Probe {
  bool took_view = false;
  SafeClause clause = SafeClause::kSafe;
  std::vector<PlState> read;

  bool operator()(std::span<const PlState> c, const PlParams& p) {
    took_view = false;
    clause = first_failing_clause(c, p);
    read.assign(c.begin(), c.end());
    return false;
  }
  bool operator()(const WordConfig& c, const PlParams& p) {
    took_view = true;
    clause = first_failing_clause(c, p);
    read.clear();
    for (std::size_t i = 0; i < c.size(); ++i) read.push_back(c[i]);
    return false;
  }
};

TEST(SafeView, EnsembleFaultStormSamplesAgree) {
  const PlParams p = PlParams::make(12, 4);
  const auto n = static_cast<std::uint64_t>(p.n);
  // 11 rings: lockstep groups (word-owned rings, checked on the view) plus,
  // at 8 lanes, three leftovers that run the scalar loop at this n
  // (State-owned rings, checked on the span; at 4 lanes they form a padded
  // group). Once the lane drops, every ring is checked on the span. Without
  // AVX2 there is no word lane: no ring is ever word-owned, and every check
  // reads the span.
  constexpr int kRings = 11;
  core::EnsembleRunner<PlProtocol> ens(p, kRings);
  core::Xoshiro256pp rng(0x570F);
  for (int r = 0; r < kRings; ++r) {
    ens.add_ring(r % 2 == 0 ? make_safe_config(p, r) : random_config(p, rng),
                 900 + static_cast<std::uint64_t>(r));
  }
  const bool engaged = core::word_isa_level() >= 1;
  ASSERT_EQ(ens.word_kernel_mode(), engaged);
  std::set<SafeClause> seen;
  int view_checks = 0;
  int span_checks = 0;
  for (int round = 0; round < 3000; ++round) {
    ens.run(n);  // one check_every block
    if (round % 150 == 75) {  // storm: a few in-domain faults per ring
      for (int r = 0; r < kRings; ++r)
        for (int f = 0; f < 1 + r % 3; ++f)
          ens.set_agent(r, static_cast<int>(rng.bounded(n)),
                        random_state(p, rng));
    }
    if (round == 2000) {  // out of the word domain: the lane ends for good
      PlState bad = ens.agent(2, 5);
      bad.dist = static_cast<std::uint16_t>(p.two_psi() + 1);
      ens.set_agent(2, 5, bad);
      ASSERT_FALSE(ens.word_kernel_mode());
    }
    for (int r = 0; r < kRings; ++r) {
      // A zero budget only runs run_until_each's checks: the probe sees
      // exactly what the convergence drivers' predicate would see now.
      Probe probe;
      std::vector<std::uint64_t> hits(kRings, core::EnsembleRunner<PlProtocol>::npos);
      const bool words_own = ens.word_kernel_mode() &&
                             ens.ring_owner(r) == core::RingOwner::kMirror;
      ens.run_until_each({r}, probe, 0, 0, hits);
      ASSERT_EQ(probe.took_view, words_own) << "round " << round;
      (probe.took_view ? view_checks : span_checks) += 1;
      const auto agents = ens.agents(r);
      ASSERT_TRUE(std::equal(agents.begin(), agents.end(), probe.read.begin(),
                             probe.read.end()))
          << "round " << round << " ring " << r;
      ASSERT_EQ(probe.clause, check_safe(agents, p).clause)
          << "round " << round << " ring " << r;
      seen.insert(probe.clause);
    }
  }
  EXPECT_EQ(view_checks > 0, engaged);
  EXPECT_GT(span_checks, 0);
  EXPECT_TRUE(seen.count(SafeClause::kSafe) == 1);
  EXPECT_GE(seen.size(), 3u);
}

void expect_same_stats(const analysis::RecoveryStats& a,
                       const analysis::RecoveryStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.raw, b.raw) << what;
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.stabilization_failures, b.stabilization_failures) << what;
  EXPECT_EQ(a.recovery_failures, b.recovery_failures) << what;
  for (const auto& [x, y] : {std::pair{a.recovery, b.recovery},
                             std::pair{a.stabilization, b.stabilization}}) {
    EXPECT_EQ(x.count, y.count) << what;
    EXPECT_EQ(x.mean, y.mean) << what;
    EXPECT_EQ(x.stddev, y.stddev) << what;
    EXPECT_EQ(x.min, y.min) << what;
    EXPECT_EQ(x.p25, y.p25) << what;
    EXPECT_EQ(x.median, y.median) << what;
    EXPECT_EQ(x.p75, y.p75) << what;
    EXPECT_EQ(x.p90, y.p90) << what;
    EXPECT_EQ(x.max, y.max) << what;
  }
}

TEST(SafeView, RecoveryStatsMatchTheMaterializingPath) {
  // make_recovery_scenario's default predicate carries the view overload;
  // a span-only lambda in the same spec must give identical RecoveryStats.
  // At n = 16 a counting wrapper around the default proves the view path
  // ran: one worker keeps every shard at >= 8 rings, so lockstep groups run
  // and their word-owned rings are checked on the view (without AVX2 there
  // is no word lane, and the view never runs).
  const bool engaged = core::word_isa_level() >= 1;
  for (const auto& [n, trials] : {std::pair{16, 40}, {256, 4}}) {
    const PlParams p = PlParams::make(n, 4);
    for (const bool storm : {false, true}) {
      for (int threads : {1, 3}) {
        analysis::TrialPlan plan;
        plan.trials = trials;
        plan.max_steps = analysis::sweep_budget(n);
        plan.seed_base = 5;
        plan.tag = analysis::campaign_tag(storm ? 2 : 1, n, 4);
        plan.threads = threads;
        const auto spec = analysis::make_recovery_scenario<PlProtocol>(
            storm ? "storm" : "burst",
            storm ? analysis::storm_schedule(4, static_cast<std::uint64_t>(n))
                  : analysis::burst_schedule(4),
            plan);
        ASSERT_TRUE(spec.recovered.has_view());
        auto span_spec = spec;
        span_spec.recovered = [](std::span<const PlState> c,
                                 const PlParams& q) { return is_safe(c, q); };
        ASSERT_FALSE(span_spec.recovered.has_view());
        const std::string what = std::string(storm ? "storm" : "burst") +
                                 " n=" + std::to_string(n) +
                                 " threads=" + std::to_string(threads);
        const auto view = analysis::measure_recovery<PlProtocol>(p, spec);
        const auto span = analysis::measure_recovery<PlProtocol>(p, span_spec);
        expect_same_stats(view, span, what);
        EXPECT_EQ(view.trials, trials) << what;
        EXPECT_FALSE(view.raw.empty()) << what;
        if (n != 16) continue;
        std::atomic<std::uint64_t> view_calls{0};
        auto counted_spec = spec;
        counted_spec.recovered = [&view_calls, f = spec.recovered](
                                     const auto& c, const PlParams& q) {
          if constexpr (std::is_same_v<std::decay_t<decltype(c)>,
                                       WordConfig>)
            view_calls.fetch_add(1, std::memory_order_relaxed);
          return f(c, q);
        };
        const auto counted =
            analysis::measure_recovery<PlProtocol>(p, counted_spec);
        expect_same_stats(counted, span, what);
        if (threads == 1 || !engaged) {
          EXPECT_EQ(view_calls.load() > 0, engaged) << what;
        }
      }
    }
  }
}

TEST(SafeView, ConvergenceHitsMatchTheMaterializingPath) {
  const std::function<bool(std::span<const PlState>, const PlParams&)>
      span_only = [](std::span<const PlState> c, const PlParams& q) {
        return is_safe(c, q);
      };
  for (const auto& [n, trials] : {std::pair{16, 12}, {64, 6}, {257, 3}}) {
    const PlParams p = PlParams::make(n, 4);
    const auto gen = [&p](core::Xoshiro256pp& rng) {
      return random_config(p, rng);
    };
    const std::uint64_t budget = analysis::sweep_budget(n);
    for (int threads : {1, 3}) {
      const auto view = analysis::measure_convergence_parallel<PlProtocol>(
          p, gen, SafePredicate{}, trials, budget, 77, 0x51E, threads);
      const auto span = analysis::measure_convergence_parallel<PlProtocol>(
          p, gen, span_only, trials, budget, 77, 0x51E, threads);
      EXPECT_EQ(view.failures, span.failures) << "n=" << n;
      EXPECT_EQ(view.raw, span.raw) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(view.raw.size(), static_cast<std::size_t>(trials));
    }
  }
}

TEST(SafeView, MembershipExitsAtSegmentIdsWhereProofOrderNamesTokens) {
  for (int n : {16, 64, 257}) {
    const PlParams p = PlParams::make(n, 4);
    ASSERT_GE(p.zeta(), 3) << "n=" << n;  // at least one segment-ID pair
    for (int k : {0, n / 3, n - 1}) {
      // Segment S_1's first bit flipped breaks pair 0, and a token that is
      // invalid at its host (black, moving right, tau = 1) breaks the token
      // clause: proof order names the tokens, the cost-ordered walk meets
      // the segment IDs first and stops there.
      auto c = make_safe_config(p, k, 3);
      const auto at = [&](int rel) -> PlState& {
        return c[static_cast<std::size_t>((k + rel) % n)];
      };
      at(p.psi).b ^= 1;
      at(0).token_b = Token{1, 0, 0};
      const std::string what = "n=" + std::to_string(n) +
                               " k=" + std::to_string(k);
      EXPECT_EQ(expect_view_agrees(c, p, what), SafeClause::kTokens) << what;
      const SafetyVerdict v = check_safe(c, p);
      EXPECT_EQ(v.reason, "black token invalid/incorrect at " +
                              std::to_string(k))
          << what;
      EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kSegmentIds) << what;

      // The bad segment pair alone: both orders name it.
      at(0).token_b = Token{};
      EXPECT_EQ(expect_view_agrees(c, p, what + " ids only"),
                SafeClause::kSegmentIds);
      EXPECT_EQ(check_safe(c, p).reason,
                "segment IDs not consecutive at pair 0")
          << what;
      EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kSegmentIds) << what;
    }
  }
}

/// Writes `id` (mod 2^psi) into segment S_seg of a C_DL ring whose leader
/// is at `k`: bit j to the agent seg * psi + j right of the leader.
void set_segment_id(std::vector<PlState>& c, const PlParams& p, int k,
                    int seg, long long id) {
  for (int bit = 0; bit < p.psi; ++bit)
    c[static_cast<std::size_t>((k + seg * p.psi + bit) % p.n)].b =
        static_cast<std::uint8_t>((id >> bit) & 1);
}

TEST(SafeView, MembershipFindsTheOneBadSegmentPairWhereverItIs) {
  // Membership compares the pairs from the far end back toward the leader.
  // A ring whose only defect is pair i (S_0..S_i shifted by one, so every
  // other pair stays consecutive) must still fail there, at every i, pair 0
  // (the last one the far-end-first pass reaches) included.
  for (int n : {16, 64, 257}) {
    const PlParams p = PlParams::make(n, 32);
    for (int k : {0, n / 3, n - 1}) {
      for (int pair = 0; pair < p.zeta() - 2; ++pair) {
        auto c = make_safe_config(p, k, 5);
        for (int seg = 0; seg <= pair; ++seg)
          set_segment_id(c, p, k, seg, 5 + seg + 1);
        const std::string what = "n=" + std::to_string(n) + " k=" +
                                 std::to_string(k) + " pair " +
                                 std::to_string(pair);
        EXPECT_EQ(expect_view_agrees(c, p, what), SafeClause::kSegmentIds)
            << what;
        EXPECT_EQ(check_safe(c, p).reason,
                  "segment IDs not consecutive at pair " +
                      std::to_string(pair))
            << what;
        EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kSegmentIds)
            << what;
      }
    }
  }
}

TEST(SafeView, MembershipReadsTheIdsBeforeTheCdlWalk) {
  for (int n : {16, 64, 257}) {
    const PlParams p = PlParams::make(n, 32);
    for (int k : {0, n / 2, n - 1}) {
      const std::string what =
          "n=" + std::to_string(n) + " k=" + std::to_string(k);
      // One agent's `last` flag breaks C_DL; the IDs stay consecutive, so
      // the walk must still run and find it, in both orders.
      auto c = make_safe_config(p, k, 9);
      c[static_cast<std::size_t>((k + 1) % n)].last ^= 1;
      EXPECT_EQ(expect_view_agrees(c, p, what + " cdl only"),
                SafeClause::kCdlLayout);
      EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kCdlLayout) << what;
      // Now S_1's first bit breaks pairs 0 and 1 as well: proof order still
      // names C_DL, membership stops at the IDs before its walk.
      c[static_cast<std::size_t>((k + p.psi) % n)].b ^= 1;
      EXPECT_EQ(expect_view_agrees(c, p, what + " cdl and ids"),
                SafeClause::kCdlLayout);
      EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kSegmentIds)
          << what;
    }
  }
}

TEST(SafeView, RingsWithoutSegmentPairsIgnoreTheirBits) {
  // zeta <= 2: S_0..S_{zeta-2} hold at most one segment, so no pair exists
  // and a token-free safe ring stays safe under every assignment of b.
  for (int n = 2; n <= 8; ++n) {
    for (int slack = 0; slack <= 2; ++slack) {
      const PlParams p = PlParams::make(n, 32, slack);
      if (p.zeta() > 2) continue;
      for (int k : {0, n - 1}) {
        for (unsigned bits = 0; bits < (1u << n); ++bits) {
          auto c = make_safe_config(p, k);
          for (int i = 0; i < n; ++i)
            c[static_cast<std::size_t>(i)].b =
                static_cast<std::uint8_t>((bits >> i) & 1);
          const std::string what = "n=" + std::to_string(n) + " psi=" +
                                   std::to_string(p.psi) + " k=" +
                                   std::to_string(k) + " bits=" +
                                   std::to_string(bits);
          EXPECT_EQ(expect_view_agrees(c, p, what), SafeClause::kSafe)
              << what;
          EXPECT_EQ(membership_exit_clause(c, p), SafeClause::kSafe) << what;
        }
      }
    }
  }
}

TEST(SafeView, AdversaryFamiliesAgreeAtPaperC1) {
  core::Xoshiro256pp rng(0xC132);
  for (int n : {64, 257}) {
    const PlParams p = PlParams::make(n, 32);
    for (const auto& family :
         analysis::Adversary<PlProtocol>::families()) {
      for (int t = 0; t < 4; ++t)
        expect_view_agrees(family.make(p, rng), p,
                           family.name + " n=" + std::to_string(n));
    }
  }
}

TEST(SafeView, WrongSizedRingThrows) {
  // Every entry point takes zeta and the last segment from p.n, so a ring
  // of another size has no verdict: all of them refuse it.
  const PlParams p = PlParams::make(16, 4);
  const PackedLayout l = PackedLayout::make(p);
  for (int size : {15, 17, 32}) {
    std::vector<PlState> c(static_cast<std::size_t>(size));
    c[0] = make_safe_config(p)[0];
    std::vector<std::uint64_t> words;
    for (const PlState& s : c) words.push_back(pack_word(s, l));
    const WordConfig view(words, l);
    const std::span<const PlState> span(c);
    EXPECT_THROW((void)is_safe(span, p), std::invalid_argument) << size;
    EXPECT_THROW((void)is_safe(view, p), std::invalid_argument) << size;
    EXPECT_THROW((void)SafePredicate{}(span, p), std::invalid_argument);
    EXPECT_THROW((void)SafePredicate{}(view, p), std::invalid_argument);
    EXPECT_THROW((void)first_failing_clause(span, p), std::invalid_argument);
    EXPECT_THROW((void)first_failing_clause(view, p), std::invalid_argument);
    EXPECT_THROW((void)membership_exit_clause(span, p),
                 std::invalid_argument);
    EXPECT_THROW((void)membership_exit_clause(view, p),
                 std::invalid_argument);
    EXPECT_THROW((void)check_safe(span, p), std::invalid_argument) << size;
  }
}

/// Whether the cost-ordered token check leaves its division-free geometry
/// for the general arithmetic: the target r + pos, or the pair start
/// r + pos - tau, falls outside [0, n) counted from the leader.
bool pair_wraps(const PlParams& p, int r, const Token& t, int d) {
  const int tau = detail::mod_2psi(r + t.pos + d, p.two_psi());
  const int target = r + t.pos;
  return target >= p.n || target - tau < 0;
}

TEST(SafeView, SingleTokensAgreeWithTokenCorrectIncludingWrappingPairs) {
  // Every in-domain token, one at a time, at every host of a safe ring. The
  // verdict must be exactly "outside the last segment and token_correct"
  // (the general geometry), on rings from psi >= n up to several pairs.
  int wrapped = 0;
  int accepted = 0;
  for (const auto& [n, slack] : {std::pair{2, 0}, {3, 1}, {4, 0}, {4, 2},
                                 {5, 1}, {6, 1}, {7, 0}, {8, 2}, {12, 0},
                                 {16, 0}, {33, 0}}) {
    const PlParams p = PlParams::make(n, 4, slack);
    for (int k : {0, n - 1}) {
      const auto base = make_safe_config(p, k, 1);
      for (int host = 0; host < n; ++host) {
        const int r = (host - k + n) % n;
        for (Token PlState::* tm : {&PlState::token_b, &PlState::token_w}) {
          const bool black = tm == &PlState::token_b;
          for (int pos = 1 - p.psi; pos <= p.psi; ++pos) {
            if (pos == 0) continue;
            for (int bits = 0; bits < 4; ++bits) {
              auto c = base;
              const Token t{static_cast<std::int8_t>(pos),
                            static_cast<std::uint8_t>(bits & 1),
                            static_cast<std::uint8_t>(bits >> 1)};
              c[static_cast<std::size_t>(host)].*tm = t;
              const bool expect_safe =
                  c[static_cast<std::size_t>(host)].last == 0 &&
                  token_correct(c, p, host, black, k);
              const std::string what =
                  "n=" + std::to_string(n) + " psi=" + std::to_string(p.psi) +
                  " k=" + std::to_string(k) + " host=" +
                  std::to_string(host) + (black ? " black" : " white") +
                  " pos=" + std::to_string(pos) + " bits=" +
                  std::to_string(bits);
              const SafeClause clause = expect_view_agrees(c, p, what);
              ASSERT_EQ(clause, expect_safe ? SafeClause::kSafe
                                            : SafeClause::kTokens)
                  << what;
              if (c[static_cast<std::size_t>(host)].last == 0 &&
                  pair_wraps(p, r, t, black ? 0 : p.psi))
                ++wrapped;
              if (expect_safe) ++accepted;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(wrapped, 0);   // the fallback geometry ran
  EXPECT_GT(accepted, 0);  // and correct tokens were accepted
}

/// A predicate with both overloads that checks, at every call, the
/// membership verdict against first_failing_clause == kSafe on the same
/// configuration, and answers with the membership verdict.
struct AgreementProbe {
  std::atomic<std::uint64_t>* view_checks;
  std::atomic<std::uint64_t>* span_checks;
  std::atomic<std::uint64_t>* disagreements;

  bool operator()(std::span<const PlState> c, const PlParams& p) const {
    span_checks->fetch_add(1, std::memory_order_relaxed);
    const bool safe = is_safe(c, p);
    if (safe != (first_failing_clause(c, p) == SafeClause::kSafe) ||
        safe != SafePredicate{}(c, p))
      disagreements->fetch_add(1, std::memory_order_relaxed);
    return safe;
  }
  bool operator()(const WordConfig& c, const PlParams& p) const {
    view_checks->fetch_add(1, std::memory_order_relaxed);
    const bool safe = SafePredicate{}(c, p);
    if (safe != (first_failing_clause(c, p) == SafeClause::kSafe) ||
        safe != is_safe(c, p))
      disagreements->fetch_add(1, std::memory_order_relaxed);
    return safe;
  }
};

TEST(SafeView, EveryConvergenceCheckAgreesWithProofOrder) {
  const PlParams p = PlParams::make(64, 4);
  const auto gen = [&p](core::Xoshiro256pp& rng) {
    return random_config(p, rng);
  };
  std::atomic<std::uint64_t> view_checks{0};
  std::atomic<std::uint64_t> span_checks{0};
  std::atomic<std::uint64_t> disagreements{0};
  const AgreementProbe probe{&view_checks, &span_checks, &disagreements};
  // One worker keeps each shard at >= 8 rings, so lockstep groups run and
  // their word-owned rings are checked on the view, wherever there is a
  // word lane (AVX2 or AVX-512).
  constexpr int kTrials = 32;
  const std::uint64_t budget = analysis::sweep_budget(p.n);
  const auto probed = analysis::measure_convergence_parallel<PlProtocol>(
      p, gen, probe, kTrials, budget, 91, 0x51E, 1);
  const auto plain = analysis::measure_convergence_parallel<PlProtocol>(
      p, gen, SafePredicate{}, kTrials, budget, 91, 0x51E, 1);
  EXPECT_EQ(disagreements.load(), 0u);
  EXPECT_EQ(view_checks.load() > 0, core::word_isa_level() >= 1);
  EXPECT_GT(view_checks.load() + span_checks.load(), 1000u);
  EXPECT_EQ(probed.raw, plain.raw);
  EXPECT_EQ(probed.failures, plain.failures);
}

}  // namespace
}  // namespace ppsim::pl
