// Symmetry-reduced checker vs the unreduced one: identical verdicts and
// identical expanded bottom-configuration counts on every space both can
// handle, counterexample orbits that agree, honest capacity behavior, and
// the headline: a budgeted cell the unreduced checker must refuse that the
// quotient checker certifies.
#include "verification/quotient.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/modk.hpp"
#include "common/elimination.hpp"
#include "core/model_checker.hpp"
#include "orientation/por.hpp"
#include "verification/toys.hpp"

namespace ppsim::verification {
namespace {

/// Token-count spec (rotation invariant) for the merge toys.
struct TokenCountSpec {
  template <typename Params>
  int operator()(std::span<const TokenMergeModel::State> c,
                 const Params&) const {
    return TokenMergeModel::count_tokens(c);
  }
};

TEST(Quotient, DetectsTheFullRotationGroupOnPositionFreeAdapters) {
  QuotientChecker<TokenMergeModel> qc({6});
  EXPECT_EQ(qc.symmetry().rotation_period, 1);
  EXPECT_FALSE(qc.symmetry().reflection);  // directed ring
  EXPECT_EQ(qc.symmetry().order(), 6);
}

TEST(Quotient, AgreesWithUnreducedOnTokenMerge) {
  for (int n = 2; n <= 12; ++n) {
    core::ModelChecker<TokenMergeModel> mc({n});
    QuotientChecker<TokenMergeModel> qc({n});
    const auto full =
        mc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
    const auto quot =
        qc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
    ASSERT_TRUE(full.ok) << "n=" << n;
    EXPECT_TRUE(quot.ok) << "n=" << n << ": " << quot.reason;
    EXPECT_EQ(quot.num_configurations, full.num_configurations) << "n=" << n;
    // Orbit expansion reproduces the unreduced bottom census bit-for-bit.
    EXPECT_EQ(quot.num_bottom_configs, full.num_bottom_configs) << "n=" << n;
    EXPECT_LE(quot.num_bottom_sccs, full.num_bottom_sccs) << "n=" << n;
    EXPECT_LE(quot.num_orbits, full.num_configurations) << "n=" << n;
    EXPECT_GT(quot.reduction_factor(), 1.0) << "n=" << n;
  }
}

TEST(Quotient, OrbitCountIsTheNecklaceNumber) {
  // Binary necklaces N(2, n): n = 4 -> 6, n = 5 -> 8, n = 6 -> 14.
  const std::uint64_t expected[] = {6, 8, 14};
  for (int n : {4, 5, 6}) {
    QuotientChecker<TokenMergeModel> qc({n});
    const auto res =
        qc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.num_orbits, expected[n - 4]) << "n=" << n;
  }
}

TEST(Quotient, BrokenProtocolCounterexampleOrbitAgreesWithUnreduced) {
  for (int n : {3, 5, 8}) {
    core::ModelChecker<BrokenMergeModel> mc({n});
    QuotientChecker<BrokenMergeModel> qc({n});
    const auto full =
        mc.check(TokenCountSpec{}, [](int tokens) { return tokens == 1; });
    const auto quot =
        qc.check(TokenCountSpec{}, [](int tokens) { return tokens == 1; });
    EXPECT_FALSE(full.ok);
    EXPECT_FALSE(quot.ok);
    ASSERT_TRUE(full.counterexample.has_value());
    ASSERT_TRUE(quot.counterexample.has_value());
    // Same orbit (here: the absorbing zero-token configuration, which is
    // rotation invariant, so the ids agree exactly).
    EXPECT_EQ(qc.canonical_id(*full.counterexample), *quot.counterexample)
        << "n=" << n;
    EXPECT_EQ(*quot.counterexample, 0u);
    // And it decodes to something readable.
    const auto pretty = qc.describe_counterexample(quot);
    EXPECT_NE(pretty.find("u_0: _"), std::string::npos) << pretty;
  }
}

struct UndirectedMerge : TokenMergeModel {
  static constexpr bool directed = false;
};

TEST(Quotient, UndirectedRingAddsReflectionAndStillAgrees) {
  for (int n : {3, 4, 6, 9}) {
    core::ModelChecker<UndirectedMerge> mc({n});
    QuotientChecker<UndirectedMerge> qc({n});
    EXPECT_TRUE(qc.symmetry().reflection);
    EXPECT_EQ(qc.symmetry().order(), 2 * n);
    const auto full =
        mc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
    const auto quot =
        qc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
    ASSERT_TRUE(full.ok) << "n=" << n;
    EXPECT_TRUE(quot.ok) << "n=" << n << ": " << quot.reason;
    EXPECT_EQ(quot.num_bottom_configs, full.num_bottom_configs) << "n=" << n;
  }
}

TEST(Quotient, ModkN3MatchesTheUnreducedHeadlineCheck) {
  // The modk_test headline cell, now through the quotient: all 110,592
  // configurations, one leader forever — with a position-dependent
  // (equivariant) spec, exercising the edge-local constancy argument.
  const auto p = baselines::ModkParams::make(3, 2);
  core::ModelChecker<baselines::ModkModel> mc(p);
  QuotientChecker<baselines::ModkModel> qc(p);
  EXPECT_EQ(qc.symmetry().rotation_period, 1);
  const auto legal = [](std::uint32_t bits) { return exactly_one_leader(bits); };
  const auto full =
      mc.check(LeaderBitsSpec<baselines::ModkState>{}, legal);
  const auto quot =
      qc.check(LeaderBitsSpec<baselines::ModkState>{}, legal);
  ASSERT_TRUE(full.ok) << full.reason;
  EXPECT_TRUE(quot.ok) << quot.reason;
  EXPECT_EQ(quot.num_configurations, full.num_configurations);
  EXPECT_EQ(quot.num_bottom_configs, full.num_bottom_configs);
  // Orbits of 48^3 under rotation by 3: (48^3 + 2*48) / 3.
  EXPECT_EQ(quot.num_orbits, (110592ull + 2 * 48) / 3);
  EXPECT_GT(quot.reduction_factor(), 2.9);
}

TEST(Quotient, EliminationAgreesWithUnreduced) {
  for (int n : {3, 4}) {
    const common::EliminationProtocol::Params p{n};
    core::ModelChecker<common::EliminationProtocol> mc(p);
    QuotientChecker<common::EliminationProtocol> qc(p);
    const auto legal = [](std::uint32_t) { return true; };
    const auto full =
        mc.check(LeaderBitsSpec<common::ElimAgentState>{}, legal);
    const auto quot =
        qc.check(LeaderBitsSpec<common::ElimAgentState>{}, legal);
    ASSERT_TRUE(full.ok) << "n=" << n << ": " << full.reason;
    EXPECT_TRUE(quot.ok) << "n=" << n << ": " << quot.reason;
    EXPECT_EQ(quot.num_bottom_configs, full.num_bottom_configs) << "n=" << n;
  }
}

TEST(Quotient, CertifiesACellTheUnreducedCheckerMustRefuse) {
  // The acceptance cell: elimination at n = 4 under a 100k-node budget.
  // 24^4 = 331,776 configurations exceed the budget — the unreduced checker
  // refuses with capacity_exceeded (it cannot store the space) — while the
  // ~83k rotation orbits fit, so the quotient checker certifies the exact
  // same property the unreduced checker verifies when given 4x the memory
  // (EliminationAgreesWithUnreduced above).
  constexpr std::uint64_t kBudget = 100'000;
  const common::EliminationProtocol::Params p{4};

  ASSERT_FALSE(
      core::ModelChecker<common::EliminationProtocol>::capacity(p, kBudget));
  core::ModelChecker<common::EliminationProtocol> mc(p, kBudget);
  const auto legal = [](std::uint32_t) { return true; };
  const auto full = mc.check(LeaderBitsSpec<common::ElimAgentState>{}, legal);
  EXPECT_FALSE(full.ok);
  EXPECT_TRUE(full.capacity_exceeded);
  EXPECT_NE(full.reason.find("node budget"), std::string::npos)
      << full.reason;

  QuotientChecker<common::EliminationProtocol> qc(p, kBudget);
  const auto quot = qc.check(LeaderBitsSpec<common::ElimAgentState>{}, legal);
  EXPECT_TRUE(quot.ok) << quot.reason;
  EXPECT_FALSE(quot.capacity_exceeded);
  EXPECT_LE(quot.num_orbits, kBudget);
  EXPECT_EQ(quot.num_configurations, 331776u);
  EXPECT_GT(quot.reduction_factor(), 3.9);  // ~4x on a 4-ring
}

TEST(Quotient, PositionDependentAdapterDegradesToTheTrivialGroup) {
  // PorModel pins the two-hop coloring to ring positions, so no nontrivial
  // rotation is valid — the quotient checker must detect that and match the
  // unreduced checker exactly instead of assuming symmetry that is not
  // there.
  for (int n : {3, 4}) {
    const auto p = orient::OrParams::make(n);
    QuotientChecker<orient::PorModel> qc(p);
    EXPECT_EQ(qc.symmetry().rotation_period, n) << "n=" << n;
    EXPECT_FALSE(qc.symmetry().reflection);
    EXPECT_EQ(qc.symmetry().order(), 1);

    core::ModelChecker<orient::PorModel> mc(p);
    const auto spec = [](std::span<const orient::OrState> c,
                         const orient::OrParams& pp) {
      struct Out {
        bool oriented;
        std::uint64_t dirs;
        bool operator==(const Out&) const = default;
      };
      std::uint64_t dirs = 0;
      for (const orient::OrState& s : c) dirs = dirs * 8 + s.dir;
      return Out{orient::is_oriented(c, pp), dirs};
    };
    const auto legal = [](const auto& out) { return out.oriented; };
    const auto full = mc.check(spec, legal);
    const auto quot = qc.check(spec, legal);
    ASSERT_TRUE(full.ok) << "n=" << n << ": " << full.reason;
    EXPECT_TRUE(quot.ok) << "n=" << n << ": " << quot.reason;
    EXPECT_EQ(quot.num_orbits, full.num_configurations) << "n=" << n;
    EXPECT_EQ(quot.num_bottom_configs, full.num_bottom_configs) << "n=" << n;
    EXPECT_EQ(quot.num_bottom_sccs, full.num_bottom_sccs) << "n=" << n;
  }
}

TEST(Quotient, BudgetAbortIsACapacityErrorNeverAPartialOk) {
  QuotientChecker<TokenMergeModel> qc({12}, 10);  // 352 orbits > 10
  const auto res =
      qc.check(TokenCountSpec{}, [](int tokens) { return tokens <= 1; });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.capacity_exceeded);
  EXPECT_NE(res.reason.find("node budget"), std::string::npos) << res.reason;
  EXPECT_FALSE(res.counterexample.has_value());
  EXPECT_EQ(res.num_bottom_sccs, 0u);
}

struct Wide16 {
  struct State {
    int v = 0;
    friend constexpr bool operator==(const State&, const State&) = default;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static std::size_t num_states(const Params&) { return 16; }
  static std::size_t pack(const State& s, const Params&, int) {
    return static_cast<std::size_t>(s.v);
  }
  static State unpack(std::size_t v, const Params&, int) {
    return State{static_cast<int>(v)};
  }
  static void apply(State&, State&, const Params&) {}
};

TEST(Quotient, Uint64OverflowIsACapacityError) {
  QuotientChecker<Wide16> qc({17});  // 16^17 > 2^64
  EXPECT_TRUE(qc.capacity_exceeded());
  const auto res = qc.check(
      [](std::span<const Wide16::State>, const Wide16::Params&) { return 0; },
      [](int) { return true; });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.capacity_exceeded);
  EXPECT_NE(res.reason.find("capacity"), std::string::npos) << res.reason;
}

}  // namespace
}  // namespace ppsim::verification
