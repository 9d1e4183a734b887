#include "core/model_checker.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>

#include "verification/toys.hpp"

namespace ppsim::core {
namespace {

using verification::BrokenMergeModel;
using verification::TokenMergeModel;

TEST(ModelChecker, EnumeratesConfigurations) {
  ModelChecker<TokenMergeModel> mc({4});
  EXPECT_EQ(mc.num_configurations(), 16u);
}

TEST(ModelChecker, EncodeDecodeRoundTrip) {
  ModelChecker<TokenMergeModel> mc({5});
  for (std::uint64_t id = 0; id < mc.num_configurations(); ++id) {
    const auto cfg = mc.decode(id);
    EXPECT_EQ(mc.encode(cfg), id);
  }
}

TEST(ModelChecker, SuccessorAppliesTransition) {
  ModelChecker<TokenMergeModel> mc({3});
  // Config (1,1,0): arc 0 merges -> (1,0,0)... merge sets r.tok=0: (1,0,0).
  TokenMergeModel::State a{1}, b{1}, z{0};
  std::vector<TokenMergeModel::State> cfg{a, b, z};
  const auto id = mc.encode(cfg);
  const auto succ = mc.successor(id, 0);
  const auto out = mc.decode(succ);
  EXPECT_EQ(out[0].tok, 1);
  EXPECT_EQ(out[1].tok, 0);
  EXPECT_EQ(out[2].tok, 0);
}

TEST(ModelChecker, AcceptsTokenMerging) {
  // Every bottom SCC should consist of exactly-one-token configurations.
  // Note: token *count* is the invariant output here (the token position
  // keeps moving, so the position is not part of the spec output).
  ModelChecker<TokenMergeModel> mc({4});
  const auto res = mc.check(
      [](std::span<const TokenMergeModel::State> c,
         const TokenMergeModel::Params&) {
        return TokenMergeModel::count_tokens(c);
      },
      [](int tokens) { return tokens <= 1; });
  EXPECT_TRUE(res.ok) << mc.describe_counterexample(res);
  EXPECT_GT(res.num_bottom_sccs, 0u);
}

TEST(ModelChecker, RejectsBrokenProtocolAndDecodesTheCounterexample) {
  ModelChecker<BrokenMergeModel> mc({3});
  const auto res = mc.check(
      [](std::span<const BrokenMergeModel::State> c,
         const BrokenMergeModel::Params&) {
        return TokenMergeModel::count_tokens(c);
      },
      [](int tokens) { return tokens == 1; });
  EXPECT_FALSE(res.ok);
  ASSERT_TRUE(res.counterexample.has_value());
  // The counterexample is the absorbing zero-token configuration.
  const auto cfg = mc.decode(*res.counterexample);
  EXPECT_EQ(TokenMergeModel::count_tokens(cfg), 0);
  // The decoded rendering names every agent's state — the actionable form.
  const std::string pretty = mc.describe_counterexample(res);
  EXPECT_NE(pretty.find("bottom SCC with illegal output"), std::string::npos)
      << pretty;
  EXPECT_NE(pretty.find("u_0: _"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("u_2: _"), std::string::npos) << pretty;
}

/// TokenMergeModel without a describe(): the rendering must degrade to the
/// packed per-agent value, never to garbage.
struct PlainMergeModel {
  using State = TokenMergeModel::State;
  using Params = TokenMergeModel::Params;
  static constexpr bool directed = true;
  static std::size_t num_states(const Params&) { return 2; }
  static std::size_t pack(const State& s, const Params&, int) {
    return static_cast<std::size_t>(s.tok);
  }
  static State unpack(std::size_t v, const Params&, int) {
    return State{static_cast<int>(v)};
  }
  static void apply(State&, State&, const Params&) {}
};

TEST(ModelChecker, DescribeFallsBackToPackedValuesWithoutADescriber) {
  ModelChecker<PlainMergeModel> mc({2});
  const auto pretty = mc.describe_configuration(3);  // (1, 1)
  EXPECT_NE(pretty.find("u_0: q1"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("u_1: q1"), std::string::npos) << pretty;
}

/// 16 states/agent: n = 16 makes per_agent^n = 2^64 overflow uint64; n = 8
/// stays representable (2^32) but exceeds the 32-bit Tarjan index capacity.
struct WideModel {
  struct State {
    int v = 0;
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

TEST(ModelChecker, Uint64OverflowIsACapacityErrorNotAGarbageVerdict) {
  // 16^17 > 2^64: the old constructor silently wrapped total_, so check()
  // would have "verified" a garbage state space. It must refuse instead.
  ModelChecker<WideModel> mc({17});
  EXPECT_TRUE(mc.capacity_exceeded());
  EXPECT_EQ(mc.num_configurations(), 0u);
  const auto res = mc.check(
      [](std::span<const WideModel::State>, const WideModel::Params&) {
        return 0;
      },
      [](int) { return true; });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.capacity_exceeded);
  EXPECT_NE(res.reason.find("capacity"), std::string::npos) << res.reason;
  EXPECT_FALSE(res.counterexample.has_value());
}

TEST(ModelChecker, Uint32IndexCapacityIsDetectedWithoutAllocating) {
  // 16^8 = 2^32 fits uint64 but not the checker's uint32 index/component
  // packing (0xFFFFFFFF is the unset marker). check() must refuse up front —
  // this test would need ~50 GB if it tried to allocate.
  ModelChecker<WideModel> mc({8});
  EXPECT_TRUE(mc.capacity_exceeded());
  const auto res = mc.check(
      [](std::span<const WideModel::State>, const WideModel::Params&) {
        return 0;
      },
      [](int) { return true; });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.capacity_exceeded);
}

TEST(ModelChecker, CapacityPredicateProbesWithoutConstructing) {
  // The static probe must agree with what a constructed checker reports —
  // callers (the checker bench) use it to auto-select the largest
  // certifiable n before paying for construction.
  EXPECT_TRUE(ModelChecker<TokenMergeModel>::capacity({4}));
  EXPECT_TRUE(ModelChecker<WideModel>::capacity({7}));   // 16^7 = 2^28
  EXPECT_FALSE(ModelChecker<WideModel>::capacity({8}));  // 2^32 > uint32 cap
  EXPECT_FALSE(ModelChecker<WideModel>::capacity({17}));  // uint64 overflow
  // Node budgets tighten the headroom precisely.
  EXPECT_TRUE(ModelChecker<TokenMergeModel>::capacity({10}, 1024));
  EXPECT_FALSE(ModelChecker<TokenMergeModel>::capacity({11}, 1024));
  for (int n = 2; n <= 24; ++n) {
    const bool predicted =
        ModelChecker<TokenMergeModel>::capacity({n}, 1 << 16);
    ModelChecker<TokenMergeModel> mc({n}, 1 << 16);
    EXPECT_EQ(predicted, !mc.capacity_exceeded()) << "n=" << n;
  }
}

TEST(ModelChecker, NodeBudgetIsACapacityErrorWithAnExplicitReason) {
  ModelChecker<TokenMergeModel> mc({12}, 1000);  // 4096 > 1000
  EXPECT_TRUE(mc.capacity_exceeded());
  const auto res = mc.check(
      [](std::span<const TokenMergeModel::State> c,
         const TokenMergeModel::Params&) {
        return TokenMergeModel::count_tokens(c);
      },
      [](int) { return true; });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.capacity_exceeded);
  EXPECT_NE(res.reason.find("node budget"), std::string::npos) << res.reason;
  // The same space fits without the budget.
  ModelChecker<TokenMergeModel> wide({12});
  EXPECT_FALSE(wide.capacity_exceeded());
}

TEST(ModelChecker, InCapacitySpacesReportNoCapacityError) {
  ModelChecker<TokenMergeModel> mc({4});
  EXPECT_FALSE(mc.capacity_exceeded());
  const auto res = mc.check(
      [](std::span<const TokenMergeModel::State> c,
         const TokenMergeModel::Params&) {
        return TokenMergeModel::count_tokens(c);
      },
      [](int tokens) { return tokens <= 1; });
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.capacity_exceeded);
}

/// Per-agent inputs: agent i's state offset by its position; round-trip must
/// respect the position argument.
struct PositionModel {
  struct State {
    int v = 0;  // = raw + agent index
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static std::size_t num_states(const Params&) { return 3; }
  static std::size_t pack(const State& s, const Params&, int agent) {
    return static_cast<std::size_t>(s.v - agent);
  }
  static State unpack(std::size_t v, const Params&, int agent) {
    return State{static_cast<int>(v) + agent};
  }
  static void apply(State&, State&, const Params&) {}
};

TEST(ModelChecker, RingSizeBelowOneThrows) {
  for (const int n : {0, -3})
    EXPECT_THROW(ModelChecker<TokenMergeModel>({n}), std::invalid_argument)
        << "n=" << n;
}

TEST(ModelChecker, PositionAwarePacking) {
  ModelChecker<PositionModel> mc({3});
  const auto cfg = mc.decode(14);
  EXPECT_EQ(mc.encode(cfg), 14u);
  // Agent i's decoded value carries the position offset.
  for (int i = 0; i < 3; ++i) {
    const int raw = cfg[static_cast<std::size_t>(i)].v - i;
    EXPECT_GE(raw, 0);
    EXPECT_LT(raw, 3);
  }
}

}  // namespace
}  // namespace ppsim::core
