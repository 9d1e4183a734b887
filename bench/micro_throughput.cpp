// E11 — engineering micro-benchmarks (google-benchmark): interactions per
// second of each protocol's transition in the simulation hot loop, plus the
// cost of the S_PL safety predicate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/ensemble.hpp"
#include "core/runner.hpp"
#include "orientation/por.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/packed_state.hpp"
#include "pl/safe_config.hpp"

namespace {

using namespace ppsim;

// P_PL on its accelerated engine: a one-ring ensemble (the single-ring
// grouped word driver).
void BM_PlSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = pl::PlParams::make(n, 4);
  core::EnsembleRunner<pl::PlProtocol> run(p, 1);
  run.add_ring(pl::make_safe_config(p), 1);
  for (auto _ : state) {
    run.run(1024);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PlSteps)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Yokota28Steps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = baselines::Y28Params::make(n);
  core::Xoshiro256pp rng(1);
  core::Runner<baselines::Yokota28> run(
      p, baselines::y28_random_config(p, rng), 1);
  for (auto _ : state) {
    run.run(1024);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Yokota28Steps)->Arg(1024);

void BM_FischerJiangSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = baselines::FjParams::make(n);
  core::Xoshiro256pp rng(1);
  core::Runner<baselines::FischerJiang> run(
      p, baselines::fj_random_config(p, rng), 1);
  for (auto _ : state) {
    run.run(1024);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FischerJiangSteps)->Arg(1024);

void BM_ModkSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = baselines::ModkParams::make(n, 2);
  core::Xoshiro256pp rng(1);
  core::Runner<baselines::Modk> run(p, baselines::modk_random_config(p, rng),
                                    1);
  for (auto _ : state) {
    run.run(1024);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ModkSteps)->Arg(1025);

void BM_PorSteps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = orient::OrParams::make(n);
  core::Xoshiro256pp rng(1);
  core::Runner<orient::Por> run(p, orient::or_config(p, rng, true), 1);
  for (auto _ : state) {
    run.run(1024);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PorSteps)->Arg(1024);

// S_PL membership on the configurations a convergence sweep sends it:
// make_safe_config plus at most one changed field, so the check passes
// (case 0), fails at the leader count (1), at the segment IDs (2) or at the
// tokens (3).
std::vector<pl::PlState> safety_case(const pl::PlParams& p, int which) {
  auto c = pl::make_safe_config(p);
  auto& mid = c[static_cast<std::size_t>(p.n / 2)];
  switch (which) {
    case 1: mid.leader = 1; break;  // a second leader
    case 2: mid.b ^= 1; break;      // the ID of mid's segment
    case 3: c.back().token_b = pl::Token{1, 0, 0}; break;  // last segment
    default: break;
  }
  return c;
}

void safety_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "case"});
  for (int n : {64, 1024, 16384})
    for (int which = 0; which < 4; ++which) b->Args({n, which});
}

void BM_SafetyPredicate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = pl::PlParams::make(n, 4);
  const auto c = safety_case(p, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pl::is_safe(c, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SafetyPredicate)->Apply(safety_args);

// The same cases on the word lane's view of the ring (no State decode).
void BM_SafetyPredicateView(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto p = pl::PlParams::make(n, 4);
  const auto l = pl::PackedLayout::make(p);
  std::vector<std::uint64_t> words;
  for (const pl::PlState& s : safety_case(p, static_cast<int>(state.range(1))))
    words.push_back(pl::pack_word(s, l));
  const pl::WordConfig view(words, l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pl::SafePredicate{}(view, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SafetyPredicateView)->Apply(safety_args);

void BM_RngBounded(benchmark::State& state) {
  core::Xoshiro256pp rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.bounded(1024);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngBounded);

}  // namespace
