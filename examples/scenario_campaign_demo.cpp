// Scenario campaign demo: the anatomy of a ScenarioSpec, shown on two
// protocols side by side.
//
// A spec is (initial-configuration family x fault schedule x recovery
// predicate x trial plan); the campaign driver runs each trial to
// stabilization, injects the scheduled faults via Runner::set_agent and
// measures the time to re-enter the protocol's safe set. Everything is
// deterministic in (seed_base, tag, trial index) — rerun with the same
// arguments and the numbers repeat, at any thread count.
//
//   $ ./example_scenario_campaign_demo [n] [trials]
#include <cstdio>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "core/env.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace {

using namespace ppsim;

template <typename P>
void report(const char* protocol, const typename P::Params& params,
            int trials) {
  const auto n_u = static_cast<std::uint64_t>(params.n);

  std::vector<std::pair<typename P::Params, analysis::ScenarioSpec<P>>> cells;
  int tag = 1;
  for (int faults : {1, params.n / 4}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = analysis::recovery_budget(params.n);
    plan.seed_base = 7;
    plan.tag = analysis::campaign_tag(static_cast<std::uint64_t>(tag++),
                                      params.n, faults);
    cells.emplace_back(params,
                       analysis::make_recovery_scenario<P>(
                           "burst", analysis::burst_schedule(faults), plan));
    plan.tag = analysis::campaign_tag(static_cast<std::uint64_t>(tag++),
                                      params.n, faults);
    cells.emplace_back(
        params, analysis::make_recovery_scenario<P>(
                    "storm", analysis::storm_schedule(faults, n_u), plan));
  }

  std::printf("%s (n = %d):\n", protocol, params.n);
  for (const auto& r : analysis::run_campaign<P>(
           std::span<const std::pair<typename P::Params,
                                     analysis::ScenarioSpec<P>>>(cells))) {
    std::printf("  %-6s f=%-3lld median recovery %10.0f steps  (p90 %10.0f, "
                "%lld/%lld healed)\n",
                r.scenario.c_str(), static_cast<long long>(r.faults),
                r.stats.recovery.median, r.stats.recovery.p90,
                static_cast<long long>(r.stats.trials -
                                       r.stats.recovery_failures -
                                       r.stats.stabilization_failures),
                static_cast<long long>(r.stats.trials));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppsim;
  const int n = argc > 1 ? core::parse_int("[n]", argv[1]) : 32;
  const int trials = core::at_least(
      "[trials]", argc > 2 ? core::parse_int("[trials]", argv[2]) : 5, 1);

  std::printf("recovery campaigns: burst (all faults at once) vs storm "
              "(spaced n steps)\n\n");
  const auto pl_params =
      core::checked_args([n] { return pl::PlParams::make(n, 4); });
  const auto y28_params =
      core::checked_args([n] { return baselines::Y28Params::make(n); });
  report<pl::PlProtocol>("P_PL", pl_params, trials);
  report<baselines::Yokota28>("yokota28", y28_params, trials);
  std::printf("\nboth protocols re-enter their safe sets after every "
              "schedule; see\nBENCH_recovery.json (bench_recovery_json) for "
              "the tracked trajectory\n");
  return 0;
}
