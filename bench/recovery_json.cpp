// E19 — recovery-time campaign trajectory: the self-stabilization guarantee
// measured as recovery time after k injected faults, for the four runnable
// Table-1 protocols, two ring sizes, two fault counts and two fault-schedule
// shapes (one burst vs a spaced storm), on the scenario campaign engine
// (analysis/scenario.hpp).
//
// Writes BENCH_recovery.json (fields: its write_artifact call) so the
// recovery trajectory is tracked per-commit next to BENCH_throughput.json.
// Knobs: PPSIM_TRIALS (trials per cell), PPSIM_MAX_N (drops ring sizes above
// it), PPSIM_C1 (P_PL's kappa constant), PPSIM_THREADS, PPSIM_BENCH_DIR.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace {

using namespace ppsim;

struct Cell {
  std::string protocol;
  analysis::CampaignResult result;
};

constexpr std::uint64_t kSeedBase = 47;

/// Campaign for one protocol: {burst, storm} x ns x fault counts.
template <typename P>
std::vector<Cell> run_protocol(const std::string& name, std::uint64_t tag_base,
                               const std::vector<typename P::Params>& params,
                               const std::vector<int>& fault_counts,
                               int trials) {
  std::vector<std::pair<typename P::Params, analysis::ScenarioSpec<P>>> cells;
  for (const auto& p : params) {
    for (int f : fault_counts) {
      analysis::TrialPlan plan;
      plan.trials = trials;
      plan.max_steps = analysis::recovery_budget(p.n);
      plan.seed_base = kSeedBase;
      for (int storm = 0; storm < 2; ++storm) {
        plan.tag = analysis::campaign_tag((tag_base << 1) | storm, p.n, f);
        auto schedule =
            storm ? analysis::storm_schedule(
                        f, static_cast<std::uint64_t>(p.n))
                  : analysis::burst_schedule(f);
        cells.emplace_back(
            p, analysis::make_recovery_scenario<P>(
                   storm ? "storm" : "burst", std::move(schedule), plan));
      }
    }
  }
  std::vector<Cell> out;
  for (auto& r : analysis::run_campaign<P>(
           std::span<const std::pair<typename P::Params,
                                     analysis::ScenarioSpec<P>>>(cells))) {
    out.push_back(Cell{name, std::move(r)});
  }
  return out;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Recovery-time campaign — faults injected mid-run",
                "self-stabilization (Def. 2.1) as recovery after k faults");

  const int trials = core::env_int("PPSIM_TRIALS", 7);
  const int max_n = core::env_int("PPSIM_MAX_N", 64);
  const int c1 = core::env_int("PPSIM_C1", 4);

  std::vector<int> ns;
  for (int n : {32, 64})
    if (n <= max_n) ns.push_back(n);
  const std::vector<int> fault_counts{1, 4};

  std::vector<Cell> cells;
  {
    std::vector<pl::PlParams> ps;
    for (int n : ns) ps.push_back(pl::PlParams::make(n, c1));
    const auto r = run_protocol<pl::PlProtocol>("P_PL", 1, ps, fault_counts,
                                                trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::FjParams> ps;
    for (int n : ns) ps.push_back(baselines::FjParams::make(n));
    const auto r = run_protocol<baselines::FischerJiang>(
        "fischer_jiang", 2, ps, fault_counts, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::ModkParams> ps;
    for (int n : ns) ps.push_back(baselines::ModkParams::make(n + 1, 2));
    const auto r = run_protocol<baselines::Modk>("modk", 3, ps, fault_counts,
                                                 trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::Y28Params> ps;
    for (int n : ns) ps.push_back(baselines::Y28Params::make(n));
    const auto r = run_protocol<baselines::Yokota28>("yokota28", 4, ps,
                                                     fault_counts, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }

  core::Table t({"protocol", "scenario", "n", "faults", "median recovery",
                 "p90", "fail"});
  for (const Cell& c : cells) {
    const auto& s = c.result.stats;
    t.add_row({c.protocol, c.result.scenario,
               core::fmt_u64(static_cast<unsigned long long>(c.result.n)),
               core::fmt_u64(static_cast<unsigned long long>(c.result.faults)),
               core::fmt_double(s.recovery.median, 4),
               core::fmt_double(s.recovery.p90, 4),
               core::fmt_u64(static_cast<unsigned long long>(
                   s.recovery_failures + s.stabilization_failures))});
  }
  t.print(std::cout);

  bench::write_artifact(
      "recovery", 1, "steps_to_reenter_safe_set",
      [&](core::JsonWriter& w) {
        w.field("trials", trials);
        w.field("seed_base", kSeedBase);
      },
      cells,
      [](core::JsonWriter& w, const Cell& c) {
        w.field("protocol", c.protocol);
        w.field("scenario", c.result.scenario);
        w.field("n", c.result.n);
        w.field("faults", c.result.faults);
        analysis::write_recovery_summary(w, c.result.stats);
        w.key("raw");
        w.begin_array();
        for (std::uint64_t v : c.result.stats.raw) w.value(v);
        w.end_array();
      });
  return 0;
}
