// Topology x fault-model recovery campaign: the scenario engine run off the
// hard-wired ring. P_PL and the mod-k baseline recover from a 2-fault burst
// on ring / line / clique, with and without omission faults (message loss
// p = 0.1), through the same run_campaign driver the ring benches use.
//
// The study protocols' safe sets are ring-structured, so off-ring cells may
// legitimately never re-enter the safe set — that is reported honestly as
// recovery_failures (max_steps bounds the wait), not hidden. The committed
// trajectory thus records both the ring recovery numbers (loss slows the
// wall clock by ~1/(1-p)) and the off-ring failure profile.
//
// Writes BENCH_topology.json (fields: its write_artifact call).
// Knobs: PPSIM_TRIALS (trials per cell), PPSIM_C1 (P_PL's kappa constant),
// PPSIM_THREADS, PPSIM_BENCH_DIR.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "core/topology.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace {

using namespace ppsim;

struct Cell {
  std::string protocol;
  std::string topology;
  double loss = 0.0;
  analysis::CampaignResult result;
};

constexpr std::uint64_t kSeedBase = 53;
constexpr int kFaults = 2;
// Recovery budget per trial. Ring recovery at n = 16 sits in the tens of
// thousands of steps; off-ring failing trials each cost the full budget, so
// keep it generous for the ring and bounded for the failure cells.
constexpr std::uint64_t kMaxSteps = 5'000'000;

/// One protocol on one topology: loss p in {0, 0.1}, one burst schedule.
template <typename P, typename Topo>
std::vector<Cell> run_topology(const std::string& proto,
                               const typename P::Params& p,
                               std::uint64_t tag_base, int trials) {
  const std::vector<double> losses{0.0, 0.1};
  std::vector<std::pair<typename P::Params, analysis::ScenarioSpec<P, Topo>>>
      cells;
  for (std::size_t li = 0; li < losses.size(); ++li) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = kMaxSteps;
    plan.seed_base = kSeedBase;
    plan.tag = analysis::campaign_tag((tag_base << 1) | li, p.n, kFaults);
    auto spec = analysis::make_recovery_scenario<P, Topo>(
        li == 0 ? "burst" : "burst_loss", analysis::burst_schedule(kFaults),
        plan);
    spec.sched_faults.loss_p = losses[li];
    cells.emplace_back(p, std::move(spec));
  }
  std::vector<Cell> out;
  std::size_t li = 0;
  for (auto& r : analysis::run_campaign<P, Topo>(
           std::span<const std::pair<typename P::Params,
                                     analysis::ScenarioSpec<P, Topo>>>(
               cells))) {
    out.push_back(Cell{proto, std::string(Topo::kName), losses[li++],
                       std::move(r)});
  }
  return out;
}

/// All three topologies for one protocol (distinct tag bases per cell).
template <typename P>
std::vector<Cell> run_protocol(const std::string& proto,
                               const typename P::Params& p,
                               std::uint64_t tag_base, int trials) {
  std::vector<Cell> out;
  for (auto& c :
       run_topology<P, core::RingTopology>(proto, p, tag_base * 8 + 1, trials))
    out.push_back(std::move(c));
  for (auto& c :
       run_topology<P, core::LineTopology>(proto, p, tag_base * 8 + 2, trials))
    out.push_back(std::move(c));
  for (auto& c : run_topology<P, core::CliqueTopology>(proto, p,
                                                       tag_base * 8 + 3,
                                                       trials))
    out.push_back(std::move(c));
  return out;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Topology x fault-model recovery campaign",
                "recovery from a 2-fault burst off the hard-wired ring");

  const int trials = core::env_int("PPSIM_TRIALS", 6);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const int n = 16;

  std::vector<Cell> cells;
  {
    const auto r = run_protocol<pl::PlProtocol>(
        "P_PL", pl::PlParams::make(n, c1), 1, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    const auto r = run_protocol<baselines::Modk>(
        "modk", baselines::ModkParams::make(n + 1, 2), 2, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }

  core::Table t({"protocol", "topology", "loss", "n", "median recovery",
                 "p90", "fail"});
  for (const Cell& c : cells) {
    const auto& s = c.result.stats;
    t.add_row({c.protocol, c.topology, core::fmt_double(c.loss, 2),
               core::fmt_u64(static_cast<unsigned long long>(c.result.n)),
               core::fmt_double(s.recovery.median, 4),
               core::fmt_double(s.recovery.p90, 4),
               core::fmt_u64(static_cast<unsigned long long>(
                   s.recovery_failures + s.stabilization_failures))});
  }
  t.print(std::cout);

  bench::write_artifact(
      "topology", 1, "steps_to_reenter_safe_set",
      [&](core::JsonWriter& w) {
        w.field("trials", trials);
        w.field("seed_base", kSeedBase);
        w.field("max_steps", kMaxSteps);
      },
      cells,
      [](core::JsonWriter& w, const Cell& c) {
        w.field("protocol", c.protocol);
        w.field("topology", c.topology);
        w.field("scenario", c.result.scenario);
        w.field("loss", c.loss);
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
