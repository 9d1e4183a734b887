// E20 — campaign-service trajectory: the checkpoint/resume campaign driver
// (src/service/campaign.hpp) run two ways over the same cells — once
// uninterrupted, once paused mid-campaign and resumed from its checkpoint
// in a fresh service instance — recording the folded recovery statistics
// AND whether the two frame streams were byte-identical (the service's
// crash-equivalence contract, exercised on every commit).
//
// Writes BENCH_campaign.json (fields: its write_artifact call). Knobs:
// PPSIM_TRIALS (trials per cell; keep it above the 64-ring shard width so
// cells actually split into several shards), PPSIM_MAX_N, PPSIM_C1,
// PPSIM_THREADS, PPSIM_BENCH_DIR.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

namespace {

using namespace ppsim;

constexpr std::uint64_t kSeedBase = 53;

/// One result cell, with its campaign's digest, shards and resume verdict.
struct Cell {
  std::string protocol;
  std::string digest;
  std::uint64_t shards = 0;
  bool resume_identical = false;
  analysis::CampaignResult result;
};

template <typename P>
std::vector<typename service::CampaignService<P>::Cell> make_cells(
    const typename P::Params& p, std::uint64_t tag_base, std::int64_t trials) {
  std::vector<typename service::CampaignService<P>::Cell> cells;
  for (int f : {1, 4}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = analysis::recovery_budget(p.n);
    plan.seed_base = kSeedBase;
    plan.tag = analysis::campaign_tag(tag_base, p.n, f);
    cells.emplace_back(p, analysis::make_recovery_scenario<P>(
                              "burst", analysis::burst_schedule(f), plan));
  }
  return cells;
}

/// Run one protocol's campaign uninterrupted, then again through a
/// pause/checkpoint/resume cycle (fresh instance per leg, like a killed and
/// restarted process), and compare the two frame streams byte for byte.
template <typename P>
std::vector<Cell> run_protocol(const std::string& name,
                               const typename P::Params& p,
                               std::uint64_t tag_base, std::int64_t trials) {
  const auto cells = make_cells<P>(p, tag_base, trials);

  service::CampaignService<P> ref(cells);
  service::MemoryFrameSink ref_frames;
  if (ref.run(ref_frames).status != service::RunStatus::kComplete)
    throw std::runtime_error(name + ": reference campaign did not complete");

  const std::string scratch = bench::bench_json_path("campaign") + "." + name;
  const std::string ckpt = scratch + ".ckpt";
  const std::string frames_path = scratch + ".ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());
  service::RunStatus status = service::RunStatus::kPaused;
  for (int leg = 0; status != service::RunStatus::kComplete; ++leg) {
    if (leg > 64)
      throw std::runtime_error(name + ": resume loop failed to converge");
    service::CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every_shards = 1;
    opts.stop_after_shards = 2;  // pause every two shards: many resumes
    service::CampaignService<P> svc(cells, opts);
    service::FileFrameSink frames(frames_path);
    status = svc.run(frames).status;
  }

  const bool identical = bench::read_file(frames_path) == ref_frames.str();
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  std::vector<Cell> out;
  for (auto& r : ref.results())
    out.push_back(Cell{name, service::digest_hex(ref.digest()),
                       ref.shards_total(), identical, std::move(r)});
  return out;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Campaign service — checkpoint/resume equivalence",
                "paused+resumed campaign vs uninterrupted, byte for byte");

  // Above the 64-ring shard width so each cell splits into several shards
  // and the pause points land inside cells, not just between them.
  const int trials = core::env_int("PPSIM_TRIALS", 150);
  const int max_n = core::env_int("PPSIM_MAX_N", 64);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const int n = std::min(32, max_n);

  std::vector<Cell> cells = run_protocol<pl::PlProtocol>(
      "P_PL", pl::PlParams::make(n, c1), 1, trials);
  for (auto& c : run_protocol<baselines::Yokota28>(
           "yokota28", baselines::Y28Params::make(n), 2, trials))
    cells.push_back(std::move(c));

  core::Table t({"protocol", "scenario", "faults", "shards",
                 "median recovery", "p90", "resume"});
  bool all_identical = true;
  for (const Cell& c : cells) {
    const auto& r = c.result;
    all_identical = all_identical && c.resume_identical;
    t.add_row({c.protocol, r.scenario,
               core::fmt_u64(static_cast<unsigned long long>(r.faults)),
               core::fmt_u64(static_cast<unsigned long long>(c.shards)),
               core::fmt_double(r.stats.recovery.median, 4),
               core::fmt_double(r.stats.recovery.p90, 4),
               c.resume_identical ? "identical" : "DIVERGED"});
  }
  t.print(std::cout);
  if (!all_identical) {
    std::fprintf(stderr,
                 "campaign resume DIVERGED from the uninterrupted run\n");
    return 1;
  }

  bench::write_artifact(
      "campaign", 1, "steps_to_reenter_safe_set",
      [&](core::JsonWriter& w) {
        w.field("trials", trials);
        w.field("seed_base", kSeedBase);
        w.field("resume_identical", all_identical);
      },
      cells,
      [](core::JsonWriter& w, const Cell& c) {
        w.field("protocol", c.protocol);
        w.field("campaign", c.digest);
        w.field("scenario", c.result.scenario);
        w.field("n", c.result.n);
        w.field("faults", c.result.faults);
        w.field("shards", c.shards);
        analysis::write_recovery_summary(w, c.result.stats);
      });
  return 0;
}
