// ppsim_campaignd — the long-running, kill-safe campaign driver.
//
// Runs a fixed P_PL recovery campaign ({burst, storm} x fault counts, the
// scenario_campaign_demo cells at service scale) through
// service::CampaignService: the shard fan-out streams one NDJSON frame per
// shard into <frames>, progress is checkpointed into <checkpoint>, and a
// process killed at ANY point — kill -9 included — resumes from the
// checkpoint and finishes with byte-identical artifacts (the frame stream
// and <frames>.results.json), at any thread count.
// scripts/campaign_resume_check.sh is the kill/resume harness around this
// binary; tests/service/campaign_service_test.cpp pins the contract
// in-process.
//
//   $ ./example_ppsim_campaignd <checkpoint> <frames.ndjson> [n] [trials]
//
// Exit codes: 0 = campaign complete (results written), 1 = usage error or
// results file not written, 2 = a garbled [n] or [trials] (strict parse,
// core/env.hpp), a [trials] below 1, or refused a corrupt/foreign
// checkpoint or inconsistent frame file, 3 = paused (PPSIM_CAMPAIGN_STOP
// shards ran; rerun to continue), 4 = degraded (every shard settled but some are
// quarantined after persistent failure — recorded in the checkpoint;
// results withheld).
// Env: PPSIM_THREADS (worker count; never changes any output byte),
// PPSIM_CAMPAIGN_STOP (stop after that many shards, 0 = run to
// completion), PPSIM_CKPT_EVERY (settled shards per appended checkpoint
// record, default 1),
// PPSIM_FAILPOINTS (failpoint schedules, e.g.
// "service.file_sink.write=2xeintr;service.ckpt.write=enospc" — the chaos
// harness scripts/campaign_chaos_check.sh drives this; grammar in
// core/failpoint.hpp).
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "core/env.hpp"
#include "core/failpoint.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

namespace {

using namespace ppsim;

std::vector<service::CampaignService<pl::PlProtocol>::Cell> make_cells(
    int n, std::int64_t trials) {
  const auto p = pl::PlParams::make(n, 4);
  const auto n_u = static_cast<std::uint64_t>(p.n);
  std::vector<service::CampaignService<pl::PlProtocol>::Cell> cells;
  std::uint64_t tag = 1;
  for (int faults : {1, p.n / 4}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = analysis::recovery_budget(p.n);
    plan.seed_base = 7;
    plan.tag = analysis::campaign_tag(tag++, p.n, faults);
    cells.emplace_back(p, analysis::make_recovery_scenario<pl::PlProtocol>(
                              "burst", analysis::burst_schedule(faults),
                              plan));
    plan.tag = analysis::campaign_tag(tag++, p.n, faults);
    cells.emplace_back(
        p, analysis::make_recovery_scenario<pl::PlProtocol>(
               "storm", analysis::storm_schedule(faults, n_u), plan));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppsim;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <checkpoint> <frames.ndjson> [n] [trials]\n",
                 argv[0]);
    return 1;
  }
  const std::string ckpt = argv[1];
  const std::string frames_path = argv[2];
  const int n = argc > 3 ? core::parse_int("[n]", argv[3]) : 16;
  const std::int64_t trials = core::at_least(
      "[trials]", argc > 4 ? core::parse_int64("[trials]", argv[4]) : 256, 1);

  service::CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every_shards = static_cast<std::uint64_t>(
      std::max(core::env_int("PPSIM_CKPT_EVERY", 1), 1));
  opts.stop_after_shards = static_cast<std::uint64_t>(
      std::max<std::int64_t>(core::env_int64("PPSIM_CAMPAIGN_STOP", 0), 0));

  try {
    const int armed = core::FailpointRegistry::instance().configure_from_env();
    if (armed > 0)
      std::fprintf(stderr, "failpoints: %d site(s) armed via PPSIM_FAILPOINTS\n",
                   armed);

    service::CampaignService<pl::PlProtocol> svc(
        core::checked_args([&] { return make_cells(n, trials); }), opts);
    service::FileFrameSink frames(frames_path);
    std::printf("campaign %s: %llu/%llu shards done, resuming\n",
                service::digest_hex(svc.digest()).c_str(),
                static_cast<unsigned long long>(svc.shards_done()),
                static_cast<unsigned long long>(svc.shards_total()));
    const service::RunReport rep = svc.run(frames);
    std::printf("ran %llu shards (%llu/%llu done, %llu frame bytes)\n",
                static_cast<unsigned long long>(rep.shards_run),
                static_cast<unsigned long long>(rep.shards_done),
                static_cast<unsigned long long>(rep.shards_total),
                static_cast<unsigned long long>(rep.frame_bytes));
    if (rep.status == service::RunStatus::kPaused) {
      std::printf("paused; rerun to continue\n");
      return 3;
    }
    if (rep.status == service::RunStatus::kDegraded) {
      std::fprintf(stderr,
                   "degraded: %llu shard(s) quarantined after persistent "
                   "failure (recorded in %s); results withheld\n",
                   static_cast<unsigned long long>(rep.shards_quarantined),
                   ckpt.c_str());
      for (const auto& [cell, shard, reason] : svc.quarantine_report())
        std::fprintf(stderr, "  quarantined cell %u shard %llu: %s\n", cell,
                     static_cast<unsigned long long>(shard), reason.c_str());
      return 4;
    }
    const std::string results_path = frames_path + ".results.json";
    std::FILE* f = std::fopen(results_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", results_path.c_str());
      return 1;
    }
    const auto results = svc.results();
    service::write_campaign_results_json(
        f, std::span<const analysis::CampaignResult>(results), svc.digest());
    const bool written = std::fflush(f) == 0 && std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s: %s\n", results_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("complete; wrote %s\n", results_path.c_str());
    return 0;
  } catch (const service::CheckpointError& e) {
    std::fprintf(stderr, "refused: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
