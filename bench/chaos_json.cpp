// E21 — chaos trajectory: the self-healing campaign service run under a
// fixed battery of failpoint schedules (src/core/failpoint.hpp), recording
// for each schedule how many faults were injected, whether the campaign
// completed or degraded, and whether the surviving frame stream was
// byte-identical to the fault-free reference — the self-healing contract
// (scripts/campaign_chaos_check.sh is the randomized process-level layer;
// this bench pins a deterministic in-process battery on every commit).
//
// Writes BENCH_chaos.json (fields: its write_artifact call). Knobs:
// PPSIM_TRIALS (trials per cell; keep it above the 64-ring shard width so
// cells split into several shards), PPSIM_MAX_N, PPSIM_THREADS,
// PPSIM_BENCH_DIR.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/failpoint.hpp"
#include "core/table.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

namespace {

using namespace ppsim;

constexpr std::uint64_t kSeedBase = 53;
// Probabilistic schedules in this battery are pinned to one seed so the
// committed artifact is deterministic; campaign_chaos_check.sh draws fresh
// seeds per run and is the randomized layer.
constexpr int kChaosSeed = 101;

struct Schedule {
  std::string name;
  std::string spec;
  bool expect_degraded = false;
  /// run() must throw CheckpointError; a clean rerun then resumes.
  bool expect_abort = false;
};

struct ChaosRun {
  std::string name;
  std::string spec;
  std::uint64_t shards = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t quarantined = 0;
  std::string status;
  bool identical = false;
};

using Svc = service::CampaignService<pl::PlProtocol>;

std::vector<Svc::Cell> make_cells(const pl::PlParams& p, std::int64_t trials) {
  std::vector<Svc::Cell> cells;
  std::uint64_t tag = 1;
  for (int f : {1, 4}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = analysis::recovery_budget(p.n);
    plan.seed_base = kSeedBase;
    plan.tag = analysis::campaign_tag(tag++, p.n, f);
    cells.emplace_back(p, analysis::make_recovery_scenario<pl::PlProtocol>(
                              "burst", analysis::burst_schedule(f), plan));
  }
  return cells;
}

/// Run one schedule against a fresh service instance and compare the
/// on-disk frame stream to `want` (the fault-free reference, minus the
/// quarantined shard's line for degraded schedules). An abort schedule is
/// followed by a clean rerun in a fresh instance, which must resume.
ChaosRun run_schedule(const Schedule& sch, const std::vector<Svc::Cell>& cells,
                      const std::string& want_complete,
                      const std::string& want_degraded) {
  auto& reg = core::FailpointRegistry::instance();
  reg.disarm_all();
  const std::uint64_t fired_before = reg.fired_total();
  reg.configure(sch.spec);

  const std::string scratch = bench::bench_json_path("chaos") + "." + sch.name;
  const std::string ckpt = scratch + ".ckpt";
  const std::string frames_path = scratch + ".ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  service::CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every_shards = 1;
  // The battery injects dozens of transient faults per schedule; real
  // backoff delays would dominate the bench wall-clock for no signal.
  opts.retry.base_delay_us = 1;
  opts.retry.max_delay_us = 50;
  // Deterministic worker hit order: the worker-site schedules must land on
  // the same shard every run for the committed artifact to be stable.
  opts.threads = 1;

  bool aborted = false;
  if (sch.expect_abort) {
    try {
      Svc victim(cells, opts);
      service::FileFrameSink frames(frames_path);
      (void)victim.run(frames);
    } catch (const service::CheckpointError&) {
      aborted = true;
    }
    // The rerun is clean; disarm() keeps the fired counters.
    for (const std::string& site : reg.armed_sites()) reg.disarm(site);
  }

  Svc svc(cells, opts);
  service::FileFrameSink frames(frames_path);
  const service::RunReport rep = svc.run(frames);

  ChaosRun out;
  out.name = sch.name;
  out.spec = sch.spec;
  out.shards = rep.shards_total;
  out.faults_injected = reg.fired_total() - fired_before;
  out.quarantined = rep.shards_quarantined;
  switch (rep.status) {
    case service::RunStatus::kComplete: out.status = "complete"; break;
    case service::RunStatus::kDegraded: out.status = "degraded"; break;
    default: out.status = "paused"; break;
  }
  if (aborted) out.status = "aborted_then_" + out.status;
  const std::string got = bench::read_file(frames_path);
  out.identical = got == (sch.expect_degraded ? want_degraded : want_complete);
  if ((rep.status == service::RunStatus::kDegraded) != sch.expect_degraded ||
      aborted != sch.expect_abort)
    out.identical = false;

  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());
  reg.disarm_all();
  return out;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Chaos battery — self-healing under injected failure",
                "failpoint schedules vs fault-free run, byte for byte");

  const int trials = core::env_int("PPSIM_TRIALS", 150);
  const int max_n = core::env_int("PPSIM_MAX_N", 64);
  const int n = std::min(32, max_n);
  const auto p = pl::PlParams::make(n, 4);
  const auto cells = make_cells(p, trials);

  // Fault-free reference (and its degraded counterpart: the stream minus
  // the first shard's frame, which is the shard the worker-site schedules
  // quarantine at threads=1).
  service::MemoryFrameSink ref;
  {
    service::CampaignOptions opts;
    opts.threads = 1;
    Svc svc(cells, opts);
    if (svc.run(ref).status != service::RunStatus::kComplete) {
      std::fprintf(stderr, "reference campaign did not complete\n");
      return 1;
    }
  }
  const std::string& want = ref.str();
  const std::string want_degraded = want.substr(want.find('\n') + 1);

  const std::string seed_tag = "@" + std::to_string(kChaosSeed);
  const std::vector<Schedule> battery = {
      {"sink_eintr", "service.file_sink.write=p250" + seed_tag + "xeintr"},
      {"sink_short",
       "service.file_sink.write=2xshort:1+p250" + seed_tag + "xshort:3"},
      {"ckpt_enospc_once", "service.ckpt.write=enospc"},
      {"ckpt_durability_eintr",
       "service.ckpt.fsync=2xeintr;service.ckpt.rename=1xeintr;"
       "service.ckpt.dir_fsync=1xeintr"},
      {"worker_transient", "service.worker.shard=2xeintr"},
      {"worker_quarantine", "service.worker.shard=3xeintr", true},
      {"ckpt_append_enospc_short", "service.ckpt.append=short:7+enospc"},
      {"ckpt_datasync_eintr", "service.ckpt.datasync=2xeintr"},
      {"ckpt_append_abort", "service.ckpt.append=throw", false, true},
  };

  std::vector<ChaosRun> runs;
  runs.reserve(battery.size());
  for (const Schedule& sch : battery)
    runs.push_back(run_schedule(sch, cells, want, want_degraded));

  core::Table t({"schedule", "shards", "faults", "quarantined", "status",
                 "stream"});
  bool all_ok = true;
  for (const ChaosRun& r : runs) {
    all_ok = all_ok && r.identical;
    t.add_row({r.name, core::fmt_u64(r.shards), core::fmt_u64(r.faults_injected),
               core::fmt_u64(r.quarantined), r.status,
               r.identical ? "identical" : "DIVERGED"});
  }
  t.print(std::cout);
  if (!all_ok) {
    std::fprintf(stderr, "chaos battery DIVERGED from the fault-free run\n");
    return 1;
  }

  bench::write_artifact(
      "chaos", 1, "injected_faults_survived",
      [&](core::JsonWriter& w) {
        w.field("trials", trials);
        w.field("seed_base", kSeedBase);
        w.field("chaos_seed", kChaosSeed);
        w.field("all_identical", all_ok);
      },
      runs,
      [&](core::JsonWriter& w, const ChaosRun& r) {
        w.field("schedule", r.name);
        w.field("spec", r.spec);
        w.field("n", n);
        w.field("shards", r.shards);
        w.field("faults_injected", r.faults_injected);
        w.field("shards_quarantined", r.quarantined);
        w.field("status", r.status);
        w.field("stream_identical", r.identical);
      });
  return 0;
}
