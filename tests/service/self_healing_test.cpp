// Self-healing campaign I/O under injected failure (core/failpoint.hpp +
// service/retry.hpp threaded through service/campaign.hpp and
// campaign_io.hpp).
//
// The contract proved here, site by site:
//
//  * Transient syscall failures (EINTR, EAGAIN, short writes, fail-once
//    ENOSPC/EIO) are absorbed by retry loops and the campaign's artifacts
//    come out BYTE-IDENTICAL to a fault-free run — retries touch wall
//    clock, never an output byte.
//  * Non-transient injections (kThrow) poison the emitter, every worker
//    unwinds, and a resumed run completes byte-identically with no frame
//    emitted twice — swept over EVERY emission-cursor position.
//  * A persistently failing shard is quarantined: retried
//    shard_max_attempts times, then recorded (bitmap + reason) in the
//    checkpoint while the rest of the campaign completes; the run reports
//    kDegraded, results() refuses, and a resume sees the quarantine
//    without re-running the shard.
//  * An adversarial forever-EINTR schedule at any I/O site produces that
//    site's loud failure (storm bound), never a hang.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "core/failpoint.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"
#include "service/campaign_io.hpp"
#include "service/retry.hpp"

namespace ppsim::service {
namespace {

namespace fp = ppsim::core::failpoints;
using ppsim::core::FailpointRegistry;

using Cell = CampaignService<pl::PlProtocol>::Cell;

std::uint64_t budget(int n, int kappa_max) {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 600ULL * n_u * n_u * static_cast<std::uint64_t>(kappa_max) +
         2'000'000;
}

/// Two burst cells on a small PL ring, several shards each (the same shape
/// campaign_service_test.cpp uses) so injection points land between and
/// inside real shards.
std::vector<Cell> make_cells(std::int64_t trials, std::uint64_t seed_base) {
  const auto p = pl::PlParams::make(8, 2);
  std::vector<Cell> cells;
  std::uint64_t tag_base = 33;
  for (int f : {1, 2}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = budget(p.n, p.kappa_max);
    plan.seed_base = seed_base;
    plan.tag = analysis::campaign_tag(tag_base++, p.n, f);
    cells.emplace_back(p, analysis::make_recovery_scenario<pl::PlProtocol>(
                              "burst", analysis::burst_schedule(f), plan));
  }
  return cells;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

/// Fast retry policy for tests: same attempt structure, microsecond-scale
/// backoff so injected transient storms don't slow the suite.
RetryPolicy fast_retry() {
  RetryPolicy p;
  p.base_delay_us = 1;
  p.max_delay_us = 10;
  return p;
}

/// Every test scrubs the process-global failpoint registry on both sides.
class SelfHealingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::instance().disarm_all();
    dir_ = ::testing::TempDir() + "self_heal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cmd = "rm -rf '" + dir_ + "' && mkdir -p '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  FailpointRegistry& reg() { return FailpointRegistry::instance(); }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Fault-free reference run of `cells`: (frame bytes, digest).
  std::pair<std::string, std::uint64_t> reference(std::int64_t trials,
                                                  std::uint64_t seed) {
    CampaignOptions opts;
    opts.retry = fast_retry();
    CampaignService<pl::PlProtocol> svc(make_cells(trials, seed), opts);
    MemoryFrameSink sink;
    EXPECT_EQ(svc.run(sink).status, RunStatus::kComplete);
    return {sink.str(), svc.digest()};
  }

  std::string dir_;
};

// --- FileFrameSink: transient healing --------------------------------------

TEST_F(SelfHealingTest, FileSinkHealsTransientsByteExactly) {
  const std::string p = path("frames.bin");
  const std::string payload = "0123456789abcdef0123456789abcdef";
  {
    FileFrameSink sink(p, fast_retry());
    reg().arm(fp::kFileSinkWrite, "2xeintr+enospc+short:7+eio");
    sink.write(payload.data(), payload.size());
    reg().arm(fp::kFileSinkFlush, "eintr+enospc");
    sink.flush();
  }
  EXPECT_EQ(read_file(p), payload);
}

TEST_F(SelfHealingTest, FileSinkExhaustedTransientRetriesThrow) {
  const std::string p = path("frames.bin");
  RetryPolicy rp = fast_retry();
  rp.max_attempts = 3;
  FileFrameSink sink(p, rp);
  reg().arm(fp::kFileSinkWrite, "*xenospc");  // never heals
  EXPECT_THROW(sink.write("x", 1), CheckpointError);
}

// --- Checkpoint durability + load classification (satellites 2 & 3) -------

Checkpoint small_checkpoint() {
  Checkpoint ckpt;
  ckpt.spec_digest = 0xFEEDFACE01234567ULL;
  ckpt.frame_bytes = 99;
  CellProgress cell;
  cell.trials = 10;
  cell.shard_trials = 4;
  cell.done = ShardBitmap(3);
  cell.quarantined = ShardBitmap(3);
  cell.quarantine_reasons.resize(3);
  cell.results.resize(10);
  cell.done.set(1);
  ckpt.cells.push_back(std::move(cell));
  return ckpt;
}

TEST_F(SelfHealingTest, SaveHealsEintrAndShortWritesInPlace) {
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  reg().arm(fp::kCkptOpen, "eintr");
  reg().arm(fp::kCkptWrite, "2xeintr+short:9+eintr");
  reg().arm(fp::kCkptFsync, "2xeintr");
  reg().arm(fp::kCkptRename, "eintr");
  reg().arm(fp::kCkptDirFsync, "eintr");
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  const LoadResult lr = load_checkpoint(p, ckpt.spec_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_EQ(lr.checkpoint.frame_bytes, 99u);
}

TEST_F(SelfHealingTest, SaveFailsCleanlyOnPersistentErrnoEachSite) {
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  // Seed a valid committed checkpoint, then make each stage fail in turn:
  // the failed save must return false AND leave the committed file intact
  // (atomicity: a failed save never tears the canonical path).
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  const std::string committed = read_file(p);
  ASSERT_FALSE(committed.empty());
  for (const char* site :
       {fp::kCkptOpen, fp::kCkptWrite, fp::kCkptFsync, fp::kCkptRename,
        fp::kCkptDirFsync}) {
    reg().disarm_all();
    reg().arm(site, "*xeio");
    EXPECT_FALSE(save_checkpoint(p, ckpt)) << site;
    EXPECT_EQ(read_file(p), committed)
        << site << ": failed save must not disturb the committed file";
  }
  reg().disarm_all();
  EXPECT_TRUE(save_checkpoint(p, ckpt));
}

TEST_F(SelfHealingTest, KThrowAtCheckpointSitesIsAbortClass) {
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  for (const char* site :
       {fp::kCkptOpen, fp::kCkptWrite, fp::kCkptFsync, fp::kCkptRename,
        fp::kCkptDirFsync}) {
    reg().disarm_all();
    reg().arm(site, "throw");
    EXPECT_THROW((void)save_checkpoint(p, ckpt), CheckpointError) << site;
  }
}

TEST_F(SelfHealingTest, EintrStormIsALoudErrorNeverAHang) {
  // kEintrStormLimit consecutive no-progress EINTRs at any I/O site must
  // surface as that site's loud failure (the no-hang guarantee under
  // adversarial schedules): a CheckpointError from the frame sink, false
  // from a checkpoint save or append with the committed file intact, and
  // kIoError from a load.
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  const std::string committed = read_file(p);
  const ShardId settled[] = {{0, 0}};
  Checkpoint next = ckpt;
  next.cells[0].done.set(0);
  const std::vector<unsigned char> record =
      encode_record(next.cells, settled, 150);
  FileFrameSink sink(path("frames.bin"), fast_retry());

  for (const char* site : fp::kAll) {
    const std::string_view s = site;
    if (s == fp::kWorkerShard) continue;
    SCOPED_TRACE(site);
    reg().disarm_all();
    reg().arm(site, "*xeintr");
    if (s == fp::kFileSinkWrite) {
      EXPECT_THROW(sink.write("x", 1), CheckpointError);
    } else if (s == fp::kFileSinkFlush) {
      EXPECT_THROW(sink.flush(), CheckpointError);
    } else if (s == fp::kFileSinkTruncate) {
      EXPECT_THROW(sink.truncate_to(0), CheckpointError);
    } else if (s == fp::kCkptRead) {
      EXPECT_EQ(load_checkpoint(p, ckpt.spec_digest).status,
                LoadStatus::kIoError);
    } else if (s == fp::kCkptAppend || s == fp::kCkptDatasync) {
      CheckpointJournal journal(p);
      EXPECT_FALSE(journal.append(record));
    } else {
      EXPECT_FALSE(save_checkpoint(p, ckpt));
    }
    EXPECT_EQ(reg().fired(site), static_cast<std::uint64_t>(kEintrStormLimit));
    EXPECT_EQ(read_file(p), committed);
  }
}

TEST_F(SelfHealingTest, MidFileReadErrorIsIoErrorNotCorrupt) {
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  // A read failure on a PERFECTLY VALID file must report kIoError — the
  // misleading pre-fix verdict was "truncated/corrupt", which steered
  // operators toward deleting a good checkpoint.
  reg().arm(fp::kCkptRead, "eio");
  const LoadResult lr = load_checkpoint(p, ckpt.spec_digest);
  EXPECT_EQ(lr.status, LoadStatus::kIoError);
  EXPECT_NE(lr.error.find("I/O failure"), std::string::npos);
  // And once the disk behaves, the same file loads.
  const LoadResult ok = load_checkpoint(p, ckpt.spec_digest);
  EXPECT_EQ(ok.status, LoadStatus::kLoaded) << ok.error;
}

TEST_F(SelfHealingTest, LoadHealsEintrInPlace) {
  const std::string p = path("ckpt.bin");
  const Checkpoint ckpt = small_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  reg().arm(fp::kCkptRead, "3xeintr");
  const LoadResult lr = load_checkpoint(p, ckpt.spec_digest);
  EXPECT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
}

TEST_F(SelfHealingTest, QuarantineRoundTripsThroughTheCodec) {
  Checkpoint ckpt = small_checkpoint();
  ckpt.cells[0].quarantined.set(2);
  ckpt.cells[0].quarantine_reasons[2] = "injected transient shard failure";
  const std::string p = path("ckpt.bin");
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  const LoadResult lr = load_checkpoint(p, ckpt.spec_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_TRUE(lr.checkpoint.cells[0].quarantined.test(2));
  EXPECT_FALSE(lr.checkpoint.cells[0].quarantined.test(0));
  EXPECT_EQ(lr.checkpoint.cells[0].quarantine_reasons[2],
            "injected transient shard failure");
}

TEST_F(SelfHealingTest, FailedAppendIsCutOffBeforeTheRetry) {
  const std::string p = path("ckpt.bin");
  Checkpoint ckpt = small_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  const std::string committed = read_file(p);
  ckpt.cells[0].done.set(0);
  const ShardId settled[] = {{0, 0}};
  const std::vector<unsigned char> record =
      encode_record(ckpt.cells, settled, 150);

  CheckpointJournal journal(p);
  // A write that fails after partial progress, and a datasync that fails
  // after the whole record is written: either way the file is cut back to
  // its committed length, so the retry never lands behind a partial record.
  reg().arm(fp::kCkptAppend, "eintr+short:5+enospc");
  EXPECT_FALSE(journal.append(record));
  EXPECT_EQ(read_file(p), committed);
  reg().arm(fp::kCkptDatasync, "2xeintr+eio");
  EXPECT_FALSE(journal.append(record));
  EXPECT_EQ(read_file(p), committed);

  // EINTR and short writes heal in place.
  reg().arm(fp::kCkptAppend, "2xshort:3+eintr");
  reg().arm(fp::kCkptDatasync, "2xeintr");
  ASSERT_TRUE(journal.append(record));
  EXPECT_EQ(read_file(p),
            committed + std::string(record.begin(), record.end()));
  const LoadResult lr = load_checkpoint(p, ckpt.spec_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_TRUE(lr.checkpoint.cells[0].done.test(0));
  EXPECT_EQ(lr.checkpoint.frame_bytes, 150u);
}

TEST_F(SelfHealingTest, KThrowAtAppendSitesIsAbortClass) {
  const std::string p = path("ckpt.bin");
  Checkpoint ckpt = small_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, ckpt));
  ckpt.cells[0].done.set(0);
  const ShardId settled[] = {{0, 0}};
  const std::vector<unsigned char> record =
      encode_record(ckpt.cells, settled, 150);
  CheckpointJournal journal(p);
  for (const char* site : {fp::kCkptAppend, fp::kCkptDatasync}) {
    reg().disarm_all();
    reg().arm(site, "throw");
    EXPECT_THROW((void)journal.append(record), CheckpointError) << site;
  }
}

// --- Campaign under transient injection: byte-identity ---------------------

TEST_F(SelfHealingTest, CampaignHealsSinkAndCheckpointTransients) {
  constexpr std::int64_t kTrials = 150;
  constexpr std::uint64_t kSeed = 71;
  const auto [ref_frames, ref_digest] = reference(kTrials, kSeed);

  CampaignOptions opts;
  opts.checkpoint_path = path("ckpt.bin");
  opts.checkpoint_every_shards = 2;
  opts.retry = fast_retry();
  CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);
  ASSERT_EQ(svc.digest(), ref_digest);

  reg().arm(fp::kFileSinkWrite, "1xskip+eintr+1xskip+short:4+eintr");
  reg().arm(fp::kCkptWrite, "enospc");        // first periodic save retries
  reg().arm(fp::kCkptFsync, "eintr+eio");
  reg().arm(fp::kWorkerShard, "2xskip+2xeintr");  // one shard heals mid-way

  const std::string frames_path = path("frames.ndjson");
  {
    FileFrameSink sink(frames_path, fast_retry());
    const RunReport rep = svc.run(sink);
    EXPECT_EQ(rep.status, RunStatus::kComplete);
    EXPECT_EQ(rep.shards_quarantined, 0u);
  }
  EXPECT_EQ(read_file(frames_path), ref_frames)
      << "transient-failure retries must not change any output byte";
  EXPECT_GT(reg().fired_total(), 0u) << "the schedules must actually fire";
}

TEST_F(SelfHealingTest, CampaignHealsAppendTransients) {
  constexpr std::int64_t kTrials = 150;
  constexpr std::uint64_t kSeed = 76;
  const auto [ref_frames, ref_digest] = reference(kTrials, kSeed);

  CampaignOptions opts;
  opts.checkpoint_path = path("ckpt.bin");
  opts.checkpoint_every_shards = 1;
  opts.retry = fast_retry();
  CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);

  reg().arm(fp::kCkptAppend, "1xskip+short:7+enospc+eintr");
  reg().arm(fp::kCkptDatasync, "1xskip+2xeintr+eio");
  const std::string frames_path = path("frames.ndjson");
  {
    FileFrameSink sink(frames_path, fast_retry());
    EXPECT_EQ(svc.run(sink).status, RunStatus::kComplete);
  }
  EXPECT_EQ(reg().fired_total(), 6u) << "every scheduled fault must fire";
  EXPECT_EQ(read_file(frames_path), ref_frames);
  // The healed file holds every shard exactly once.
  const LoadResult lr = load_checkpoint(opts.checkpoint_path, ref_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_EQ(lr.torn_bytes, 0u);
  for (const CellProgress& cell : lr.checkpoint.cells)
    EXPECT_TRUE(cell.done.all());
}

// --- Emitter poisoning sweep (satellite 4) ---------------------------------

TEST_F(SelfHealingTest, SinkFailureAtEveryCursorPositionUnwindsAndResumes) {
  constexpr std::int64_t kTrials = 150;
  constexpr std::uint64_t kSeed = 72;
  const auto [ref_frames, ref_digest] = reference(kTrials, kSeed);

  // Count the frames of the fault-free stream (one NDJSON line per shard).
  std::uint64_t n_frames = 0;
  for (const char c : ref_frames) n_frames += c == '\n' ? 1 : 0;
  ASSERT_GE(n_frames, 4u);

  for (std::uint64_t pos = 0; pos < n_frames; ++pos) {
    SCOPED_TRACE("cursor position " + std::to_string(pos));
    const std::string tag = std::to_string(pos);
    const std::string ckpt_path = path("ckpt_" + tag);
    const std::string frames_path = path("frames_" + tag);

    CampaignOptions opts;
    opts.checkpoint_path = ckpt_path;
    opts.checkpoint_every_shards = 2;
    opts.retry = fast_retry();

    // Crash leg: the sink write for emission-cursor position `pos` throws
    // non-transiently. The emitter poisons, EVERY worker unwinds, and the
    // pool rethrows CheckpointError out of run().
    reg().disarm_all();
    if (pos > 0)
      reg().arm(fp::kFileSinkWrite, std::to_string(pos) + "xskip+throw");
    else
      reg().arm(fp::kFileSinkWrite, "throw");
    {
      CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);
      FileFrameSink sink(frames_path, fast_retry());
      EXPECT_THROW((void)svc.run(sink), CheckpointError);
    }

    // Recovery leg: fresh service instance (simulated process restart),
    // failpoints disarmed — must resume from the checkpoint and finish
    // byte-identically: no frame lost, none emitted twice.
    reg().disarm_all();
    CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);
    FileFrameSink sink(frames_path, fast_retry());
    const RunReport rep = svc.run(sink);
    EXPECT_EQ(rep.status, RunStatus::kComplete);
    EXPECT_EQ(read_file(frames_path), ref_frames);
  }
}

// --- Shard quarantine: graceful degradation --------------------------------

TEST_F(SelfHealingTest, PersistentlyFailingShardIsQuarantinedNotFatal) {
  constexpr std::int64_t kTrials = 150;
  constexpr std::uint64_t kSeed = 73;
  const auto [ref_frames, ref_digest] = reference(kTrials, kSeed);

  CampaignOptions opts;
  opts.checkpoint_path = path("ckpt.bin");
  opts.threads = 1;  // deterministic hit order: shard k = hits 3k+1..3k+3
  opts.shard_max_attempts = 3;
  opts.retry = fast_retry();

  // Shard 0 succeeds (1 hit), shard 1 fails all 3 attempts -> quarantined,
  // the rest of the campaign completes.
  reg().arm(fp::kWorkerShard, "1xskip+3xeintr");
  CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);
  const std::string frames_path = path("frames.ndjson");
  std::uint64_t total_shards = 0;
  {
    FileFrameSink sink(frames_path, fast_retry());
    const RunReport rep = svc.run(sink);
    total_shards = rep.shards_total;
    EXPECT_EQ(rep.status, RunStatus::kDegraded);
    EXPECT_EQ(rep.shards_quarantined, 1u);
    EXPECT_EQ(rep.shards_done, total_shards - 1);
  }
  const auto report = svc.quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(std::get<0>(report[0]), 0u);  // cell 0
  EXPECT_EQ(std::get<1>(report[0]), 1u);  // shard 1
  EXPECT_NE(std::get<2>(report[0]).find("transient"), std::string::npos);

  // Degraded artifacts: results refused; the surviving frame stream is the
  // fault-free stream minus exactly the quarantined shard's line.
  EXPECT_THROW((void)svc.results(), CheckpointError);
  const std::string degraded = read_file(frames_path);
  std::vector<std::string> ref_lines;
  std::size_t at = 0;
  while (at < ref_frames.size()) {
    const std::size_t nl = ref_frames.find('\n', at);
    ref_lines.push_back(ref_frames.substr(at, nl - at + 1));
    at = nl + 1;
  }
  std::string expect;
  for (std::size_t i = 0; i < ref_lines.size(); ++i)
    if (i != 1) expect += ref_lines[i];
  EXPECT_EQ(degraded, expect);

  // Resume leg: a fresh instance sees the quarantine from the checkpoint
  // (bitmap + reason survive the round trip), does NOT re-run the shard
  // (no failpoints armed — a re-run would succeed and flip the verdict),
  // and still reports degraded.
  reg().disarm_all();
  CampaignService<pl::PlProtocol> svc2(make_cells(kTrials, kSeed), opts);
  FileFrameSink sink2(frames_path, fast_retry());
  const RunReport rep2 = svc2.run(sink2);
  EXPECT_EQ(rep2.status, RunStatus::kDegraded);
  EXPECT_EQ(rep2.shards_run, 0u);
  EXPECT_EQ(rep2.shards_quarantined, 1u);
  const auto report2 = svc2.quarantine_report();
  ASSERT_EQ(report2.size(), 1u);
  EXPECT_EQ(std::get<2>(report2[0]), std::get<2>(report[0]));
  EXPECT_EQ(read_file(frames_path), expect);
}

TEST_F(SelfHealingTest, TransientShardErrorBelowTheLimitHealsCompletely) {
  constexpr std::int64_t kTrials = 150;
  constexpr std::uint64_t kSeed = 74;
  const auto [ref_frames, ref_digest] = reference(kTrials, kSeed);

  CampaignOptions opts;
  opts.threads = 2;
  opts.shard_max_attempts = 3;
  opts.retry = fast_retry();
  // Every shard's FIRST attempt fails; the retry heals each one. The
  // campaign must complete with zero quarantine and byte-identical frames
  // at a parallel thread count.
  reg().arm(fp::kWorkerShard, "p1000@1xeintr");
  CampaignService<pl::PlProtocol> svc(make_cells(kTrials, kSeed), opts);
  MemoryFrameSink sink;
  const RunReport rep = svc.run(sink);
  // p1000 fires on every attempt — including retries — so every shard
  // exhausts its attempts and quarantines. That proves the forever case;
  // the heal case needs the fault to clear, which `NxX` schedules give:
  EXPECT_EQ(rep.status, RunStatus::kDegraded);
  EXPECT_EQ(rep.shards_quarantined, rep.shards_total);

  reg().disarm_all();
  // Heal case: exactly the first 3 attempts process-wide fail (one shard
  // absorbs 1-3 of them depending on interleaving; all heal).
  reg().arm(fp::kWorkerShard, "2xeintr");
  CampaignService<pl::PlProtocol> svc2(make_cells(kTrials, kSeed), opts);
  MemoryFrameSink sink2;
  const RunReport rep2 = svc2.run(sink2);
  EXPECT_EQ(rep2.status, RunStatus::kComplete);
  EXPECT_EQ(rep2.shards_quarantined, 0u);
  EXPECT_EQ(sink2.str(), ref_frames);
  (void)svc2.results();  // must not throw
}

TEST_F(SelfHealingTest, WorkerThrowClassAbortsTheCampaign) {
  CampaignOptions opts;
  opts.retry = fast_retry();
  reg().arm(fp::kWorkerShard, "throw");
  CampaignService<pl::PlProtocol> svc(make_cells(150, 75), opts);
  MemoryFrameSink sink;
  EXPECT_THROW((void)svc.run(sink), CheckpointError);
}

}  // namespace
}  // namespace ppsim::service
