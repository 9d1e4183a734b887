// Campaign service: crash/resume byte-identity, checkpoint codec refusals,
// and the frame/aggregate determinism contracts of src/service/campaign.hpp.
//
// The acceptance bar: a campaign killed at ANY shard boundary and resumed
// any number of times — each resume in a fresh service instance (simulated
// process death) at a DIFFERENT thread count — must produce a frame stream
// and a final aggregate artifact byte-identical to one uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "core/failpoint.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"
#include "service/campaign_io.hpp"

namespace ppsim::service {
namespace {

using Cell = CampaignService<pl::PlProtocol>::Cell;

std::uint64_t budget(int n, int kappa_max) {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 600ULL * n_u * n_u * static_cast<std::uint64_t>(kappa_max) +
         2'000'000;
}

/// Two burst cells on a small PL ring. `trials` > the cache-capped shard
/// width (64 rings at this n) so every cell splits into several shards —
/// the kill points of the resume tests land between real shards.
std::vector<Cell> make_cells(std::int64_t trials, std::uint64_t seed_base) {
  const auto p = pl::PlParams::make(8, 2);
  std::vector<Cell> cells;
  std::uint64_t tag_base = 21;
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

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string render_results(const std::vector<analysis::CampaignResult>& rs,
                           std::uint64_t digest) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  write_campaign_results_json(
      mem, std::span<const analysis::CampaignResult>(rs), digest);
  std::fclose(mem);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

/// Frames of one uninterrupted, checkpoint-free run of make_cells(150, 33).
std::string reference_frames() {
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33));
  MemoryFrameSink frames;
  EXPECT_EQ(ref.run(frames).status, RunStatus::kComplete);
  return frames.str();
}

std::uint64_t reference_digest() {
  return CampaignService<pl::PlProtocol>(make_cells(150, 33)).digest();
}

/// Checkpoint-file bytes after a fresh make_cells(150, 33) campaign runs
/// `shards` shards with one record per shard: a snapshot plus `shards`
/// records. The files are left at `<TempDir>ppsim_<tag>.{ckpt,ndjson}`.
std::string paused_checkpoint(const std::string& tag, std::uint64_t shards) {
  const std::string base = testing::TempDir() + "ppsim_" + tag;
  std::remove((base + ".ckpt").c_str());
  std::remove((base + ".ndjson").c_str());
  CampaignOptions opts;
  opts.checkpoint_path = base + ".ckpt";
  opts.checkpoint_every_shards = 1;
  opts.stop_after_shards = shards;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(base + ".ndjson");
  EXPECT_EQ(svc.run(frames).status, RunStatus::kPaused);
  return read_file(base + ".ckpt");
}

/// Resume the make_cells(150, 33) campaign from `<TempDir>ppsim_<tag>.*`
/// in a fresh service instance and return its status.
RunStatus resume(const std::string& tag) {
  const std::string base = testing::TempDir() + "ppsim_" + tag;
  CampaignOptions opts;
  opts.checkpoint_path = base + ".ckpt";
  opts.checkpoint_every_shards = 1;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(base + ".ndjson");
  return svc.run(frames).status;
}

LoadResult decode(const std::string& bytes, std::size_t len) {
  return decode_checkpoint(
      reinterpret_cast<const unsigned char*>(bytes.data()), len,
      reference_digest());
}

TEST(ShardBitmapTest, SetTestCountAll) {
  ShardBitmap b(70);  // spans two words
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.all());
  for (std::uint64_t i = 0; i < 70; i += 2) b.set(i);
  EXPECT_EQ(b.count(), 35u);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(65));
  for (std::uint64_t i = 1; i < 70; i += 2) b.set(i);
  EXPECT_TRUE(b.all());
  EXPECT_TRUE(ShardBitmap(0).all());  // empty cell: vacuously complete
}

TEST(CheckpointCodecTest, RoundtripPreservesProgress) {
  Checkpoint ckpt;
  ckpt.spec_digest = 0xDEADBEEFCAFEF00DULL;
  ckpt.frame_bytes = 12345;
  CellProgress cell;
  cell.trials = 150;
  cell.shard_trials = 64;
  cell.done = ShardBitmap(3);
  cell.results.resize(150);
  cell.done.set(0);
  cell.done.set(2);  // note: the last (short, 22-trial) shard
  for (std::size_t i = 0; i < 150; ++i) {
    cell.results[i].stabilized = true;
    cell.results[i].healed = (i % 3) != 0;
    cell.results[i].stabilize_steps = 1000 + i;
    cell.results[i].recovery_steps = 77 * i;
  }
  ckpt.cells.push_back(cell);

  const auto bytes = encode_checkpoint(ckpt);
  const auto lr =
      decode_checkpoint(bytes.data(), bytes.size(), ckpt.spec_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  ASSERT_EQ(lr.checkpoint.cells.size(), 1u);
  const CellProgress& got = lr.checkpoint.cells[0];
  EXPECT_EQ(lr.checkpoint.frame_bytes, 12345u);
  EXPECT_EQ(got.trials, 150u);
  EXPECT_EQ(got.shard_trials, 64u);
  EXPECT_EQ(got.done.count(), 2u);
  // Records of done shards roundtrip exactly; shard 1's slots stay default.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(got.results[i].stabilize_steps, 1000 + i);
    EXPECT_EQ(got.results[i].recovery_steps, 77 * i);
  }
  for (std::size_t i = 64; i < 128; ++i)
    EXPECT_FALSE(got.results[i].stabilized);
  for (std::size_t i = 128; i < 150; ++i) {
    EXPECT_TRUE(got.results[i].stabilized);
    EXPECT_EQ(got.results[i].healed, (i % 3) != 0);
  }
}

TEST(CheckpointCodecTest, EveryRefusalIsExplicit) {
  Checkpoint ckpt;
  ckpt.spec_digest = 42;
  CellProgress cell;
  cell.trials = 10;
  cell.shard_trials = 4;
  cell.done = ShardBitmap(3);
  cell.results.resize(10);
  ckpt.cells.push_back(cell);
  const auto bytes = encode_checkpoint(ckpt);

  // Digest of a different campaign: kSpecMismatch, not a silent restart.
  auto lr = decode_checkpoint(bytes.data(), bytes.size(), 43);
  EXPECT_EQ(lr.status, LoadStatus::kSpecMismatch);
  EXPECT_NE(lr.error.find("refusing"), std::string::npos);

  // Any flipped byte breaks the trailing checksum: kCorrupt.
  for (const std::size_t at : {std::size_t{0}, bytes.size() / 2,
                               bytes.size() - 1}) {
    auto bad = bytes;
    bad[at] ^= 0x01;
    lr = decode_checkpoint(bad.data(), bad.size(), 42);
    EXPECT_EQ(lr.status, LoadStatus::kCorrupt) << "flipped byte " << at;
  }

  // Truncation at every prefix length: kCorrupt, never a misread.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    lr = decode_checkpoint(bytes.data(), len, 42);
    EXPECT_EQ(lr.status, LoadStatus::kCorrupt) << "prefix " << len;
  }
}

TEST(CampaignServiceTest, SpecDigestSeparatesCampaigns) {
  CampaignService<pl::PlProtocol> a(make_cells(150, 33));
  CampaignService<pl::PlProtocol> b(make_cells(150, 34));  // seed differs
  CampaignService<pl::PlProtocol> c(make_cells(140, 33));  // trials differ
  CampaignService<pl::PlProtocol> a2(make_cells(150, 33));
  EXPECT_EQ(a.digest(), a2.digest());
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());

  CampaignOptions extra;
  extra.extra_digest = 7;  // protocol knobs beyond n fold in here
  CampaignService<pl::PlProtocol> d(make_cells(150, 33), extra);
  EXPECT_NE(a.digest(), d.digest());
}

TEST(CampaignServiceTest, SpecDigestIsPinned) {
  // The digest is stamped into every frame and results.json: a change to
  // the checkpoint format (or anything else outside the spec) must not
  // move it.
  EXPECT_EQ(CampaignService<pl::PlProtocol>(make_cells(150, 33)).digest(),
            0x2b0da116eb273ecaULL);
}

TEST(CampaignServiceTest, CellWithEmptyCallbackIsRejectedAtConstruction) {
  auto cells = make_cells(150, 33);
  cells[1].second.recovered = {};
  EXPECT_THROW(CampaignService<pl::PlProtocol>{cells}, std::invalid_argument);
}

TEST(CampaignServiceTest, CompletesAndMatchesRunCampaign) {
  CampaignOptions opts;
  opts.threads = 2;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  EXPECT_EQ(svc.shards_total(), 6u);  // 2 cells x ceil(150 / 64)
  MemoryFrameSink frames;
  const RunReport rep = svc.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  EXPECT_EQ(rep.shards_run, 6u);
  EXPECT_EQ(rep.frame_bytes, frames.str().size());
  // One NDJSON frame per shard.
  std::size_t lines = 0;
  for (char ch : frames.str()) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);
  EXPECT_NE(frames.str().find("\"frame\":\"shard\""), std::string::npos);

  // The folded aggregates are exactly run_campaign's for the same cells
  // (the service's sharding is output-invisible, like every driver's).
  const auto cells = make_cells(150, 33);
  const auto reference = analysis::run_campaign<pl::PlProtocol>(
      std::span<const Cell>(cells));
  const auto got = svc.results();
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].scenario, reference[i].scenario);
    EXPECT_EQ(got[i].n, reference[i].n);
    EXPECT_EQ(got[i].faults, reference[i].faults);
    EXPECT_EQ(got[i].stats.raw, reference[i].stats.raw);
    EXPECT_EQ(got[i].stats.trials, reference[i].stats.trials);
    EXPECT_EQ(got[i].stats.stabilization_failures,
              reference[i].stats.stabilization_failures);
    EXPECT_EQ(got[i].stats.recovery_failures,
              reference[i].stats.recovery_failures);
  }
}

TEST(CampaignServiceTest, FramesAreThreadCountInvariant) {
  std::string baseline;
  for (int threads : {1, 2, 5}) {
    CampaignOptions opts;
    opts.threads = threads;
    opts.max_inflight_frames = threads == 5 ? 1 : 16;  // tightest window too
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    MemoryFrameSink frames;
    ASSERT_EQ(svc.run(frames).status, RunStatus::kComplete);
    if (baseline.empty()) baseline = frames.str();
    EXPECT_EQ(frames.str(), baseline) << "threads=" << threads;
  }
}

TEST(CampaignServiceTest, KillResumeAnyCutPointIsByteIdentical) {
  // Uninterrupted reference run (no checkpointing at all).
  CampaignOptions ref_opts;
  ref_opts.threads = 2;
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33), ref_opts);
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);
  const std::string ref_aggregate =
      render_results(ref.results(), ref.digest());

  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_resume.ckpt";
  const std::string frames_path = dir + "ppsim_resume.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  // Kill after every single shard, resuming each time in a FRESH service
  // instance (simulated process death) at a rotating thread count.
  const int threads[] = {3, 1, 4, 2, 5, 1, 2};
  int round = 0;
  for (;; ++round) {
    ASSERT_LT(round, 10) << "campaign failed to converge to completion";
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every_shards = 1;
    opts.threads = threads[round % 7];
    opts.stop_after_shards = 1;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    const RunReport rep = svc.run(frames);
    if (rep.status == RunStatus::kComplete) {
      EXPECT_EQ(render_results(svc.results(), svc.digest()), ref_aggregate);
      break;
    }
    EXPECT_EQ(rep.shards_run, 1u);
  }
  // 6 shards, one per round: round 5 runs the last shard and reports
  // kComplete (hitting the stop limit on the final shard still completes
  // the bitmap).
  EXPECT_EQ(round, 5);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());

  // Resuming an already-complete campaign is a no-op with identical bytes.
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> again(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  const RunReport rep = again.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  EXPECT_EQ(rep.shards_run, 0u);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());
  EXPECT_EQ(render_results(again.results(), again.digest()), ref_aggregate);
}

TEST(CampaignServiceTest, TornFrameTailIsRerunNotDuplicated) {
  // kill -9 between a frame write and the next checkpoint: the frame file
  // carries bytes past ckpt.frame_bytes (even a torn partial line). Resume
  // must truncate them and re-emit identically.
  CampaignOptions ref_opts;
  ref_opts.threads = 2;
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33), ref_opts);
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);

  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_torn.ckpt";
  const std::string frames_path = dir + "ppsim_torn.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {  // Run 2 shards, checkpoint after each.
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every_shards = 1;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // Simulate the torn tail: garbage written after the last checkpoint.
  write_file(frames_path, read_file(frames_path) + "{\"frame\":\"sha");

  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  ASSERT_EQ(svc.run(frames).status, RunStatus::kComplete);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());
}

TEST(CampaignServiceTest, CorruptCheckpointIsRefusedNotRestarted) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_corrupt.ckpt";
  const std::string frames_path = dir + "ppsim_corrupt.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  std::string bytes = read_file(ckpt);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(ckpt, bytes);

  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  EXPECT_THROW(svc.run(frames), CheckpointError);
  EXPECT_EQ(svc.shards_done(), 0u);  // and no work was silently redone
}

TEST(CampaignServiceTest, ForeignCheckpointIsRefused) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_foreign.ckpt";
  const std::string frames_path = dir + "ppsim_foreign.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {  // Checkpoint belongs to the seed_base=33 campaign...
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 1;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // ...so the seed_base=34 campaign must refuse it.
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 34), opts);
  FileFrameSink frames(frames_path);
  try {
    svc.run(frames);
    FAIL() << "foreign checkpoint accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
  }
}

TEST(CampaignServiceTest, MissingFrameFileWithCheckpointIsRefused) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_noframes.ckpt";
  const std::string frames_path = dir + "ppsim_noframes.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // The frame file vanished but the checkpoint says frames were emitted:
  // the sink cannot be rewound to the checkpoint boundary — refuse.
  std::remove(frames_path.c_str());
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  EXPECT_THROW(svc.run(frames), CheckpointError);
}

TEST(CampaignServiceTest, ResultsBeforeCompletionThrow) {
  CampaignOptions opts;
  opts.stop_after_shards = 1;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  MemoryFrameSink frames;
  ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  EXPECT_THROW((void)svc.results(), CheckpointError);

  // In-process resume (same instance, no checkpoint file): each run() adds
  // one more shard (the stop limit is part of the instance's options) until
  // the stream completes.
  RunReport rep;
  for (int round = 0; round < 6 && rep.status != RunStatus::kComplete;
       ++round)
    rep = svc.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33));
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);
  EXPECT_EQ(frames.str(), ref_frames.str());
}

// --- The appended records ---------------------------------------------------

TEST(CheckpointJournalTest, RecordsAppendAndFoldIntoTheSnapshot) {
  const std::string two = paused_checkpoint("fold2", 2);
  const std::string three = paused_checkpoint("fold3", 3);
  // The third shard's checkpoint is one record appended to the second's.
  ASSERT_LT(two.size(), three.size());
  EXPECT_EQ(three.compare(0, two.size(), two), 0);
  const LoadResult lr = decode(three, three.size());
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_EQ(lr.torn_bytes, 0u);
  EXPECT_EQ(lr.checkpoint.cells[0].done.count() +
                lr.checkpoint.cells[1].done.count(),
            3u);
  // Folding the records gives the document a whole-file save would hold.
  const auto bytes = encode_checkpoint(lr.checkpoint);
  const LoadResult again = decode_checkpoint(bytes.data(), bytes.size(),
                                             reference_digest());
  ASSERT_EQ(again.status, LoadStatus::kLoaded) << again.error;
  EXPECT_EQ(encode_checkpoint(again.checkpoint), bytes);
}

TEST(CheckpointJournalTest, TornTailAtEveryOffsetLoadsThePreviousRecord) {
  const std::string two = paused_checkpoint("torn2", 2);
  const std::string three = paused_checkpoint("torn3", 3);
  const LoadResult prev = decode(two, two.size());
  ASSERT_EQ(prev.status, LoadStatus::kLoaded) << prev.error;
  const LoadResult last = decode(three, three.size());
  ASSERT_EQ(last.status, LoadStatus::kLoaded) << last.error;
  ASSERT_GT(last.checkpoint.frame_bytes, prev.checkpoint.frame_bytes);
  const auto prev_doc = encode_checkpoint(prev.checkpoint);

  // A cut anywhere inside the last record: it was never committed, so the
  // load is the previous record's state and cursor.
  for (std::size_t len = two.size(); len < three.size(); ++len) {
    const LoadResult lr = decode(three, len);
    ASSERT_EQ(lr.status, LoadStatus::kLoaded) << "cut at " << len;
    EXPECT_EQ(lr.torn_bytes, len - two.size());
    EXPECT_EQ(lr.checkpoint.frame_bytes, prev.checkpoint.frame_bytes);
    EXPECT_EQ(encode_checkpoint(lr.checkpoint), prev_doc) << "cut at " << len;
  }

  // And the campaign resumes from such a file byte-identically.
  write_file(testing::TempDir() + "ppsim_torn3.ckpt",
             three.substr(0, two.size() + (three.size() - two.size()) / 2));
  EXPECT_EQ(resume("torn3"), RunStatus::kComplete);
  EXPECT_EQ(read_file(testing::TempDir() + "ppsim_torn3.ndjson"),
            reference_frames());
}

TEST(CheckpointJournalTest, FlippedByteAnywhereIsCorrupt) {
  const std::string three = paused_checkpoint("flip", 3);
  // Every byte is covered: the snapshot by its checksum, each record's
  // length by its header check and its payload by its checksum. A complete
  // record that fails its check is corruption even at the tail — only a
  // record cut short by EOF counts as torn.
  for (std::size_t at = 0; at < three.size(); ++at) {
    std::string bad = three;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    EXPECT_EQ(decode(bad, bad.size()).status, LoadStatus::kCorrupt)
        << "flipped byte " << at;
  }

  // run() refuses a file with a damaged record before the tail.
  const std::string two = paused_checkpoint("flip2", 2);
  const std::string one = paused_checkpoint("flip1", 1);
  std::string bad = three;
  bad[one.size() + (two.size() - one.size()) / 2] ^= 0x01;
  write_file(testing::TempDir() + "ppsim_flip.ckpt", bad);
  EXPECT_THROW(resume("flip"), CheckpointError);
  EXPECT_EQ(read_file(testing::TempDir() + "ppsim_flip.ckpt"), bad)
      << "a refused checkpoint must be left as found";
}

TEST(CheckpointJournalTest, FormatTwoFileIsRefused) {
  // Only the current format loads: a file that claims format 2 (a snapshot
  // with no records) is refused like any unknown version, and left as
  // found.
  std::string two = paused_checkpoint("v2", 2);
  ASSERT_GE(two.size(), 16u);
  two[8] = 2;  // the format field, little-endian
  const LoadResult lr = decode(two, two.size());
  EXPECT_EQ(lr.status, LoadStatus::kCorrupt);
  EXPECT_EQ(lr.error, "unsupported checkpoint format version 2");
  const std::string ckpt = testing::TempDir() + "ppsim_v2.ckpt";
  write_file(ckpt, two);
  EXPECT_THROW(resume("v2"), CheckpointError);
  EXPECT_EQ(read_file(ckpt), two);
}

TEST(CheckpointJournalTest, CrashBetweenCompactionAndFirstAppendResumes) {
  auto& reg = core::FailpointRegistry::instance();
  reg.disarm_all();
  (void)paused_checkpoint("compact", 2);
  // The resume compacts, then dies at its first append.
  reg.arm(core::failpoints::kCkptAppend, "throw");
  EXPECT_THROW(resume("compact"), CheckpointError);
  reg.disarm_all();

  // Left behind: the compacted snapshot alone, holding both shards.
  const std::string left = read_file(testing::TempDir() + "ppsim_compact.ckpt");
  const LoadResult lr = decode(left, left.size());
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  EXPECT_EQ(lr.checkpoint.cells[0].done.count() +
                lr.checkpoint.cells[1].done.count(),
            2u);
  const auto snapshot = encode_checkpoint(lr.checkpoint);
  EXPECT_EQ(left, std::string(snapshot.begin(), snapshot.end()));

  EXPECT_EQ(resume("compact"), RunStatus::kComplete);
  EXPECT_EQ(read_file(testing::TempDir() + "ppsim_compact.ndjson"),
            reference_frames());
}

}  // namespace
}  // namespace ppsim::service
