// Sharded, checkpoint/resume campaign service — simulation as
// infrastructure (ROADMAP item 2).
//
// Every bench/campaign used to be a run-to-completion process: preemption
// at trial 999,999 of a million-trial sweep lost all work. CampaignService
// turns run_campaign's cell list into a *work-queue of shards* fanned over
// core::ThreadPool, streams one NDJSON result frame per shard, and
// checkpoints progress so a campaign killed at any point — kill -9
// included — resumes and finishes **byte-identically** to an uninterrupted
// run, at any thread count, any number of times.
//
// Why the checkpoints are tiny: a trial is a pure function of its global
// index (derive_seed(seed_base, tag, t) + the stream-tag registry,
// core/stream_tags.hpp), so no simulator state is ever saved — only which
// shards completed (a bitmap) and their per-trial results (17 bytes each).
//
// The determinism argument, in three independent pieces:
//
//  1. Shard decomposition is a function of the spec alone. Shard width is
//     analysis::detail::ensemble_shard_rings(state bytes) — the cache cap,
//     explicitly NOT the thread count — so cell c always splits into the
//     same shards, and shard s of cell c always computes the same
//     RecoveryTrial records (the ensemble-sharding bit-identity contract
//     pinned by tests/core/ensemble_test.cpp).
//  2. Frames are emitted in global (cell, shard) order regardless of which
//     worker finishes first: FrameEmitter holds out-of-order frames in a
//     reorder window of at most `max_inflight_frames` and a worker that
//     runs too far ahead *blocks* in submit() — which is also the
//     backpressure: a slow frame consumer stalls emission, emission stalls
//     the window, the window stalls the workers.
//  3. A checkpoint is only written at an emission-prefix boundary, and
//     resume truncates the frame sink back to exactly the checkpointed
//     byte count — so frames past the last checkpoint are re-run and
//     re-emitted identically, and the final frame stream is the same byte
//     sequence as the uninterrupted run's.
//
// Corrupted or foreign checkpoints are REFUSED (CheckpointError), never
// silently discarded — a campaign must not quietly restart from zero
// because a disk flipped a bit (campaign_io.hpp has the codec contract).
//
// Usage shape (examples/ppsim_campaignd.cpp is the full driver):
//
//   service::CampaignService<P> svc(cells, opts);      // opts.checkpoint_path
//   service::FileFrameSink frames("campaign.frames.ndjson");
//   const auto report = svc.run(frames);               // resumes if killed
//   if (report.status == service::RunStatus::kComplete)
//     service::write_campaign_results_json(f, svc.results(), svc.digest());
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/experiment.hpp"
#include "analysis/scenario.hpp"
#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "core/parallel.hpp"
#include "service/campaign_io.hpp"
#include "service/retry.hpp"

namespace ppsim::service {

// CheckpointError lives in service/campaign_io.hpp (the codec throws it on
// injected non-transient failures); re-exported here via the include.

/// Frame-stream version, stamped into every frame. Bump on any change to
/// the frame schema (README "Campaign service").
inline constexpr int kFrameSchemaVersion = 1;

// --- Frame sinks -----------------------------------------------------------

/// Byte sink for the NDJSON frame stream. write() is always called from
/// under the emitter lock, in frame order — implementations need no
/// internal synchronization. truncate_to() is the resume hook: it must cut
/// the stream back to exactly `offset` bytes (or throw when the stream is
/// shorter), which is what makes resumed frame streams byte-identical.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void write(const char* data, std::size_t len) = 0;
  virtual void flush() {}
  virtual void truncate_to(std::uint64_t offset) = 0;
  [[nodiscard]] virtual std::uint64_t offset() const = 0;
};

/// In-memory sink (tests, in-process pause/resume).
class MemoryFrameSink final : public FrameSink {
 public:
  void write(const char* data, std::size_t len) override {
    data_.append(data, len);
  }
  void truncate_to(std::uint64_t offset) override {
    if (offset > data_.size())
      throw CheckpointError(
          "frame sink shorter than the checkpoint's frame offset — the "
          "frame buffer does not belong to this checkpoint");
    data_.resize(static_cast<std::size_t>(offset));
  }
  [[nodiscard]] std::uint64_t offset() const override { return data_.size(); }
  [[nodiscard]] const std::string& str() const noexcept { return data_; }

 private:
  std::string data_;
};

/// Regular-file sink with true truncation — the exactly-once resume path.
/// The file is opened without truncation so a resume keeps the
/// already-emitted prefix; truncate_to() then trims any frames written
/// after the last checkpoint (including a torn final line from kill -9).
///
/// Self-healing: every fwrite/fflush/ftruncate retries EINTR in place
/// (bounded by kEintrStormLimit), resumes short writes at the moved
/// cursor, and backs off on transient_errno failures under `retry` before
/// throwing CheckpointError. Failpoint sites: service.file_sink.{write,
/// flush,truncate}.
class FileFrameSink final : public FrameSink {
 public:
  explicit FileFrameSink(const std::string& path, RetryPolicy retry = {})
      : retry_(retry) {
    f_ = std::fopen(path.c_str(), "r+b");
    if (f_ == nullptr) f_ = std::fopen(path.c_str(), "w+b");
    if (f_ == nullptr)
      throw CheckpointError("cannot open frame file " + path);
    std::fseek(f_, 0, SEEK_END);
    off_ = static_cast<std::uint64_t>(std::ftell(f_));
  }
  FileFrameSink(const FileFrameSink&) = delete;
  FileFrameSink& operator=(const FileFrameSink&) = delete;
  ~FileFrameSink() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  void write(const char* data, std::size_t len) override {
    RetryState retry(retry_);
    int spins = 0;
    while (len > 0) {
      std::size_t want = len;
      const core::FailOutcome fo =
          core::failpoint(core::failpoints::kFileSinkWrite);
      if (fo.action == core::FailAction::kThrow)
        throw CheckpointError("failpoint: frame file write aborted");
      errno = 0;
      std::size_t put = 0;
      if (fo.action == core::FailAction::kErrno) {
        errno = fo.err;
      } else {
        if (fo.action == core::FailAction::kShortWrite)
          want = std::max<std::size_t>(
              1,
              std::min<std::size_t>(want, static_cast<std::size_t>(fo.arg)));
        put = std::fwrite(data, 1, want, f_);
      }
      if (put > 0) {
        data += put;
        len -= put;
        off_ += put;
        spins = 0;
        retry.reset();
        continue;
      }
      std::clearerr(f_);
      if (errno == EINTR && ++spins < kEintrStormLimit) continue;
      if (transient_errno(errno) && retry.backoff()) continue;
      throw CheckpointError(std::string("frame file write failed: ") +
                            std::strerror(errno));
    }
  }
  void flush() override {
    RetryState retry(retry_);
    int spins = 0;
    for (;;) {
      const core::FailOutcome fo =
          core::failpoint(core::failpoints::kFileSinkFlush);
      if (fo.action == core::FailAction::kThrow)
        throw CheckpointError("failpoint: frame file flush aborted");
      errno = 0;
      int r = 0;
      if (fo.action == core::FailAction::kErrno) {
        errno = fo.err;
        r = EOF;
      } else {
        r = std::fflush(f_);
      }
      if (r == 0) return;
      std::clearerr(f_);
      if (errno == EINTR && ++spins < kEintrStormLimit) continue;
      if (transient_errno(errno) && retry.backoff()) {
        spins = 0;
        continue;
      }
      throw CheckpointError(std::string("frame file flush failed: ") +
                            std::strerror(errno));
    }
  }
  void truncate_to(std::uint64_t offset) override {
    flush();
    if (off_ < offset)
      throw CheckpointError(
          "frame file shorter than the checkpoint's frame offset — the "
          "frame file does not belong to this checkpoint");
    RetryState retry(retry_);
    int spins = 0;
    for (;;) {
      const core::FailOutcome fo =
          core::failpoint(core::failpoints::kFileSinkTruncate);
      if (fo.action == core::FailAction::kThrow)
        throw CheckpointError("failpoint: frame file truncate aborted");
      errno = 0;
      int r = 0;
      if (fo.action == core::FailAction::kErrno) {
        errno = fo.err;
        r = -1;
      } else {
        r = ::ftruncate(fileno(f_), static_cast<off_t>(offset));
      }
      if (r == 0) break;
      if (errno == EINTR && ++spins < kEintrStormLimit) continue;
      if (transient_errno(errno) && retry.backoff()) {
        spins = 0;
        continue;
      }
      throw CheckpointError(std::string("ftruncate on frame file failed: ") +
                            std::strerror(errno));
    }
    std::fseek(f_, static_cast<long>(offset), SEEK_SET);
    off_ = offset;
  }
  [[nodiscard]] std::uint64_t offset() const override { return off_; }

 private:
  std::FILE* f_ = nullptr;
  std::uint64_t off_ = 0;
  RetryPolicy retry_;
};

// --- In-order frame emission with bounded in-flight window ----------------

/// What a worker hands the emitter per shard: either the rendered NDJSON
/// frame, or a quarantine verdict (zero bytes emitted — the emission cursor
/// still advances, so the surviving frame stream stays a byte-exact prefix
/// order of the fault-free stream and resume byte-identity holds).
struct Frame {
  std::string bytes;
  bool quarantined = false;
  std::string reason;  ///< meaningful when quarantined
};

/// Reorders worker-completed frames back into submission-index order and
/// bounds how far computation may run ahead of emission. submit(k, ...)
/// blocks while k >= next_ + window — the backpressure edge — then emission
/// of every ready prefix frame happens under the lock, followed by the
/// caller's on_emit hook (bitmap marking + periodic checkpointing).
class FrameEmitter {
 public:
  FrameEmitter(FrameSink& sink, std::size_t window,
               std::function<void(std::uint64_t, const Frame&)> on_emit)
      : sink_(sink), window_(std::max<std::size_t>(1, window)),
        on_emit_(std::move(on_emit)) {}

  void submit(std::uint64_t index, Frame frame) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return failed_ || index < next_ + window_; });
    // Poisoned: a sink/checkpoint failure means the frame at the emission
    // cursor will never be written; unwinding here (instead of waiting on a
    // cursor that cannot advance) lets every worker exit and the pool
    // rethrow the original exception.
    if (failed_)
      throw CheckpointError("frame emission already failed; campaign aborted");
    buffer_.emplace(index, std::move(frame));
    try {
      for (auto it = buffer_.find(next_); it != buffer_.end();
           it = buffer_.find(next_)) {
        if (!it->second.bytes.empty())
          sink_.write(it->second.bytes.data(), it->second.bytes.size());
        const Frame emitted_frame = std::move(it->second);
        buffer_.erase(it);
        on_emit_(next_, emitted_frame);
        ++next_;
        cv_.notify_all();
      }
    } catch (...) {
      failed_ = true;
      cv_.notify_all();
      throw;
    }
  }

  /// Poison from OUTSIDE submit(): a worker that fails before it can
  /// submit (abort-class shard failure) must still release every peer
  /// blocked on the reorder window — a frame that will never arrive must
  /// not stall the cursor forever. Blocked submitters wake and throw; the
  /// pool then rethrows the original exception. Never a hang.
  void poison() {
    std::lock_guard<std::mutex> lock(mu_);
    failed_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] std::uint64_t emitted() const noexcept { return next_; }

 private:
  FrameSink& sink_;
  std::size_t window_;
  std::function<void(std::uint64_t, const Frame&)> on_emit_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Frame> buffer_;  ///< ordered; window-bounded
  std::uint64_t next_ = 0;  ///< submission index the sink emits next
  bool failed_ = false;     ///< sink/checkpoint failure; campaign aborting
};

// --- The service -----------------------------------------------------------

struct CampaignOptions {
  /// Checkpoint file; empty = no persistence (in-memory progress only —
  /// a second run() on the same instance still resumes in-process).
  std::string checkpoint_path;
  /// Emitted frames between periodic checkpoints. The final checkpoint at
  /// the end of every run() (pause or completion) is unconditional.
  std::uint64_t checkpoint_every_shards = 8;
  /// Worker threads for the shard fan-out (0 = ThreadPool default). Never
  /// affects any output byte — the determinism contract of this file.
  int threads = 0;
  /// Reorder-window width: max frames in flight past the emission cursor.
  std::size_t max_inflight_frames = 16;
  /// Stop claiming work after this many frames have been emitted this
  /// run() (0 = run to completion). The graceful-preemption hook: the run
  /// checkpoints and returns RunStatus::kPaused.
  std::uint64_t stop_after_shards = 0;
  /// Folded into the spec digest. The generic digest covers names, ring
  /// sizes, plans, schedules and fault models — protocol parameters beyond
  /// n are not generically introspectable, so campaigns that vary them
  /// (e.g. a c1 sweep) should fold those knobs in here.
  std::uint64_t extra_digest = 0;
  /// Attempts per shard before a TransientError-throwing shard is
  /// quarantined (recorded in the checkpoint, campaign continues degraded).
  int shard_max_attempts = 3;
  /// Backoff policy for transient checkpoint-save/-load failures and for
  /// the delay between shard attempts. Jitter timing never touches any
  /// output byte (service/retry.hpp).
  RetryPolicy retry;
};

enum class RunStatus {
  kComplete,  ///< every shard of every cell is done; results() is valid
  kPaused,    ///< stop_after_shards hit; checkpointed, resume with run()
  kDegraded,  ///< every shard settled but some are quarantined — partial
              ///< frame stream, results() refused, quarantine recorded in
              ///< the checkpoint for the operator
};

struct RunReport {
  RunStatus status = RunStatus::kPaused;
  std::uint64_t shards_run = 0;    ///< frames emitted by this run()
  std::uint64_t shards_done = 0;   ///< cumulative, including prior runs
  std::uint64_t shards_total = 0;  ///< whole campaign
  std::uint64_t shards_quarantined = 0;  ///< cumulative quarantined shards
  std::uint64_t frame_bytes = 0;   ///< frame-sink offset after this run()
};

template <typename P, typename Topo = core::RingTopology>
class CampaignService {
 public:
  using Params = typename P::Params;
  using Spec = analysis::ScenarioSpec<P, Topo>;
  using Cell = std::pair<Params, Spec>;

  explicit CampaignService(std::vector<Cell> cells, CampaignOptions opts = {})
      : cells_(std::move(cells)), opts_(std::move(opts)) {
    progress_.reserve(cells_.size());
    for (const auto& [params, spec] : cells_) {
      CellProgress p;
      p.trials = static_cast<std::uint64_t>(
          std::max<std::int64_t>(spec.plan.trials, 0));
      // Cache-capped and thread-count-INDEPENDENT: determinism piece 1.
      p.shard_trials = analysis::detail::ensemble_shard_rings(
          static_cast<std::size_t>(params.n) * sizeof(typename P::State));
      const std::uint64_t shards =
          (p.trials + p.shard_trials - 1) / p.shard_trials;
      p.done = ShardBitmap(shards);
      p.quarantined = ShardBitmap(shards);
      p.quarantine_reasons.resize(static_cast<std::size_t>(shards));
      p.results.resize(static_cast<std::size_t>(p.trials));
      progress_.push_back(std::move(p));
    }
    digest_ = compute_digest();
  }

  /// Spec digest: the resume-compatibility identity of this campaign.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  [[nodiscard]] std::uint64_t shards_total() const noexcept {
    std::uint64_t t = 0;
    for (const CellProgress& p : progress_) t += p.shards();
    return t;
  }
  [[nodiscard]] std::uint64_t shards_done() const noexcept {
    std::uint64_t t = 0;
    for (const CellProgress& p : progress_) t += p.done.count();
    return t;
  }
  [[nodiscard]] std::uint64_t shards_quarantined() const noexcept {
    std::uint64_t t = 0;
    for (const CellProgress& p : progress_) t += p.quarantined.count();
    return t;
  }
  /// Quarantined (cell, shard, reason) triples, for operator reporting.
  [[nodiscard]] std::vector<std::tuple<std::uint32_t, std::uint64_t,
                                       std::string>>
  quarantine_report() const {
    std::vector<std::tuple<std::uint32_t, std::uint64_t, std::string>> out;
    for (std::uint32_t c = 0; c < progress_.size(); ++c)
      for (std::uint64_t s = 0; s < progress_[c].shards(); ++s)
        if (progress_[c].quarantined.test(s))
          out.emplace_back(c, s,
                           progress_[c]
                               .quarantine_reasons[static_cast<std::size_t>(s)]);
    return out;
  }
  [[nodiscard]] bool complete() const noexcept {
    for (const CellProgress& p : progress_)
      if (!p.done.all()) return false;
    return true;
  }
  /// Every shard either done or quarantined — nothing left to run.
  [[nodiscard]] bool settled() const noexcept {
    for (const CellProgress& p : progress_)
      if (p.settled() < p.shards()) return false;
    return true;
  }

  /// Execute (or resume) the campaign. Throws CheckpointError on a corrupt
  /// or foreign checkpoint / frame file — never silently restarts.
  RunReport run(FrameSink& sink) {
    resume_or_start(sink);

    struct ShardRef {
      std::uint32_t cell;
      std::uint64_t shard;
    };
    std::vector<ShardRef> pending;
    for (std::uint32_t c = 0; c < progress_.size(); ++c)
      for (std::uint64_t s = 0; s < progress_[c].shards(); ++s)
        if (!progress_[c].done.test(s) && !progress_[c].quarantined.test(s))
          pending.push_back({c, s});
    if (opts_.stop_after_shards > 0 &&
        pending.size() > opts_.stop_after_shards)
      pending.resize(static_cast<std::size_t>(opts_.stop_after_shards));

    std::uint64_t since_checkpoint = 0;
    FrameEmitter emitter(
        sink, opts_.max_inflight_frames,
        [&](std::uint64_t k, const Frame& fr) {
          // Under the emitter lock, in emission order — the only writer of
          // the done/quarantined bitmaps while workers run.
          const ShardRef ref = pending[static_cast<std::size_t>(k)];
          if (fr.quarantined) {
            progress_[ref.cell].quarantined.set(ref.shard);
            progress_[ref.cell]
                .quarantine_reasons[static_cast<std::size_t>(ref.shard)] =
                fr.reason;
          } else {
            progress_[ref.cell].done.set(ref.shard);
          }
          if (!opts_.checkpoint_path.empty() &&
              ++since_checkpoint >= opts_.checkpoint_every_shards) {
            since_checkpoint = 0;
            sink.flush();
            persist(sink.offset());
          }
        });

    core::ThreadPool pool(opts_.threads);
    pool.for_index(pending.size(), [&](std::size_t k) {
      try {
        const ShardRef ref = pending[k];
        Frame frame;
        std::string reason;
        if (run_shard_with_retry(ref.cell, ref.shard, reason)) {
          frame.bytes = render_frame(ref.cell, ref.shard);
        } else {
          frame.quarantined = true;
          frame.reason = std::move(reason);
        }
        emitter.submit(k, std::move(frame));
      } catch (...) {
        // An abort-class failure anywhere in the worker (not just inside
        // submit) poisons the emitter so peers blocked on the reorder
        // window unwind instead of waiting on a frame that will never
        // arrive.
        emitter.poison();
        throw;
      }
    });

    sink.flush();
    frame_bytes_ = sink.offset();
    if (!opts_.checkpoint_path.empty()) persist(frame_bytes_);

    RunReport rep;
    rep.shards_run = emitter.emitted();
    rep.shards_done = shards_done();
    rep.shards_total = shards_total();
    rep.shards_quarantined = shards_quarantined();
    rep.frame_bytes = frame_bytes_;
    rep.status = complete()  ? RunStatus::kComplete
                 : settled() ? RunStatus::kDegraded
                             : RunStatus::kPaused;
    return rep;
  }

  /// Folded per-cell campaign results — exactly run_campaign's output for
  /// the same cells. Only valid once complete().
  [[nodiscard]] std::vector<analysis::CampaignResult> results() const {
    if (shards_quarantined() > 0)
      throw CheckpointError(
          "campaign results requested with quarantined shards — the "
          "campaign is degraded, not complete (see quarantine_report())");
    if (!complete())
      throw CheckpointError(
          "campaign results requested before every shard completed");
    std::vector<analysis::CampaignResult> out;
    out.reserve(cells_.size());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const auto& [params, spec] = cells_[c];
      analysis::CampaignResult r;
      r.scenario = spec.name;
      r.n = params.n;
      r.faults = analysis::total_faults(spec.schedule);
      r.stats = analysis::detail::fold_recovery(progress_[c].results);
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  void run_shard(std::uint32_t cell, std::uint64_t shard) {
    const auto& [params, spec] = cells_[cell];
    CellProgress& p = progress_[cell];
    analysis::detail::ensemble_recovery_shard<P, Topo>(
        params, spec, static_cast<std::size_t>(p.shard_first(shard)),
        static_cast<std::size_t>(p.shard_count(shard)),
        std::span<analysis::RecoveryTrial>(p.results));
  }

  /// Run one shard with the transient-failure contract: a TransientError
  /// (including an errno-class outcome of the service.worker.shard
  /// failpoint) is retried up to shard_max_attempts with backoff; on
  /// exhaustion the shard is reported for quarantine (return false,
  /// `reason` set). Any other exception propagates — abort-class. A
  /// retried shard recomputes the exact same RecoveryTrial records (a
  /// trial is a pure function of its global index), so retries never
  /// change an output byte.
  [[nodiscard]] bool run_shard_with_retry(std::uint32_t cell,
                                          std::uint64_t shard,
                                          std::string& reason) {
    RetryPolicy pol = opts_.retry;
    pol.max_attempts = std::max(1, opts_.shard_max_attempts);
    RetryState retry(pol);
    for (;;) {
      try {
        const core::FailOutcome fo =
            core::failpoint(core::failpoints::kWorkerShard);
        if (fo.action == core::FailAction::kThrow)
          throw CheckpointError("failpoint: shard worker aborted");
        if (fo.action == core::FailAction::kErrno)
          throw TransientError(
              "failpoint: injected transient shard failure (errno " +
              std::to_string(fo.err) + ")");
        run_shard(cell, shard);
        return true;
      } catch (const TransientError& e) {
        if (!retry.backoff()) {
          reason = e.what();
          return false;
        }
      }
    }
  }

  /// One NDJSON frame: a pure function of (spec, shard results), so a
  /// re-run shard after a crash reproduces its frame byte for byte.
  [[nodiscard]] std::string render_frame(std::uint32_t cell,
                                         std::uint64_t shard) const {
    const auto& [params, spec] = cells_[cell];
    const CellProgress& p = progress_[cell];
    const std::uint64_t first = p.shard_first(shard);
    const std::uint64_t count = p.shard_count(shard);

    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr) throw CheckpointError("open_memstream failed");
    {
      core::JsonWriter w(mem, /*compact=*/true);
      w.begin_object();
      w.field("schema_version", kFrameSchemaVersion);
      w.field("frame", "shard");
      w.field("campaign", digest_hex(digest_));
      w.field("cell", static_cast<std::int64_t>(cell));
      w.field("scenario", spec.name);
      w.field("n", params.n);
      w.field("faults", analysis::total_faults(spec.schedule));
      w.field("shard", shard);
      w.field("first_trial", first);
      w.field("trials", count);
      std::int64_t stabilized = 0;
      std::int64_t healed = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto& t = p.results[static_cast<std::size_t>(first + i)];
        stabilized += t.stabilized ? 1 : 0;
        healed += t.healed ? 1 : 0;
      }
      w.field("stabilized", stabilized);
      w.field("healed", healed);
      // Per-trial records, in trial order: flags bit0 = stabilized,
      // bit1 = healed; step fields are 0 where the flag says so.
      w.key("flags");
      w.begin_array();
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto& t = p.results[static_cast<std::size_t>(first + i)];
        w.value(static_cast<std::int64_t>((t.stabilized ? 1 : 0) |
                                          (t.healed ? 2 : 0)));
      }
      w.end_array();
      w.key("stabilize_steps");
      w.begin_array();
      for (std::uint64_t i = 0; i < count; ++i)
        w.value(p.results[static_cast<std::size_t>(first + i)]
                    .stabilize_steps);
      w.end_array();
      w.key("recovery_steps");
      w.begin_array();
      for (std::uint64_t i = 0; i < count; ++i)
        w.value(p.results[static_cast<std::size_t>(first + i)]
                    .recovery_steps);
      w.end_array();
      w.end_object();
      w.finish();  // '\n' — the NDJSON delimiter
    }
    std::fclose(mem);
    std::string frame(buf, len);
    std::free(buf);
    return frame;
  }

  /// Called under the emitter lock while workers are still writing results
  /// for *pending* shards, so the snapshot copies only the records of
  /// shards whose done bit is set — those ranges are quiescent (their
  /// writer finished before its frame was submitted). Copying the whole
  /// results vector here would race with in-flight shard writers.
  void persist(std::uint64_t frame_bytes) {
    Checkpoint ckpt;
    ckpt.spec_digest = digest_;
    ckpt.frame_bytes = frame_bytes;
    ckpt.cells.resize(progress_.size());
    for (std::size_t c = 0; c < progress_.size(); ++c) {
      const CellProgress& from = progress_[c];
      CellProgress& to = ckpt.cells[c];
      to.trials = from.trials;
      to.shard_trials = from.shard_trials;
      to.done = from.done;
      to.quarantined = from.quarantined;
      to.quarantine_reasons = from.quarantine_reasons;
      to.results.resize(from.results.size());
      for (std::uint64_t sh = 0; sh < from.shards(); ++sh) {
        if (!from.done.test(sh)) continue;
        const std::uint64_t first = from.shard_first(sh);
        const std::uint64_t count = from.shard_count(sh);
        for (std::uint64_t i = 0; i < count; ++i)
          to.results[static_cast<std::size_t>(first + i)] =
              from.results[static_cast<std::size_t>(first + i)];
      }
    }
    // Transient save failures (ENOSPC, EIO — injected or real) back off
    // and retry the whole idempotent save before giving up.
    RetryState retry(opts_.retry);
    while (!save_checkpoint(opts_.checkpoint_path, ckpt))
      if (!retry.backoff())
        throw CheckpointError("cannot write checkpoint " +
                              opts_.checkpoint_path);
  }

  void resume_or_start(FrameSink& sink) {
    if (!opts_.checkpoint_path.empty()) {
      // kIoError is a disk hiccup, not a verdict about the file: retry the
      // read with backoff before refusing.
      RetryState retry(opts_.retry);
      LoadResult lr;
      for (;;) {
        lr = load_checkpoint(opts_.checkpoint_path, digest_);
        if (lr.status != LoadStatus::kIoError || !retry.backoff()) break;
      }
      switch (lr.status) {
        case LoadStatus::kLoaded: {
          if (lr.checkpoint.cells.size() != progress_.size())
            throw CheckpointError(
                "checkpoint cell count does not match the campaign");
          for (std::size_t c = 0; c < progress_.size(); ++c) {
            const CellProgress& from = lr.checkpoint.cells[c];
            if (from.trials != progress_[c].trials ||
                from.shard_trials != progress_[c].shard_trials ||
                from.quarantined.size() != progress_[c].shards())
              throw CheckpointError(
                  "checkpoint shard decomposition does not match the "
                  "campaign (same digest, inconsistent shape)");
          }
          progress_ = std::move(lr.checkpoint.cells);
          frame_bytes_ = lr.checkpoint.frame_bytes;
          break;
        }
        case LoadStatus::kAbsent:
          break;  // fresh campaign; frame_bytes_ keeps in-memory progress
        case LoadStatus::kCorrupt:
        case LoadStatus::kSpecMismatch:
          throw CheckpointError("refusing checkpoint " +
                                opts_.checkpoint_path + ": " + lr.error);
        case LoadStatus::kIoError:
          throw CheckpointError("checkpoint read keeps failing " +
                                opts_.checkpoint_path + ": " + lr.error);
      }
    }
    // Trim the sink back to the boundary the adopted progress covers:
    // frames past the last checkpoint (or a torn partial line) are re-run.
    sink.truncate_to(frame_bytes_);
  }

  [[nodiscard]] std::uint64_t compute_digest() const {
    Digest d;
    d.u64(kCheckpointFormat);
    d.u64(opts_.extra_digest);
    d.u64(cells_.size());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const auto& [params, spec] = cells_[c];
      d.str(spec.name);
      d.i64(params.n);
      d.i64(spec.plan.trials);
      d.u64(spec.plan.max_steps);
      d.u64(spec.plan.seed_base);
      d.u64(spec.plan.tag);
      d.u64(spec.plan.check_every);
      d.u64(spec.schedule.size());
      for (const analysis::FaultEvent& ev : spec.schedule) {
        d.u64(ev.at_step);
        d.i64(ev.faults);
      }
      d.f64(spec.sched_faults.loss_p);
      d.u64(spec.sched_faults.arc_weights.size());
      for (double wgt : spec.sched_faults.arc_weights) d.f64(wgt);
      d.u64(progress_[c].shard_trials);
    }
    return d.value();
  }

  std::vector<Cell> cells_;
  CampaignOptions opts_;
  std::vector<CellProgress> progress_;
  std::uint64_t digest_ = 0;
  std::uint64_t frame_bytes_ = 0;  ///< sink offset covered by `progress_`
};

/// The final-aggregate artifact, shared by the daemon, the bench harness
/// and the tests so "byte-identical final artifacts" is one code path:
/// per-cell RecoveryStats in cell order, stamped with the campaign digest.
inline void write_campaign_results_json(
    std::FILE* out, std::span<const analysis::CampaignResult> results,
    std::uint64_t digest) {
  core::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", kFrameSchemaVersion);
  w.field("campaign", digest_hex(digest));
  w.key("results");
  w.begin_array();
  for (const analysis::CampaignResult& r : results) {
    w.begin_object();
    w.field("scenario", r.scenario);
    w.field("n", r.n);
    w.field("faults", r.faults);
    w.field("trials", r.stats.trials);
    w.field("stabilization_failures", r.stats.stabilization_failures);
    w.field("recovery_failures", r.stats.recovery_failures);
    w.field("median", r.stats.recovery.median);
    w.field("mean", r.stats.recovery.mean);
    w.field("p90", r.stats.recovery.p90);
    w.field("max", r.stats.recovery.max);
    w.key("raw");
    w.begin_array();
    for (std::uint64_t v : r.stats.raw) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
}

}  // namespace ppsim::service
