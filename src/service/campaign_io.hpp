// Campaign-service persistence: the checkpoint codec, the shard bitmap and
// the frame sinks (src/service/campaign.hpp is the driver on top).
//
// Design constraints, in order:
//
//  * Checkpoints are tiny. Every trial is a pure function of its global
//    index (derive_seed + the stream-tag registry), so a checkpoint never
//    snapshots simulator state — only WHICH shards finished and the
//    per-trial results of those shards: a completed-shard bitmap per cell
//    plus packed 17-byte RecoveryTrial records.
//
//  * A checkpoint file is a snapshot followed by records. The snapshot is
//    the whole document (magic, format version, its own length, the
//    campaign-spec digest, the frame-sink cursor, every cell's bitmaps and
//    trial records) sealed by an FNV-1a checksum. Each record appended
//    after it holds the shards settled since the previous one — (cell,
//    shard) and either the trial records or the quarantine reason — plus
//    the frame-sink cursor they cover, behind a checked length header and
//    sealed by its own FNV-1a checksum. Loading folds the records into the
//    snapshot, in file order.
//
//  * A checkpoint is either valid or refused. A bad snapshot checksum, a
//    bad record header or a complete record with a bad checksum is
//    kCorrupt; a valid file for a *different* campaign is kSpecMismatch.
//    Neither ever degrades to "silently start over" — the caller must
//    decide (the service throws; tests/service/campaign_service_test.cpp
//    pins both refusals).
//
//  * Saves cost what they add. The snapshot is only ever written whole
//    and atomically — to `<path>.tmp`, fsync, rename(2), fsync of the
//    directory — when a fresh campaign creates the file and when a resume
//    compacts the records into a new snapshot. Every checkpoint in between
//    is one record appended to the file through an O_APPEND descriptor and
//    made durable with fdatasync; a failed append is cut back off the file
//    before the retry. The torn-tail rule: a kill -9 mid-append can leave
//    the last record cut short at EOF. It was never committed, so the load
//    drops it (LoadResult::torn_bytes) and resumes from the previous
//    record's cursor; the resume's compaction then removes it from disk.
//
//  * Encoding is explicit little-endian bytes (not struct memcpy), so a
//    checkpoint written by any build of this code reads back identically.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/scenario.hpp"
#include "core/failpoint.hpp"
#include "service/retry.hpp"

namespace ppsim::service {

/// Refusal to resume (corrupt/foreign checkpoint, inconsistent frame file)
/// and the abort-class outcome of a kThrow failpoint on any service I/O
/// path. Declared here (not campaign.hpp) because the codec's injected
/// non-transient failures throw it too.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- FNV-1a (64-bit): spec digests and the checkpoint checksum ------------

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a hasher. Used for two independent jobs: the campaign
/// *spec digest* (folds names, ring sizes, trial plans, schedules — the
/// resume-compatibility contract) and the checkpoint *content checksum*
/// (folds the serialized bytes — the corruption detector).
class Digest {
 public:
  void bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

/// Digest rendered the way frames and logs carry it.
[[nodiscard]] inline std::string digest_hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return std::string(buf);
}

// --- Completed-shard bitmap -----------------------------------------------

/// Fixed-size bitmap over a cell's shard indices. One bit per shard, 64
/// shards per word — a million-trial cell at shard width 64 is ~2 KiB.
class ShardBitmap {
 public:
  ShardBitmap() = default;
  explicit ShardBitmap(std::uint64_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }
  void set(std::uint64_t i) noexcept { words_[i / 64] |= 1ULL << (i % 64); }
  [[nodiscard]] std::uint64_t size() const noexcept { return bits_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t c = 0;
    for (std::uint64_t w : words_) {
      while (w != 0) {
        w &= w - 1;
        ++c;
      }
    }
    return c;
  }
  [[nodiscard]] bool all() const noexcept { return count() == bits_; }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  std::vector<std::uint64_t>& words() noexcept { return words_; }

 private:
  std::uint64_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

// --- Checkpoint document ---------------------------------------------------

/// On-disk format version. Bump on any layout change — a file of an
/// unknown version is refused as kCorrupt-class, never misread.
/// v2: per-cell quarantined-shard bitmap + reason strings (graceful
/// degradation under persistent shard failure); one whole document.
/// v3: the snapshot carries its own length and is followed by appended
/// records (the file-header comment has the layout).
inline constexpr std::uint64_t kCheckpointFormat = 3;
/// "PPCKPT01" as little-endian bytes.
inline constexpr std::uint64_t kCheckpointMagic = 0x3130'5450'4B43'5050ULL;

/// Progress of one campaign cell: the shard decomposition, the bitmap of
/// completed shards, and a results slot per trial (meaningful exactly where
/// the owning shard's bit is set — only those records are serialized).
struct CellProgress {
  std::uint64_t trials = 0;
  std::uint64_t shard_trials = 1;  ///< rings per shard; thread-independent
  ShardBitmap done;                ///< one bit per shard: results valid
  /// One bit per shard: persistently failing shard, retried
  /// shard_max_attempts times and then recorded here instead of aborting
  /// the campaign (disjoint from `done` — a shard is done, quarantined, or
  /// pending). Quarantined shards emit no frame and block results().
  ShardBitmap quarantined;
  /// Reason per shard; meaningful exactly where `quarantined` is set (only
  /// those entries are serialized). Size = shards.
  std::vector<std::string> quarantine_reasons;
  std::vector<analysis::RecoveryTrial> results;  ///< size = trials

  [[nodiscard]] std::uint64_t shards() const noexcept { return done.size(); }
  [[nodiscard]] std::uint64_t settled() const noexcept {
    return done.count() + quarantined.count();
  }
  [[nodiscard]] std::uint64_t shard_first(std::uint64_t s) const noexcept {
    return s * shard_trials;
  }
  [[nodiscard]] std::uint64_t shard_count(std::uint64_t s) const noexcept {
    const std::uint64_t first = shard_first(s);
    return first >= trials ? 0
                           : std::min<std::uint64_t>(shard_trials,
                                                     trials - first);
  }
};

/// The whole checkpoint document, in memory.
struct Checkpoint {
  std::uint64_t spec_digest = 0;
  std::uint64_t frame_bytes = 0;  ///< frame-sink offset this checkpoint covers
  std::vector<CellProgress> cells;
};

enum class LoadStatus {
  kLoaded,        ///< checkpoint read and verified
  kAbsent,        ///< no file at the path (a fresh campaign, not an error)
  kCorrupt,       ///< bad magic/version/checksum/structure — refuse
  kSpecMismatch,  ///< valid file for a DIFFERENT campaign spec — refuse
  kIoError,       ///< fread failed mid-file (std::ferror) — an I/O failure,
                  ///< NOT a corruption verdict; the caller may retry
};

struct LoadResult {
  LoadStatus status = LoadStatus::kAbsent;
  Checkpoint checkpoint;
  std::string error;  ///< human-readable reason for kCorrupt/kSpecMismatch
  /// Bytes of an uncommitted record cut short at EOF that the load dropped
  /// (the torn-tail rule); 0 when the file ends on a record boundary.
  std::uint64_t torn_bytes = 0;
};

/// One shard of one cell: what a checkpoint record settles.
struct ShardId {
  std::uint32_t cell = 0;
  std::uint64_t shard = 0;
};

namespace detail {

/// Byte-buffer writer with explicit little-endian encoding.
struct ByteSink {
  std::vector<unsigned char> out;
  void u8(std::uint8_t v) { out.push_back(v); }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    out.insert(out.end(), b, b + 8);
  }
  /// Overwrite the u64 at byte `at` (a length written before it was known).
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out[at + static_cast<std::size_t>(i)] =
          static_cast<unsigned char>(v >> (8 * i));
  }
  void str(const std::string& s) {
    u64(s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
};

/// Bounds-checked little-endian reader; any overrun flips `ok` sticky-false.
struct ByteSource {
  const unsigned char* p = nullptr;
  std::size_t len = 0;
  std::size_t at = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (at + 1 > len) {
      ok = false;
      return 0;
    }
    return p[at++];
  }
  std::uint64_t u64() {
    if (at + 8 > len) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[at + static_cast<std::size_t>(i)])
           << (8 * i);
    at += 8;
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    // Quarantine reasons are short human strings; an implausible length is
    // a corruption symptom, not a reason to allocate gigabytes.
    if (!ok || n > (1ULL << 16) || at + n > len) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p + at),
                  static_cast<std::size_t>(n));
    at += static_cast<std::size_t>(n);
    return s;
  }
};

inline void encode_trial(ByteSink& s, const analysis::RecoveryTrial& t) {
  s.u8(static_cast<std::uint8_t>((t.stabilized ? 1 : 0) |
                                 (t.healed ? 2 : 0)));
  s.u64(t.stabilize_steps);
  s.u64(t.recovery_steps);
}

inline analysis::RecoveryTrial decode_trial(ByteSource& s) {
  analysis::RecoveryTrial t;
  const std::uint8_t flags = s.u8();
  t.stabilized = (flags & 1) != 0;
  t.healed = (flags & 2) != 0;
  t.stabilize_steps = s.u64();
  t.recovery_steps = s.u64();
  return t;
}

/// The trial records of shard `sh`, in trial order.
inline void encode_shard(ByteSink& s, const CellProgress& cell,
                         std::uint64_t sh) {
  const std::uint64_t first = cell.shard_first(sh);
  for (std::uint64_t i = 0; i < cell.shard_count(sh); ++i)
    encode_trial(s, cell.results[static_cast<std::size_t>(first + i)]);
}

inline void decode_shard(ByteSource& s, CellProgress& cell, std::uint64_t sh) {
  const std::uint64_t first = cell.shard_first(sh);
  for (std::uint64_t i = 0; i < cell.shard_count(sh); ++i)
    cell.results[static_cast<std::size_t>(first + i)] = decode_trial(s);
}

/// Decode a snapshot body into `ckpt`; "" or the refusal reason.
[[nodiscard]] inline std::string decode_body(ByteSource& s, Checkpoint& ckpt) {
  ckpt.spec_digest = s.u64();
  ckpt.frame_bytes = s.u64();
  const std::uint64_t n_cells = s.u64();
  if (!s.ok || n_cells > (1ULL << 32)) return "implausible cell count";
  for (std::uint64_t c = 0; c < n_cells && s.ok; ++c) {
    CellProgress cell;
    cell.trials = s.u64();
    cell.shard_trials = s.u64();
    const std::uint64_t shards = s.u64();
    if (!s.ok || cell.shard_trials == 0 ||
        shards != (cell.trials + cell.shard_trials - 1) / cell.shard_trials)
      return "inconsistent shard decomposition";
    cell.done = ShardBitmap(shards);
    for (std::uint64_t& w : cell.done.words()) w = s.u64();
    cell.quarantined = ShardBitmap(shards);
    for (std::uint64_t& w : cell.quarantined.words()) w = s.u64();
    cell.quarantine_reasons.resize(static_cast<std::size_t>(shards));
    for (std::uint64_t sh = 0; sh < shards && s.ok; ++sh) {
      if (cell.done.test(sh) && cell.quarantined.test(sh))
        return "shard both completed and quarantined";
      if (cell.quarantined.test(sh))
        cell.quarantine_reasons[static_cast<std::size_t>(sh)] = s.str();
    }
    cell.results.resize(static_cast<std::size_t>(cell.trials));
    for (std::uint64_t sh = 0; sh < shards && s.ok; ++sh)
      if (cell.done.test(sh)) decode_shard(s, cell, sh);
    ckpt.cells.push_back(std::move(cell));
  }
  if (!s.ok || s.at != s.len) return "truncated or oversized snapshot";
  return {};
}

/// Record entry kinds: the shard's trial records follow, or its
/// quarantine reason does.
inline constexpr std::uint8_t kEntryDone = 0;
inline constexpr std::uint8_t kEntryQuarantined = 1;

/// Fold one record payload into `ckpt`; "" or the refusal reason. Each
/// entry must settle a shard the checkpoint has not settled yet, and the
/// frame cursor never runs backwards.
[[nodiscard]] inline std::string apply_record(ByteSource& s,
                                              Checkpoint& ckpt) {
  const std::uint64_t cursor = s.u64();
  const std::uint64_t entries = s.u64();
  if (!s.ok || cursor < ckpt.frame_bytes)
    return "frame cursor runs backwards";
  for (std::uint64_t e = 0; e < entries && s.ok; ++e) {
    const std::uint64_t c = s.u64();
    const std::uint64_t sh = s.u64();
    const std::uint8_t kind = s.u8();
    if (!s.ok || c >= ckpt.cells.size()) return "unknown cell";
    CellProgress& cell = ckpt.cells[static_cast<std::size_t>(c)];
    if (sh >= cell.shards() || cell.done.test(sh) || cell.quarantined.test(sh))
      return "unknown or already settled shard";
    if (kind == kEntryDone) {
      cell.done.set(sh);
      decode_shard(s, cell, sh);
    } else if (kind == kEntryQuarantined) {
      cell.quarantined.set(sh);
      cell.quarantine_reasons[static_cast<std::size_t>(sh)] = s.str();
    } else {
      return "unknown entry kind";
    }
  }
  if (!s.ok || s.at != s.len) return "truncated or oversized payload";
  ckpt.frame_bytes = cursor;
  return {};
}

/// Bytes before a record's payload: its length and the length's FNV-1a.
inline constexpr std::size_t kRecordHeader = 16;

[[nodiscard]] inline std::uint64_t record_length_check(std::uint64_t len) {
  Digest d;
  d.u64(len);
  return d.value();
}

}  // namespace detail

/// Serialize a snapshot: magic, format, body length, body, then an FNV-1a
/// checksum over everything before it. The body holds the spec digest,
/// the frame cursor, then per cell its shard decomposition, both bitmaps,
/// the quarantine reasons and the trial records of done shards. `cells` is
/// read only where a shard is settled, so it may be live progress with
/// shards in flight.
[[nodiscard]] inline std::vector<unsigned char> encode_snapshot(
    std::uint64_t spec_digest, std::uint64_t frame_bytes,
    std::span<const CellProgress> cells) {
  detail::ByteSink s;
  s.u64(kCheckpointMagic);
  s.u64(kCheckpointFormat);
  s.u64(0);  // body length, patched below
  s.u64(spec_digest);
  s.u64(frame_bytes);
  s.u64(cells.size());
  for (const CellProgress& cell : cells) {
    s.u64(cell.trials);
    s.u64(cell.shard_trials);
    s.u64(cell.done.size());
    for (std::uint64_t w : cell.done.words()) s.u64(w);
    // Normalize an unsized quarantine bitmap (a CellProgress built before
    // any quarantine happened) to the shard count so the layout is fixed.
    const ShardBitmap empty_q(cell.quarantined.size() == cell.done.size()
                                  ? 0
                                  : cell.done.size());
    const ShardBitmap& q =
        cell.quarantined.size() == cell.done.size() ? cell.quarantined
                                                    : empty_q;
    for (std::uint64_t w : q.words()) s.u64(w);
    for (std::uint64_t sh = 0; sh < cell.shards(); ++sh)
      if (q.test(sh))
        s.str(sh < cell.quarantine_reasons.size()
                  ? cell.quarantine_reasons[static_cast<std::size_t>(sh)]
                  : std::string());
    for (std::uint64_t sh = 0; sh < cell.shards(); ++sh)
      if (cell.done.test(sh)) detail::encode_shard(s, cell, sh);
  }
  s.patch_u64(16, s.out.size() - 24);
  Digest sum;
  sum.bytes(s.out.data(), s.out.size());
  s.u64(sum.value());
  return s.out;
}

/// The whole checkpoint as one snapshot with no records.
[[nodiscard]] inline std::vector<unsigned char> encode_checkpoint(
    const Checkpoint& ckpt) {
  return encode_snapshot(ckpt.spec_digest, ckpt.frame_bytes, ckpt.cells);
}

/// Serialize one record settling `settled` (each shard's done or
/// quarantined bit must be set in `cells`), covering the frame stream up to
/// `frame_bytes`.
[[nodiscard]] inline std::vector<unsigned char> encode_record(
    std::span<const CellProgress> cells, std::span<const ShardId> settled,
    std::uint64_t frame_bytes) {
  detail::ByteSink s;
  s.u64(0);  // payload length and its check, patched below
  s.u64(0);
  s.u64(frame_bytes);
  s.u64(settled.size());
  for (const ShardId& id : settled) {
    const CellProgress& cell = cells[id.cell];
    s.u64(id.cell);
    s.u64(id.shard);
    if (cell.quarantined.test(id.shard)) {
      s.u8(detail::kEntryQuarantined);
      s.str(cell.quarantine_reasons[static_cast<std::size_t>(id.shard)]);
      continue;
    }
    s.u8(detail::kEntryDone);
    detail::encode_shard(s, cell, id.shard);
  }
  const std::uint64_t len = s.out.size() - detail::kRecordHeader;
  s.patch_u64(0, len);
  s.patch_u64(8, detail::record_length_check(len));
  Digest sum;
  sum.bytes(s.out.data() + detail::kRecordHeader, len);
  s.u64(sum.value());
  return s.out;
}

/// Decode + verify a checkpoint file image: the snapshot, then every
/// record folded in file order. `expected_digest` is the running
/// campaign's spec digest; a valid checkpoint with a different digest is
/// kSpecMismatch. A record cut short at EOF is dropped (torn_bytes); any
/// other bad byte is kCorrupt.
[[nodiscard]] inline LoadResult decode_checkpoint(
    const unsigned char* data, std::size_t len,
    std::uint64_t expected_digest) {
  LoadResult out;
  out.status = LoadStatus::kCorrupt;
  if (len < 6 * 8) {
    out.error = "file shorter than the fixed header";
    return out;
  }
  detail::ByteSource head{data, len, 0, true};
  if (head.u64() != kCheckpointMagic) {
    out.error = "bad magic (not a ppsim campaign checkpoint)";
    return out;
  }
  if (const std::uint64_t fmt = head.u64(); fmt != kCheckpointFormat) {
    out.error = "unsupported checkpoint format version " + std::to_string(fmt);
    return out;
  }
  const std::uint64_t body = head.u64();
  if (body > len - 32) {
    out.error = "snapshot runs past the end of the file";
    return out;
  }
  const auto snapshot_end = static_cast<std::size_t>(32 + body);
  {  // Checksum first: everything else assumes intact bytes.
    Digest sum;
    sum.bytes(data, snapshot_end - 8);
    detail::ByteSource tail{data + (snapshot_end - 8), 8, 0, true};
    if (sum.value() != tail.u64()) {
      out.error = "snapshot checksum mismatch (corrupted file)";
      return out;
    }
  }
  detail::ByteSource s{data, snapshot_end - 8, head.at, true};
  Checkpoint ckpt;
  if (std::string err = detail::decode_body(s, ckpt); !err.empty()) {
    out.error = std::move(err);
    return out;
  }
  if (ckpt.spec_digest != expected_digest) {
    out.status = LoadStatus::kSpecMismatch;
    out.error = "checkpoint is for campaign " + digest_hex(ckpt.spec_digest) +
                ", this campaign is " + digest_hex(expected_digest) +
                " — refusing to resume (and refusing to silently restart)";
    return out;
  }
  std::size_t at = snapshot_end;
  while (at < len) {
    const std::size_t left = len - at;
    detail::ByteSource r{data + at, left, 0, true};
    const std::uint64_t rec = r.u64();
    const std::uint64_t check = r.u64();
    if (!r.ok) break;  // header cut by EOF: torn
    auto where = [&] { return "record at byte " + std::to_string(at); };
    if (check != detail::record_length_check(rec)) {
      out.error = where() + ": length header corrupt";
      return out;
    }
    if (rec > left || left - rec < detail::kRecordHeader + 8)
      break;  // payload or checksum cut by EOF: torn
    const unsigned char* payload = data + at + detail::kRecordHeader;
    const auto plen = static_cast<std::size_t>(rec);
    Digest sum;
    sum.bytes(payload, plen);
    detail::ByteSource tail{payload + plen, 8, 0, true};
    if (sum.value() != tail.u64()) {
      out.error = where() + ": checksum mismatch (corrupted file)";
      return out;
    }
    detail::ByteSource p{payload, plen, 0, true};
    if (std::string err = detail::apply_record(p, ckpt); !err.empty()) {
      out.error = where() + ": " + err;
      return out;
    }
    at += detail::kRecordHeader + plen + 8;
  }
  out.status = LoadStatus::kLoaded;
  out.torn_bytes = len - at;
  out.checkpoint = std::move(ckpt);
  return out;
}

// --- The I/O guard ---------------------------------------------------------

namespace detail {

/// What io_transfer moved: `bytes` before it stopped, and `ok` false when
/// it stopped on a failed call (errno says why). `ok` with fewer bytes than
/// asked for means the op reported end of file.
struct Transfer {
  std::size_t bytes = 0;
  bool ok = true;
};

/// The guard around a chunked transfer of up to `len` bytes at `site`, and
/// the only code in the service that turns a core::FailOutcome into
/// behaviour. `op(at, want)` moves at most `want` bytes starting `at` bytes
/// in and returns how many it moved, 0 at end of file, or -1 with errno
/// set. Each op call is one attempt and evaluates `site` once (null: no
/// failpoint covers the call): kThrow throws CheckpointError, kErrno fails
/// the attempt with that errno without running the op, kShortWrite caps
/// the attempt at its byte count (at least 1), and kDelay (already slept)
/// and kNone run it as asked. The next attempt resumes at the moved
/// cursor. EINTR, real or injected, re-runs the attempt in place, at most
/// kEintrStormLimit times in a row without progress; any other failure
/// stops the transfer, and the caller decides between retrying the whole
/// operation and giving up (service/retry.hpp).
template <typename Op>
[[nodiscard]] Transfer io_transfer(const char* site, std::size_t len,
                                   Op&& op) {
  using core::FailAction;
  Transfer t;
  for (int spins = 0; t.bytes < len;) {
    const core::FailOutcome fo =
        site == nullptr ? core::FailOutcome{} : core::failpoint(site);
    if (fo.action == FailAction::kThrow)
      throw CheckpointError(
          std::string("failpoint: non-transient I/O failure injected at ") +
          site);
    std::size_t want = len - t.bytes;
    if (fo.action == FailAction::kShortWrite)
      want = std::max<std::size_t>(
          1, std::min<std::size_t>(want, static_cast<std::size_t>(fo.arg)));
    errno = fo.action == FailAction::kErrno ? fo.err : 0;
    const std::ptrdiff_t got =
        fo.action == FailAction::kErrno ? -1 : op(t.bytes, want);
    if (got > 0) {
      t.bytes += static_cast<std::size_t>(got);
      spins = 0;
    } else if (got == 0) {
      break;
    } else if (errno != EINTR || ++spins >= kEintrStormLimit) {
      t.ok = false;
      break;
    }
  }
  return t;
}

/// The guard around one syscall: io_transfer with `op()` as its one
/// attempt, which returns true on success and sets errno on failure.
/// Returns false with errno set when the call failed.
template <typename Op>
[[nodiscard]] bool io_call(const char* site, Op&& op) {
  return io_transfer(site, 1, [&](std::size_t, std::size_t) {
           return op() ? std::ptrdiff_t{1} : std::ptrdiff_t{-1};
         }).ok;
}

/// std::fwrite as an io_transfer op: the bytes it wrote, or -1 with the
/// stream's error flag cleared for the next attempt.
[[nodiscard]] inline std::ptrdiff_t fwrite_op(std::FILE* f, const void* data,
                                              std::size_t want) {
  const std::size_t put = std::fwrite(data, 1, want, f);
  if (put > 0) return static_cast<std::ptrdiff_t>(put);
  std::clearerr(f);
  return -1;
}

/// Directory component of `path` for the post-rename directory fsync
/// ("" and bare filenames live in ".").
[[nodiscard]] inline std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace detail

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
/// Self-healing: fwrite, fflush and ftruncate run under the I/O guard
/// (EINTR in place, short writes resumed at the moved cursor), and a
/// transient_errno failure backs off under `retry` and tries again before
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
    for (;;) {
      const detail::Transfer t = detail::io_transfer(
          core::failpoints::kFileSinkWrite, len,
          [&](std::size_t at, std::size_t want) {
            return detail::fwrite_op(f_, data + at, want);
          });
      data += t.bytes;
      len -= t.bytes;
      off_ += t.bytes;
      if (len == 0) return;
      if (t.bytes > 0) retry.reset();
      backoff_or_throw(retry, "write");
    }
  }
  void flush() override {
    RetryState retry(retry_);
    while (!detail::io_call(core::failpoints::kFileSinkFlush, [&] {
      if (std::fflush(f_) == 0) return true;
      std::clearerr(f_);
      return false;
    }))
      backoff_or_throw(retry, "flush");
  }
  void truncate_to(std::uint64_t offset) override {
    flush();
    if (off_ < offset)
      throw CheckpointError(
          "frame file shorter than the checkpoint's frame offset — the "
          "frame file does not belong to this checkpoint");
    RetryState retry(retry_);
    while (!detail::io_call(core::failpoints::kFileSinkTruncate, [&] {
      return ::ftruncate(fileno(f_), static_cast<off_t>(offset)) == 0;
    }))
      backoff_or_throw(retry, "truncate");
    std::fseek(f_, static_cast<long>(offset), SEEK_SET);
    off_ = offset;
  }
  [[nodiscard]] std::uint64_t offset() const override { return off_; }

 private:
  /// After a failed guarded call: back off and return when errno is
  /// transient and attempts remain, else throw.
  static void backoff_or_throw(RetryState& retry, const char* op) {
    const int err = errno;
    if (transient_errno(err) && retry.backoff()) return;
    throw CheckpointError(std::string("frame file ") + op +
                          " failed: " + std::strerror(err));
  }

  std::FILE* f_ = nullptr;
  std::uint64_t off_ = 0;
  RetryPolicy retry_;
};

// --- Checkpoint file I/O ---------------------------------------------------

/// Durable atomic whole-file write of an encoded snapshot: write
/// `<path>.tmp`, fflush + fsync the file, rename over `path`, then fsync
/// the parent directory — so a *committed* snapshot survives power loss,
/// not just process death (rename alone orders the replacement but does
/// not persist the directory entry). Every syscall runs under the I/O
/// guard. Returns false (with the OS error on stderr) when any step fails;
/// safe to retry wholesale — every step is idempotent. Until the rename,
/// every failing or throwing exit closes and removes `<path>.tmp`.
[[nodiscard]] inline bool save_snapshot(const std::string& path,
                                        const std::vector<unsigned char>& bytes) {
  struct TmpFile {
    std::string name;
    std::FILE* f = nullptr;
    bool renamed = false;
    ~TmpFile() {
      if (f != nullptr) std::fclose(f);
      if (!renamed) std::remove(name.c_str());
    }
  } tmp{path + ".tmp"};
  const auto fail = [](const std::string& what) {
    std::perror(("campaign checkpoint: " + what).c_str());
    return false;
  };

  if (!detail::io_call(core::failpoints::kCkptOpen, [&] {
        return (tmp.f = std::fopen(tmp.name.c_str(), "wb")) != nullptr;
      }))
    return fail("fopen " + tmp.name);
  const detail::Transfer put = detail::io_transfer(
      core::failpoints::kCkptWrite, bytes.size(),
      [&](std::size_t at, std::size_t want) {
        return detail::fwrite_op(tmp.f, bytes.data() + at, want);
      });
  // Durability barrier: libc buffer -> page cache (fflush), page cache ->
  // storage (fsync), BEFORE the rename makes the file the checkpoint.
  if (put.bytes != bytes.size() || std::fflush(tmp.f) != 0 ||
      !detail::io_call(core::failpoints::kCkptFsync,
                       [&] { return ::fsync(fileno(tmp.f)) == 0; }))
    return fail("write " + tmp.name);
  std::fclose(tmp.f);
  tmp.f = nullptr;

  if (!detail::io_call(core::failpoints::kCkptRename, [&] {
        return std::rename(tmp.name.c_str(), path.c_str()) == 0;
      }))
    return fail("commit " + path);
  tmp.renamed = true;

  // The rename is only durable once the parent directory's entry is on
  // storage. A failure here fails the save; the retry re-runs the whole
  // (idempotent) sequence.
  const std::string dir = detail::parent_dir(path);
  if (!detail::io_call(core::failpoints::kCkptDirFsync, [&] {
        const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
        if (dfd < 0) return false;
        const bool synced = ::fsync(dfd) == 0;
        const int err = errno;
        ::close(dfd);
        errno = err;
        return synced;
      }))
    return fail("fsync dir of " + path);
  return true;
}

/// save_snapshot of the whole checkpoint: the file then holds one snapshot
/// and no records.
[[nodiscard]] inline bool save_checkpoint(const std::string& path,
                                          const Checkpoint& ckpt) {
  return save_snapshot(path, encode_checkpoint(ckpt));
}

/// The append side of a committed checkpoint file: an O_APPEND descriptor
/// that CampaignService holds open for one run(). append() adds one record
/// and makes it durable with fdatasync; the file length after the last
/// successful append is the committed length.
class CheckpointJournal {
 public:
  /// Opens `path`, which save_snapshot has just committed. Throws
  /// CheckpointError when it cannot.
  explicit CheckpointJournal(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    const off_t end = fd_ < 0 ? -1 : ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      const int err = errno;
      if (fd_ >= 0) ::close(fd_);
      throw CheckpointError("cannot open checkpoint " + path_ +
                            " for appending: " + std::strerror(err));
    }
    committed_ = static_cast<std::uint64_t>(end);
  }
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;
  ~CheckpointJournal() { ::close(fd_); }

  /// Append `record` (an encode_record result) and fdatasync it, both under
  /// the I/O guard. Any failure returns false (with the OS error on stderr)
  /// after cutting the file back to the committed length, so the caller
  /// may retry wholesale and no partial record is ever followed by
  /// another. Throws CheckpointError on a kThrow failpoint outcome, or when
  /// the cut itself fails (the file then ends in a torn record, which the
  /// next load drops).
  [[nodiscard]] bool append(const std::vector<unsigned char>& record) {
    const detail::Transfer put = detail::io_transfer(
        core::failpoints::kCkptAppend, record.size(),
        [&](std::size_t at, std::size_t want) {
          return ::write(fd_, record.data() + at, want);
        });
    if (put.bytes == record.size() &&
        detail::io_call(core::failpoints::kCkptDatasync,
                        [&] { return ::fdatasync(fd_) == 0; })) {
      committed_ += record.size();
      return true;
    }
    std::perror(("campaign checkpoint: append to " + path_).c_str());
    if (!detail::io_call(nullptr, [&] {
          return ::ftruncate(fd_, static_cast<off_t>(committed_)) == 0;
        }))
      throw CheckpointError("cannot cut a failed append off checkpoint " +
                            path_ + ": " + std::strerror(errno));
    return false;
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t committed_ = 0;  ///< file length through the last record
};

/// Load a checkpoint file. A missing file is kAbsent (fresh campaign); a
/// read error (std::ferror or an injected errno — NOT a short file, which
/// the codec judges) is kIoError so the caller can retry instead of
/// refusing a file that is merely behind a flaky disk; every other failure
/// mode is a refusal with a reason. The reads run under the I/O guard.
[[nodiscard]] inline LoadResult load_checkpoint(
    const std::string& path, std::uint64_t expected_digest) {
  LoadResult out;
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    out.status = LoadStatus::kAbsent;
    return out;
  }
  std::vector<unsigned char> bytes;
  const detail::Transfer got = detail::io_transfer(
      core::failpoints::kCkptRead, std::numeric_limits<std::size_t>::max(),
      [&](std::size_t, std::size_t want) -> std::ptrdiff_t {
        unsigned char buf[4096];
        const std::size_t r =
            std::fread(buf, 1, std::min(want, sizeof buf), f.get());
        bytes.insert(bytes.end(), buf, buf + r);
        if (r > 0 || std::ferror(f.get()) == 0)
          return static_cast<std::ptrdiff_t>(r);
        std::clearerr(f.get());
        return -1;
      });
  if (!got.ok) {
    out.status = LoadStatus::kIoError;
    out.error = "read error on checkpoint file (errno " +
                std::to_string(errno) +
                ") — an I/O failure, not a corruption verdict";
    return out;
  }
  return decode_checkpoint(bytes.data(), bytes.size(), expected_digest);
}

}  // namespace ppsim::service
