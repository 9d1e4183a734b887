// Retry/backoff policy for the campaign service's self-healing I/O paths
// (the I/O guard in src/service/campaign_io.hpp, and the shard workers of
// src/service/campaign.hpp).
//
// Failure taxonomy, applied uniformly across sinks, checkpoints and shard
// workers:
//
//   * EINTR            — not a failure at all: retried immediately, without
//                        consuming a backoff attempt, bounded only by
//                        kEintrStormLimit consecutive occurrences without
//                        progress (a real kernel delivers signals, it does
//                        not deliver EINTR forever — the bound exists so an
//                        adversarial `*xeintr` failpoint schedule proves a
//                        loud abort, never a hang).
//   * transient_errno  — EAGAIN/EWOULDBLOCK, ENOSPC, EIO: retried with
//                        bounded exponential backoff + jitter (RetryState).
//                        ENOSPC is transient at campaign timescale (log
//                        rotation, another process releasing space);
//                        after max_attempts the error is permanent and the
//                        caller throws.
//   * anything else    — permanent: thrown immediately.
//
// service::TransientError is the exception-shaped face of the same class:
// a shard worker throwing it is retried up to shard_max_attempts and then
// *quarantined* (recorded in the checkpoint, campaign continues degraded);
// any other exception aborts the campaign.
//
// Determinism: backoff jitter draws from a dedicated registered stream
// (stream_seed(policy.seed, streams::kRetryJitter)), so retry *timing* is
// reproducible for a given seed — and no retry ever touches an engine
// stream, so retries cannot change any output byte (the byte-identity
// contract under injected failure, proven by
// scripts/campaign_chaos_check.sh and tests/service/self_healing_test.cpp).
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "core/rng.hpp"
#include "core/stream_tags.hpp"

namespace ppsim::service {

/// A failure the self-healing layer may retry: thrown by shard workers
/// (including the service.worker.shard failpoint) to request the bounded
/// retry-then-quarantine path instead of a campaign abort.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Consecutive no-progress EINTRs tolerated before the loop declares an
/// EINTR storm and fails permanently (hang prevention under adversarial
/// injection; unreachable for real signal-interrupted syscalls).
inline constexpr int kEintrStormLimit = 1024;

/// errno values the backoff loops treat as retryable. EINTR is deliberately
/// NOT here — it is retried for free, outside the attempt budget.
[[nodiscard]] inline bool transient_errno(int e) noexcept {
  return e == EAGAIN || e == EWOULDBLOCK || e == ENOSPC || e == EIO;
}

struct RetryPolicy {
  int max_attempts = 5;  ///< total tries of the guarded operation
  std::uint64_t base_delay_us = 200;   ///< first backoff; doubles per retry
  std::uint64_t max_delay_us = 50'000; ///< backoff ceiling
  std::uint64_t seed = 0;              ///< jitter stream seed (kRetryJitter)
};

/// One retry ladder: construct per guarded operation, call backoff() after
/// a transient failure — it sleeps (full jitter over the exponential cap)
/// and returns true while attempts remain. reset() on forward progress
/// (e.g. a short write that moved some bytes) restores the full budget.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy)
      : policy_(policy),
        rng_(core::stream_seed(policy.seed, core::streams::kRetryJitter)) {}

  /// Record a failed attempt; sleep and allow another unless exhausted.
  [[nodiscard]] bool backoff() {
    if (attempt_ + 1 >= policy_.max_attempts) return false;
    ++attempt_;
    std::uint64_t cap = policy_.base_delay_us;
    for (int i = 1; i < attempt_ && cap < policy_.max_delay_us; ++i)
      cap *= 2;
    if (cap > policy_.max_delay_us) cap = policy_.max_delay_us;
    const std::uint64_t us = cap == 0 ? 0 : rng_.bounded(cap + 1);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
    return true;
  }

  void reset() noexcept { attempt_ = 0; }
  [[nodiscard]] int attempt() const noexcept { return attempt_; }

 private:
  RetryPolicy policy_;
  core::Xoshiro256pp rng_;
  int attempt_ = 0;
};

}  // namespace ppsim::service
