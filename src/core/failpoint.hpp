// Deterministic failpoint subsystem — fault injection for the campaign
// service's own I/O paths (the infrastructure that measures protocol
// self-stabilization must itself tolerate the fault classes it injects).
//
// A *failpoint* is a named site in syscall-adjacent code. The site is an
// always-compiled call to core::failpoint(name) whose fast path is one
// relaxed atomic load (nothing armed -> no lock, no lookup, no outcome);
// arming a site attaches a *schedule* that decides, hit by hit, whether the
// site reports an injected failure to its caller. The caller — not this
// file — translates the outcome into its own failure idiom (a negative
// ::write with errno set, a short fwrite, a thrown TransientError), so the
// recovery code under test runs exactly the branch a real kernel failure
// would take.
//
// Schedules are deterministic: counted units fire an exact number of times
// in declaration order, and the probabilistic unit draws from a dedicated
// Xoshiro256pp stream seeded via stream_seed(seed, streams::kFailpoint) —
// same seed, same firing pattern, independent of every simulation stream.
//
// Spec grammar (programmatic arm() and the PPSIM_FAILPOINTS env var):
//
//   config := site '=' spec (';' site '=' spec)*
//   spec   := unit ('+' unit)*           units consumed front to back
//   unit   := [prefix 'x'] action        no prefix = fire once
//   prefix := <N>                        fire the action N times
//           | '*'                        fire forever (must be last)
//           | 'p'<permille>'@'<seed>     fire each hit with probability
//                                        permille/1000, drawn from the
//                                        seeded stream (must be last)
//   action := 'eintr' | 'eagain' | 'enospc' | 'eio'   errno shorthands
//           | 'errno:<N>'                any errno value
//           | 'short:<bytes>'            short write: cap the op at <bytes>
//           | 'delay:<ms>'               sleep, then run the op normally
//           | 'skip'                     pass <N> hits without firing
//           | 'throw'                    non-transient failure (the caller
//                                        throws its abort-class exception)
//
// Examples:
//   service.ckpt.write=enospc                 fail-once ENOSPC
//   service.file_sink.write=2xskip+3xeintr    pass 2 hits, then 3 EINTRs
//   service.file_sink.write=2xshort:1         two 1-byte short writes
//   service.worker.shard=p250@42xeintr        ~25% of shard attempts fail,
//                                             pattern fixed by seed 42
//
// The site-name registry below is the enumerable contract: arm() refuses a
// name that is not registered (typo-proof), and tests iterate kAll to prove
// every site is reachable and recoverable
// (tests/core/failpoint_test.cpp, tests/service/self_healing_test.cpp).
//
// Threading: evaluate/arm/disarm are mutex-serialized (the armed path is a
// test/chaos path; the unarmed fast path never takes the lock). Delay
// actions sleep *outside* the lock.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/stream_tags.hpp"

namespace ppsim::core {

namespace failpoints {

// --- Site-name registry (append new sites here AND in kAll) ---------------

/// FileFrameSink::write's fwrite call (service/campaign.hpp).
inline constexpr const char* kFileSinkWrite = "service.file_sink.write";
/// FileFrameSink::flush's fflush call.
inline constexpr const char* kFileSinkFlush = "service.file_sink.flush";
/// FileFrameSink::truncate_to's ftruncate call.
inline constexpr const char* kFileSinkTruncate = "service.file_sink.truncate";
/// save_checkpoint's fopen of <path>.tmp (service/campaign_io.hpp).
inline constexpr const char* kCkptOpen = "service.ckpt.open";
/// save_checkpoint's fwrite of the encoded document.
inline constexpr const char* kCkptWrite = "service.ckpt.write";
/// save_checkpoint's fsync of the tmp file (the durability barrier).
inline constexpr const char* kCkptFsync = "service.ckpt.fsync";
/// save_checkpoint's rename(2) commit.
inline constexpr const char* kCkptRename = "service.ckpt.rename";
/// save_checkpoint's fsync of the parent directory (rename durability).
inline constexpr const char* kCkptDirFsync = "service.ckpt.dir_fsync";
/// load_checkpoint's fread loop.
inline constexpr const char* kCkptRead = "service.ckpt.read";
/// One hit per shard *attempt* in CampaignService's worker lambda; an
/// errno-class outcome throws service::TransientError (retried up to
/// shard_max_attempts, then quarantined), a throw-class outcome aborts.
inline constexpr const char* kWorkerShard = "service.worker.shard";

/// Every registered site, for arm()-time validation and for tests that
/// enumerate the injection surface.
inline constexpr const char* kAll[] = {
    kFileSinkWrite, kFileSinkFlush, kFileSinkTruncate, kCkptOpen,
    kCkptWrite,     kCkptFsync,     kCkptRename,       kCkptDirFsync,
    kCkptRead,      kWorkerShard,
};
inline constexpr int kCount = static_cast<int>(sizeof(kAll) / sizeof(kAll[0]));

[[nodiscard]] inline bool known_site(std::string_view site) noexcept {
  for (const char* s : kAll)
    if (site == s) return true;
  return false;
}

}  // namespace failpoints

/// What an armed site tells its caller to do for this hit.
enum class FailAction {
  kNone,        ///< not firing: run the real operation
  kErrno,       ///< simulate a failed syscall: errno = err, return -1/0
  kShortWrite,  ///< run the real operation, capped at `arg` bytes
  kDelay,       ///< already slept `arg` ms; run the real operation
  kThrow,       ///< non-transient: caller throws its abort-class exception
};

struct FailOutcome {
  FailAction action = FailAction::kNone;
  int err = 0;            ///< errno value for kErrno
  std::uint64_t arg = 0;  ///< byte cap for kShortWrite, ms for kDelay
  [[nodiscard]] bool fired() const noexcept {
    return action != FailAction::kNone;
  }
};

class FailpointRegistry {
 public:
  static FailpointRegistry& instance() {
    static FailpointRegistry reg;
    return reg;
  }

  /// Arm `site` with a schedule spec (grammar in the header comment).
  /// Throws std::invalid_argument on an unknown site or malformed spec —
  /// a chaos schedule with a typo'd site must fail loudly, not silently
  /// inject nothing.
  void arm(std::string_view site, std::string_view spec) {
    if (!failpoints::known_site(site))
      throw std::invalid_argument("failpoint: unknown site '" +
                                  std::string(site) + "'");
    SiteState st;
    st.units = parse_spec(spec);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = sites_.insert_or_assign(std::string(site),
                                                  std::move(st));
    (void)it;
    if (inserted) armed_n_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Arm every `site=spec` pair of a ';'-separated config string. Returns
  /// the number of sites armed. Empty string arms nothing.
  int configure(std::string_view config) {
    int armed = 0;
    std::size_t at = 0;
    while (at < config.size()) {
      std::size_t end = config.find(';', at);
      if (end == std::string_view::npos) end = config.size();
      const std::string_view entry = config.substr(at, end - at);
      at = end + 1;
      if (entry.empty()) continue;
      const std::size_t eq = entry.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 >= entry.size())
        throw std::invalid_argument(
            "failpoint: config entry is not site=spec: '" +
            std::string(entry) + "'");
      arm(entry.substr(0, eq), entry.substr(eq + 1));
      ++armed;
    }
    return armed;
  }

  /// Arm from the PPSIM_FAILPOINTS environment variable (unset/empty arms
  /// nothing). The chaos harness's activation path.
  int configure_from_env() {
    const char* cfg = std::getenv("PPSIM_FAILPOINTS");
    return cfg == nullptr ? 0 : configure(cfg);
  }

  void disarm(std::string_view site) {
    std::lock_guard<std::mutex> lock(mu_);
    if (sites_.erase(std::string(site)) > 0)
      armed_n_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Disarm every site and zero every counter — test isolation.
  void disarm_all() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_n_.fetch_sub(static_cast<int>(sites_.size()),
                       std::memory_order_relaxed);
    sites_.clear();
    hits_.clear();
    fired_.clear();
  }

  [[nodiscard]] bool armed(std::string_view site) const {
    std::lock_guard<std::mutex> lock(mu_);
    return sites_.find(std::string(site)) != sites_.end();
  }

  [[nodiscard]] std::vector<std::string> armed_sites() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(sites_.size());
    for (const auto& [name, st] : sites_) out.push_back(name);
    return out;
  }

  /// Hits at `site` while armed (fired or not). Counters survive disarm —
  /// the chaos ledger reads them after the run.
  [[nodiscard]] std::uint64_t hits(std::string_view site) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(std::string(site));
    return it == hits_.end() ? 0 : it->second;
  }
  /// Injected failures actually delivered at `site` (delays included).
  [[nodiscard]] std::uint64_t fired(std::string_view site) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fired_.find(std::string(site));
    return it == fired_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t fired_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t t = 0;
    for (const auto& [name, n] : fired_) t += n;
    return t;
  }

  /// Fast armed-anywhere probe — the one load on the unarmed hot path.
  [[nodiscard]] bool any_armed() const noexcept {
    return armed_n_.load(std::memory_order_relaxed) > 0;
  }

  /// Cold path: consume one hit at `site`. Performs kDelay sleeps here
  /// (outside the lock) so every call site handles delay-then-proceed
  /// uniformly.
  FailOutcome hit(const char* site) {
    FailOutcome out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = sites_.find(site);
      if (it == sites_.end()) return out;
      ++hits_[it->first];
      out = it->second.next();
      if (it->second.exhausted()) {
        sites_.erase(it);
        armed_n_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (out.fired()) ++fired_[site];
    }
    if (out.action == FailAction::kDelay && out.arg > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(out.arg));
    return out;
  }

 private:
  struct Unit {
    enum class Trigger { kCount, kForever, kRandom };
    Trigger trigger = Trigger::kCount;
    std::uint64_t remaining = 1;  ///< kCount only
    std::uint32_t permille = 0;   ///< kRandom only
    Xoshiro256pp rng;             ///< kRandom only; seeded at parse time
    FailAction action = FailAction::kNone;  ///< kNone = skip (pass the hit)
    int err = 0;
    std::uint64_t arg = 0;
  };

  struct SiteState {
    std::vector<Unit> units;
    std::size_t at = 0;  ///< front unit

    [[nodiscard]] bool exhausted() const noexcept {
      return at >= units.size();
    }

    FailOutcome next() {
      FailOutcome out;
      if (exhausted()) return out;
      Unit& u = units[at];
      bool fire = true;
      switch (u.trigger) {
        case Unit::Trigger::kCount:
          if (--u.remaining == 0) ++at;
          break;
        case Unit::Trigger::kForever:
          break;
        case Unit::Trigger::kRandom:
          fire = u.rng.bounded(1000) < u.permille;
          break;
      }
      if (!fire || u.action == FailAction::kNone) return out;
      out.action = u.action;
      out.err = u.err;
      out.arg = u.arg;
      return out;
    }
  };

  [[noreturn]] static void bad_spec(std::string_view spec,
                                    const std::string& why) {
    throw std::invalid_argument("failpoint: bad spec '" + std::string(spec) +
                                "': " + why);
  }

  [[nodiscard]] static std::uint64_t parse_u64(std::string_view s,
                                               std::string_view spec,
                                               const std::string& what) {
    if (s.empty()) bad_spec(spec, "missing " + what);
    std::uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') bad_spec(spec, "non-numeric " + what);
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }

  [[nodiscard]] static std::vector<Unit> parse_spec(std::string_view spec) {
    std::vector<Unit> units;
    std::size_t at = 0;
    while (at <= spec.size()) {
      std::size_t end = spec.find('+', at);
      if (end == std::string_view::npos) end = spec.size();
      std::string_view term = spec.substr(at, end - at);
      at = end + 1;
      if (term.empty()) bad_spec(spec, "empty unit");
      if (!units.empty() &&
          units.back().trigger != Unit::Trigger::kCount)
        bad_spec(spec, "'*' / 'p' units never exhaust, so they must be last");

      Unit u;
      const std::size_t x = term.find('x');
      if (x != std::string_view::npos && x > 0) {
        const std::string_view prefix = term.substr(0, x);
        bool is_prefix = true;
        if (prefix == "*") {
          u.trigger = Unit::Trigger::kForever;
        } else if (prefix[0] == 'p') {
          const std::size_t sep = prefix.find('@');
          if (sep == std::string_view::npos)
            bad_spec(spec, "'p' prefix needs <permille>@<seed>");
          const std::uint64_t pm = parse_u64(prefix.substr(1, sep - 1), spec,
                                             "permille");
          if (pm > 1000) bad_spec(spec, "permille above 1000");
          const std::uint64_t seed =
              parse_u64(prefix.substr(sep + 1), spec, "seed");
          u.trigger = Unit::Trigger::kRandom;
          u.permille = static_cast<std::uint32_t>(pm);
          u.rng = Xoshiro256pp(stream_seed(seed, streams::kFailpoint));
        } else if (prefix[0] >= '0' && prefix[0] <= '9') {
          u.remaining = parse_u64(prefix, spec, "count");
          if (u.remaining == 0) bad_spec(spec, "count must be >= 1");
        } else {
          is_prefix = false;  // the 'x' belonged to the action name
        }
        if (is_prefix) term = term.substr(x + 1);
      }

      std::string_view arg;
      std::string_view name = term;
      if (const std::size_t colon = term.find(':');
          colon != std::string_view::npos) {
        name = term.substr(0, colon);
        arg = term.substr(colon + 1);
      }
      if (name == "eintr") {
        u.action = FailAction::kErrno;
        u.err = EINTR;
      } else if (name == "eagain") {
        u.action = FailAction::kErrno;
        u.err = EAGAIN;
      } else if (name == "enospc") {
        u.action = FailAction::kErrno;
        u.err = ENOSPC;
      } else if (name == "eio") {
        u.action = FailAction::kErrno;
        u.err = EIO;
      } else if (name == "errno") {
        u.action = FailAction::kErrno;
        u.err = static_cast<int>(parse_u64(arg, spec, "errno value"));
      } else if (name == "short") {
        u.action = FailAction::kShortWrite;
        u.arg = parse_u64(arg, spec, "short-write byte cap");
      } else if (name == "delay") {
        u.action = FailAction::kDelay;
        u.arg = parse_u64(arg, spec, "delay ms");
      } else if (name == "skip") {
        u.action = FailAction::kNone;
      } else if (name == "throw") {
        u.action = FailAction::kThrow;
      } else {
        bad_spec(spec, "unknown action '" + std::string(name) + "'");
      }
      units.push_back(std::move(u));
    }
    if (units.empty()) bad_spec(spec, "empty spec");
    return units;
  }

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  std::map<std::string, std::uint64_t, std::less<>> hits_;
  std::map<std::string, std::uint64_t, std::less<>> fired_;
  std::atomic<int> armed_n_{0};
};

/// The always-compiled site probe. One relaxed load when nothing is armed
/// anywhere; the registry lock is only taken on the armed (chaos/test)
/// path.
[[nodiscard]] inline FailOutcome failpoint(const char* site) {
  FailpointRegistry& reg = FailpointRegistry::instance();
  if (!reg.any_armed()) return {};
  return reg.hit(site);
}

}  // namespace ppsim::core
