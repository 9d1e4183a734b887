// Protocol-agnostic adversary interface over the per-protocol generators.
//
// Self-stabilization quantifies over *every* configuration; each study
// protocol declares its state-space generators (src/pl/adversary.hpp,
// src/baselines/adversary.cpp). Adversary<P> gives those a uniform shape —
// random_state / random_config / safe_config / recovered / families — so the
// scenario campaign engine (analysis/scenario.hpp) and the recovery bench
// can treat P_PL and the baselines identically:
//
//   * random_state(params, rng)   — one uniform state of the declared domain
//                                   (the unit of fault injection)
//   * random_config(params, rng)  — the "arbitrary configuration" regime
//   * safe_config(params, rng)    — a converged reference configuration with
//                                   the leader at a random position
//   * recovered(config, params)   — membership in the protocol's safe set
//                                   (S_PL and its baseline analogs; P_PL
//                                   also takes the word lane's view)
//   * families()                  — named worst-case initial-configuration
//                                   families for scenario diversity
//
// corrupt_config / inject_random_faults implement the shared k-distinct-agent
// corruption on top (the latter through RingView::set_agent, whose census is
// delta-maintained, so a fault storm costs O(faults), not O(faults * n)).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"

namespace ppsim::analysis {

/// Named initial-configuration family of protocol P.
template <typename P>
struct ConfigFamily {
  std::string name;
  std::function<std::vector<typename P::State>(const typename P::Params&,
                                               core::Xoshiro256pp&)>
      make;
};

/// Specialized per protocol below; a use with an uncovered protocol fails to
/// compile on the missing specialization.
template <typename P>
struct Adversary;

template <>
struct Adversary<pl::PlProtocol> {
  using P = pl::PlProtocol;
  using Params = pl::PlParams;
  using State = pl::PlState;

  static State random_state(const Params& p, core::Xoshiro256pp& rng) {
    return pl::random_state(p, rng);
  }
  static std::vector<State> random_config(const Params& p,
                                          core::Xoshiro256pp& rng) {
    return pl::random_config(p, rng);
  }
  static std::vector<State> safe_config(const Params& p,
                                        core::Xoshiro256pp& rng) {
    return pl::make_safe_config(
        p, static_cast<int>(rng.bounded(static_cast<std::uint64_t>(p.n))));
  }
  static bool recovered(std::span<const State> c, const Params& p) {
    return pl::is_safe(c, p);
  }
  /// S_PL on the word lane's view of a ring (no unpack; agrees with the
  /// span overload, tests/pl/safe_view_test.cpp).
  static bool recovered(const pl::WordConfig& c, const Params& p) {
    return pl::is_safe(c, p);
  }
  static std::vector<ConfigFamily<P>> families() {
    return {
        {"random", [](const Params& p,
                      core::Xoshiro256pp& rng) { return pl::random_config(p, rng); }},
        {"safe", [](const Params& p,
                    core::Xoshiro256pp& rng) { return safe_config(p, rng); }},
        {"fresh", [](const Params& p, core::Xoshiro256pp&) {
           return pl::make_fresh_config(p);
         }},
        {"leaderless_consistent", [](const Params& p, core::Xoshiro256pp&) {
           return pl::leaderless_consistent(p, p.kappa_max);
         }},
        {"all_leaders", [](const Params& p, core::Xoshiro256pp&) {
           return pl::all_leaders(p);
         }},
        {"all_zero", [](const Params& p, core::Xoshiro256pp&) {
           return pl::all_zero(p);
         }},
        {"stale_signals", [](const Params& p, core::Xoshiro256pp&) {
           return pl::stale_signals_everywhere(p);
         }},
        {"token_garbage", [](const Params& p, core::Xoshiro256pp& rng) {
           return pl::token_garbage(p, rng);
         }},
    };
  }
};

template <>
struct Adversary<baselines::FischerJiang> {
  using P = baselines::FischerJiang;
  using Params = baselines::FjParams;
  using State = baselines::FjState;

  static State random_state(const Params& p, core::Xoshiro256pp& rng) {
    return baselines::fj_random_state(p, rng);
  }
  static std::vector<State> random_config(const Params& p,
                                          core::Xoshiro256pp& rng) {
    return baselines::fj_random_config(p, rng);
  }
  static std::vector<State> safe_config(const Params& p,
                                        core::Xoshiro256pp& rng) {
    return baselines::fj_safe_config(
        p, static_cast<int>(rng.bounded(static_cast<std::uint64_t>(p.n))));
  }
  static bool recovered(std::span<const State> c, const Params& p) {
    return baselines::fj_is_safe(c, p);
  }
  static std::vector<ConfigFamily<P>> families() {
    return {
        {"random", [](const Params& p, core::Xoshiro256pp& rng) {
           return baselines::fj_random_config(p, rng);
         }},
        {"safe", [](const Params& p,
                    core::Xoshiro256pp& rng) { return safe_config(p, rng); }},
        {"all_zero", [](const Params& p, core::Xoshiro256pp&) {
           // Leaderless; recovery rests entirely on Omega?[leader].
           return std::vector<State>(static_cast<std::size_t>(p.n));
         }},
        {"all_leaders", [](const Params& p, core::Xoshiro256pp&) {
           // Maximal elimination war: every agent an unshielded armed leader.
           std::vector<State> c(static_cast<std::size_t>(p.n));
           for (State& s : c) {
             s.leader = 1;
             s.armed = 1;
           }
           return c;
         }},
    };
  }
};

template <>
struct Adversary<baselines::Modk> {
  using P = baselines::Modk;
  using Params = baselines::ModkParams;
  using State = baselines::ModkState;

  static State random_state(const Params& p, core::Xoshiro256pp& rng) {
    return baselines::modk_random_state(p, rng);
  }
  static std::vector<State> random_config(const Params& p,
                                          core::Xoshiro256pp& rng) {
    return baselines::modk_random_config(p, rng);
  }
  static std::vector<State> safe_config(const Params& p,
                                        core::Xoshiro256pp& rng) {
    return baselines::modk_safe_config(
        p, static_cast<int>(rng.bounded(static_cast<std::uint64_t>(p.n))));
  }
  static bool recovered(std::span<const State> c, const Params& p) {
    return baselines::modk_is_safe(c, p);
  }
  static std::vector<ConfigFamily<P>> families() {
    return {
        {"random", [](const Params& p, core::Xoshiro256pp& rng) {
           return baselines::modk_random_config(p, rng);
         }},
        {"safe", [](const Params& p,
                    core::Xoshiro256pp& rng) { return safe_config(p, rng); }},
        {"all_zero", [](const Params& p, core::Xoshiro256pp&) {
           // Leaderless with lab = 0 everywhere: a label violation at every
           // pair (n not a multiple of k), maximal promotion pressure.
           return std::vector<State>(static_cast<std::size_t>(p.n));
         }},
        {"all_leaders", [](const Params& p, core::Xoshiro256pp&) {
           std::vector<State> c(static_cast<std::size_t>(p.n));
           for (State& s : c) {
             s.leader = 1;
             s.signal_b = 1;
           }
           return c;
         }},
    };
  }
};

template <>
struct Adversary<baselines::Yokota28> {
  using P = baselines::Yokota28;
  using Params = baselines::Y28Params;
  using State = baselines::Y28State;

  static State random_state(const Params& p, core::Xoshiro256pp& rng) {
    return baselines::y28_random_state(p, rng);
  }
  static std::vector<State> random_config(const Params& p,
                                          core::Xoshiro256pp& rng) {
    return baselines::y28_random_config(p, rng);
  }
  static std::vector<State> safe_config(const Params& p,
                                        core::Xoshiro256pp& rng) {
    return baselines::y28_safe_config(
        p, static_cast<int>(rng.bounded(static_cast<std::uint64_t>(p.n))));
  }
  static bool recovered(std::span<const State> c, const Params& p) {
    return baselines::y28_is_safe(c, p);
  }
  static std::vector<ConfigFamily<P>> families() {
    return {
        {"random", [](const Params& p, core::Xoshiro256pp& rng) {
           return baselines::y28_random_config(p, rng);
         }},
        {"safe", [](const Params& p,
                    core::Xoshiro256pp& rng) { return safe_config(p, rng); }},
        {"leaderless_ramp", [](const Params& p, core::Xoshiro256pp&) {
           return baselines::y28_leaderless(p);
         }},
        {"all_leaders", [](const Params& p, core::Xoshiro256pp&) {
           std::vector<State> c(static_cast<std::size_t>(p.n));
           for (State& s : c) {
             s.leader = 1;
             s.signal_b = 1;
           }
           return c;
         }},
    };
  }
};

namespace detail {

/// `faults` distinct agent indices via a partial Fisher-Yates shuffle:
/// exactly `faults` RNG draws and O(n) work regardless of the fault count
/// (rejection sampling degenerates once faults approaches n, and the
/// recovery benches sweep all the way up to f = n).
inline std::vector<int> distinct_targets(int n, int faults,
                                         core::Xoshiro256pp& rng) {
  faults = std::clamp(faults, 0, n);
  std::vector<int> pool(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < faults; ++i) {
    const auto j = i + static_cast<int>(rng.bounded(
                           static_cast<std::uint64_t>(n - i)));
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(faults));
  return pool;
}

}  // namespace detail

/// Corrupt `faults` distinct agents of a raw configuration with uniformly
/// random states (pre-run fault injection, any covered protocol).
template <typename P>
void corrupt_config(std::vector<typename P::State>& config,
                    const typename P::Params& params, int faults,
                    core::Xoshiro256pp& rng) {
  for (int idx :
       detail::distinct_targets(static_cast<int>(config.size()), faults, rng))
    config[static_cast<std::size_t>(idx)] =
        Adversary<P>::random_state(params, rng);
}

/// Corrupt `faults` distinct agents of a *running* ring through
/// RingView::set_agent (census stays incremental; the standard `inject` of a
/// ScenarioSpec). The view form serves a standalone Runner and one ring of
/// an EnsembleRunner identically.
template <typename P>
void inject_random_faults(core::RingView<P> ring, int faults,
                          core::Xoshiro256pp& rng) {
  for (int idx : detail::distinct_targets(ring.n(), faults, rng))
    ring.set_agent(idx, Adversary<P>::random_state(ring.params(), rng));
}

/// The default recovery predicate of make_recovery_scenario: membership in
/// Adversary<P>'s safe set. Generic over the configuration type, so it
/// carries the word-view overload exactly when Adversary<P> has one (P_PL).
/// Every study safe set opens with "exactly one leader", which
/// unique_leader() declares (core::requires_unique_leader).
template <typename P>
struct InSafeSet {
  static constexpr bool unique_leader() noexcept { return true; }
  template <typename Config>
  auto operator()(const Config& c, const typename P::Params& p) const
      -> decltype(Adversary<P>::recovered(c, p)) {
    return Adversary<P>::recovered(c, p);
  }
};

/// The standard recovery scenario for protocol P: stabilize from a converged
/// configuration (leader at a random position), run `schedule`, recover to
/// the protocol's safe set. `name` should identify the schedule shape
/// ("burst_4", "storm_8", ...).
template <typename P>
[[nodiscard]] ScenarioSpec<P> make_recovery_scenario(
    std::string name, std::vector<FaultEvent> schedule, TrialPlan plan) {
  ScenarioSpec<P> spec;
  spec.name = std::move(name);
  spec.initial = [](const typename P::Params& p, core::Xoshiro256pp& rng) {
    return Adversary<P>::safe_config(p, rng);
  };
  spec.schedule = std::move(schedule);
  spec.inject = [](core::RingView<P> r, int faults,
                   core::Xoshiro256pp& rng) {
    inject_random_faults(r, faults, rng);
  };
  spec.recovered = InSafeSet<P>{};
  spec.plan = plan;
  return spec;
}

}  // namespace ppsim::analysis
