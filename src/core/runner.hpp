// Runner: the scalar engine for one ring — the per-trial reference path,
// deterministic scheduling and every topology. A Runner is ring 0 of a
// ScalarOnly EnsembleRunner (core/ensemble.hpp), its only data member, so
// the RNG, loss stream, fault model, census, index checks and run-until are
// the ensemble's, and every interaction runs an InteractionEngine body
// (core/interaction.hpp) on the ring's States. It never builds a LUT or a
// word layout: P_PL's word kernel runs only on a non-ScalarOnly
// EnsembleRunner, fuzzed against Runner by src/verification/differential.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/interaction.hpp"
#include "core/topology.hpp"

namespace ppsim::core {

/// Simulation runner: one ring on the scalar engine. Copyable (snapshot =
/// copy). `Topo` selects the interaction topology (core/topology.hpp); the
/// default RingTopology reproduces the historical ring engine bit for bit.
template <typename P, typename Topo = RingTopology>
class Runner {
  friend class RingView<P, Topo>;

 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Topology = Topo;
  using Engine = InteractionEngine<P>;

  static constexpr std::uint64_t npos = EnsembleRunner<P, Topo>::npos;

  /// `initial` must hold exactly params.n states (std::invalid_argument
  /// otherwise, in every build type).
  Runner(Params params, std::vector<State> initial, std::uint64_t seed)
      : ring_(kScalarOnly, std::move(params), 1) {
    ring_.add_ring(initial, seed);
  }

  /// Explicit-topology constructor (topologies that carry more than n).
  /// Throws std::invalid_argument unless topo.n() == params.n.
  Runner(Topo topo, Params params, std::vector<State> initial,
         std::uint64_t seed)
      : ring_(kScalarOnly, std::move(topo), std::move(params), 1) {
    ring_.add_ring(initial, seed);
  }

  [[nodiscard]] const Params& params() const noexcept {
    return ring_.params();
  }
  [[nodiscard]] const Topo& topology() const noexcept {
    return ring_.topology();
  }
  [[nodiscard]] std::span<const State> agents() const noexcept {
    return ring_.agents(0);
  }
  /// Throws std::out_of_range for i outside [0, n).
  [[nodiscard]] const State& agent(int i) const { return ring_.agent(0, i); }
  [[nodiscard]] int n() const noexcept { return ring_.n(); }
  [[nodiscard]] std::uint64_t steps() const noexcept { return ring_.steps(0); }

  /// Number of arcs (= number of equally likely interactions per step under
  /// the clean uniform scheduler).
  [[nodiscard]] int arc_count() const noexcept {
    return topology().arc_count(P::directed);
  }

  /// Leader census (maintained incrementally; only meaningful when the
  /// protocol has a leader output).
  [[nodiscard]] int leader_count() const noexcept {
    return ring_.leader_count(0);
  }

  /// Token census (maintained incrementally; only meaningful when the
  /// protocol has a `has_token` output).
  [[nodiscard]] int token_count() const noexcept {
    return ring_.token_count(0);
  }

  /// Step index of the most recent change to the *set* of leaders, or 0.
  [[nodiscard]] std::uint64_t last_leader_change() const noexcept {
    return ring_.last_leader_change(0);
  }

  /// Oracle delay (see EnsembleRunner::set_oracle_delay).
  void set_oracle_delay(std::uint64_t d) noexcept { ring_.set_oracle_delay(d); }

  /// Overwrite one agent's state (fault injection / adversarial setup) with
  /// an O(1) delta census; see EnsembleRunner::set_agent for how it stamps
  /// last_leader_change and the Omega? clock. Throws std::out_of_range for
  /// i outside [0, n).
  void set_agent(int i, const State& s) { ring_.set_agent(0, i, s); }

  /// Configure the scheduler fault models (see SchedulerFaults and
  /// EnsembleRunner::set_scheduler_faults): the loss stream restarts at
  /// stream_seed(seed, kLossStreamTag). Invalid inputs throw
  /// std::invalid_argument.
  void set_scheduler_faults(const SchedulerFaults& f) {
    ring_.set_scheduler_faults(f);
  }

  /// True when a scheduler fault model (loss or bias) is configured.
  [[nodiscard]] bool scheduler_faults_active() const noexcept {
    return ring_.scheduler_faults_active();
  }

  /// Execute a single uniformly random interaction.
  void step() {
    if (ring_.scheduler_faults_active()) {
      run(1);
      return;
    }
    apply_arc(ring_.draw_arc(0));
  }

  /// Execute `k` uniformly random interactions through the fused fast path:
  /// the shared scalar loop, clean or faulted (InteractionEngine::run_block
  /// / run_block_faulted).
  void run(std::uint64_t k) { ring_.run_ring(0, k); }

  /// Execute `k` uniformly random interactions one draw at a time with the
  /// unconditional before/after census — the pre-batching engine, kept as
  /// the reference path (bench/throughput_json.cpp measures both in one
  /// binary).
  void run_unbatched(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) step();
  }

  /// Execute the interaction identified by `arc` (deterministic scheduling;
  /// always bypasses scheduler faults). For directed protocols arc in
  /// [0, F); for undirected, arcs in [F, 2F) are the endpoint-swapped pairs
  /// (F = topology().forward_arcs(); on the ring F = n and arc n + i
  /// reverses e_i).
  void apply_arc(int arc) { ring_.apply_arc(0, arc); }

  /// Apply a whole deterministic interaction sequence (arc ids).
  void apply_sequence(std::span<const int> arcs) {
    for (int a : arcs) apply_arc(a);
  }

  /// Run until `pred(agents, params)` holds, checking every `check_every`
  /// steps (granularity of the reported hitting step). Returns the step count
  /// at the first satisfied check, or nullopt if `max_steps` elapse first.
  template <typename Pred>
  std::optional<std::uint64_t> run_until(Pred&& pred, std::uint64_t max_steps,
                                         std::uint64_t check_every = 0) {
    const auto hit = ring_.run_until_each(pred, max_steps, check_every)[0];
    return hit == npos ? std::nullopt : std::optional<std::uint64_t>(hit);
  }

  /// Run `k` steps invoking `observer(runner, arc)` after every interaction.
  template <typename Observer>
  void run_observed(std::uint64_t k, Observer&& observer) {
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc = ring_.draw_arc(0);
      apply_arc(arc);
      observer(*this, arc);
    }
  }

 private:
  EnsembleRunner<P, Topo> ring_;  ///< one ring, ScalarOnly
};

}  // namespace ppsim::core
