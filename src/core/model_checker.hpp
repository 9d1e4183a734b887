// Exhaustive verification of self-stabilization for small populations.
//
// Under the uniformly random scheduler, an execution reaches a safe
// configuration with probability 1 if and only if every *bottom* strongly
// connected component (closed recurrent class) of the configuration graph
// consists solely of configurations that (a) satisfy the output specification
// and (b) share identical outputs (so outputs never change again — closure).
//
// This lets us machine-check the O(1)-state protocols (modk, elimination-only,
// P_OR) for every initial configuration at small n, instead of sampling.
//
// Requirements on the protocol adapter `M`:
//   using State  = ...;
//   using Params = ...;                       // exposes .n
//   static constexpr bool directed = ...;
//   static std::size_t num_states(const Params&);
//   static std::size_t pack(const State&, const Params&, int agent);
//   static State unpack(std::size_t, const Params&, int agent);
//   static void apply(State&, State&, const Params&);       // initiator, responder
// pack/unpack receive the agent's ring position so adapters can model fixed
// per-agent inputs (e.g. the 2-hop coloring consumed by P_OR) outside the
// enumerated state.
// Specification functor: Output spec(std::span<const State>, const Params&)
// where Output is EqualityComparable, plus bool is_legal(const Output&).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ring.hpp"

namespace ppsim::core {

namespace detail {

/// per_agent^n, or nullopt when the product overflows uint64 (a silent wrap
/// would let a checker "verify" a garbage state space). Shared by the
/// unreduced checker, its static capacity() probe, and the quotient checker.
[[nodiscard]] constexpr std::optional<std::uint64_t> checked_pow(
    std::uint64_t per_agent, int n) noexcept {
  std::uint64_t total = 1;
  for (int i = 0; i < n; ++i) {
    if (per_agent != 0 &&
        total > std::numeric_limits<std::uint64_t>::max() / per_agent)
      return std::nullopt;
    total *= per_agent;
  }
  return total;
}

}  // namespace detail

/// Adapters may expose a human-readable per-state formatter; without one,
/// describe_configuration falls back to the packed value ("q17").
template <typename M>
concept HasStateDescription =
    requires(const typename M::State& s, const typename M::Params& p) {
      { M::describe(s, p) } -> std::convertible_to<std::string>;
    };

struct CheckResult {
  bool ok = false;
  /// The state space exceeds what the checker can represent (per_agent^n
  /// overflows uint64, or the configuration count does not fit the 32-bit
  /// Tarjan index arrays). When set, `ok` is false and *nothing was
  /// verified* — the distinction matters: a capacity failure is "cannot
  /// check", not "checked and found a counterexample".
  bool capacity_exceeded = false;
  std::uint64_t num_configurations = 0;
  std::uint64_t num_bottom_sccs = 0;
  std::uint64_t num_bottom_configs = 0;
  /// A configuration inside an offending bottom SCC, if any.
  std::optional<std::uint64_t> counterexample;
  std::string reason;
};

template <typename M>
class ModelChecker {
 public:
  using State = typename M::State;
  using Params = typename M::Params;

  /// Largest configuration count the checker accepts: ids and components are
  /// packed into uint32 arrays with 0xFFFFFFFF reserved as the unset marker.
  static constexpr std::uint64_t kMaxConfigurations = 0xFFFFFFFEull;

  /// True iff a checker for `params` would accept the state space: per
  /// agent^n representable in uint64 and within min(node_budget,
  /// kMaxConfigurations) stored configurations. Callers probe this *before*
  /// constructing (the new checker bench auto-selects the largest certifiable
  /// n with it); a constructed checker reports the same verdict through
  /// capacity_exceeded().
  [[nodiscard]] static bool capacity(
      const Params& params,
      std::uint64_t node_budget = kMaxConfigurations) {
    const auto total = detail::checked_pow(M::num_states(params), params.n);
    return total.has_value() &&
           *total <= std::min(node_budget, kMaxConfigurations);
  }

  /// `node_budget` caps the number of configurations the checker will hold
  /// in its index arrays (12 bytes per configuration): exceeding it is a
  /// capacity failure up front, never an OOM mid-check. The structural
  /// kMaxConfigurations cap always applies on top. Throws
  /// std::invalid_argument unless params.n >= 1, in every build type.
  explicit ModelChecker(Params params,
                        std::uint64_t node_budget = kMaxConfigurations)
      : params_(std::move(params)) {
    checked_ring_size(params_.n, "ModelChecker");
    per_agent_ = M::num_states(params_);
    // per_agent^n with explicit overflow detection: a silent uint64 wrap
    // would make the checker "verify" a garbage state space. The uint32
    // Tarjan-index capacity and the caller's node budget are checked here
    // too so check() can refuse before allocating anything.
    if (const auto total = detail::checked_pow(per_agent_, params_.n)) {
      total_ = *total;
    } else {
      capacity_exceeded_ = true;
      capacity_reason_ =
          "state space capacity exceeded: per_agent^n overflows uint64";
    }
    if (!capacity_exceeded_ && total_ > kMaxConfigurations) {
      capacity_exceeded_ = true;
      capacity_reason_ =
          "state space capacity exceeded: configuration count does not fit "
          "the checker's 32-bit index arrays";
    }
    if (!capacity_exceeded_ && total_ > node_budget) {
      capacity_exceeded_ = true;
      capacity_reason_ =
          "state space capacity exceeded: " + std::to_string(total_) +
          " configurations over the node budget of " +
          std::to_string(node_budget);
    }
    if (capacity_exceeded_) total_ = 0;  // never a plausible-looking wrap
  }

  /// Configuration count, or 0 when the state space exceeds capacity (see
  /// capacity_exceeded()).
  [[nodiscard]] std::uint64_t num_configurations() const noexcept {
    return total_;
  }

  /// True when per_agent^n cannot be represented / indexed; check() then
  /// returns a CheckResult with capacity_exceeded set instead of verifying
  /// a truncated space.
  [[nodiscard]] bool capacity_exceeded() const noexcept {
    return capacity_exceeded_;
  }

  [[nodiscard]] std::vector<State> decode(std::uint64_t id) const {
    std::vector<State> config(static_cast<std::size_t>(params_.n));
    for (int i = 0; i < params_.n; ++i) {
      config[static_cast<std::size_t>(i)] =
          M::unpack(id % per_agent_, params_, i);
      id /= per_agent_;
    }
    return config;
  }

  [[nodiscard]] std::uint64_t encode(std::span<const State> config) const {
    std::uint64_t id = 0;
    for (int i = params_.n - 1; i >= 0; --i)
      id = id * per_agent_ +
           M::pack(config[static_cast<std::size_t>(i)], params_, i);
    return id;
  }

  /// Human-readable rendering of one configuration id: the per-agent state
  /// list, decoded through M::unpack. Uses the adapter's `describe(State,
  /// Params)` when it has one; otherwise prints the packed value per agent.
  [[nodiscard]] std::string describe_configuration(std::uint64_t id) const {
    const auto cfg = decode(id);
    std::string out = "configuration " + std::to_string(id) + ":";
    for (int i = 0; i < params_.n; ++i) {
      const State& s = cfg[static_cast<std::size_t>(i)];
      out += "\n  u_" + std::to_string(i) + ": ";
      if constexpr (HasStateDescription<M>) {
        out += M::describe(s, params_);
      } else {
        out += "q" + std::to_string(M::pack(s, params_, i));
      }
    }
    return out;
  }

  /// The decoded counterexample of a CheckResult, ready to print from tests
  /// and benches — self-stabilization bugs are debugged from the offending
  /// configuration, not from an opaque uint64.
  [[nodiscard]] std::string describe_counterexample(
      const CheckResult& res) const {
    if (!res.counterexample.has_value())
      return "(no counterexample: " +
             (res.reason.empty() ? std::string("check passed") : res.reason) +
             ")";
    return res.reason + "\n" + describe_configuration(*res.counterexample);
  }

  /// Successor configuration under arc `arc`. The initiator/responder
  /// mapping is core::arc_endpoints, the function the engines' schedulers
  /// draw through; tests/core/topology_drift_test.cpp pins the two against
  /// each other exhaustively at small n.
  [[nodiscard]] std::uint64_t successor(std::uint64_t id, int arc) const {
    std::vector<State> config = decode(id);
    const ArcEndpoints e = arc_endpoints(arc, params_.n);
    M::apply(config[static_cast<std::size_t>(e.initiator)],
             config[static_cast<std::size_t>(e.responder)], params_);
    return encode(config);
  }

  /// Verify: every bottom SCC consists of spec-identical, legal-output
  /// configurations. `spec` maps a configuration to its output value;
  /// `legal` decides whether that output satisfies the problem.
  template <typename Spec, typename Legal>
  [[nodiscard]] CheckResult check(Spec&& spec, Legal&& legal) const {
    CheckResult res;
    if (capacity_exceeded_) {
      res.capacity_exceeded = true;
      res.reason = capacity_reason_;
      return res;
    }
    res.num_configurations = total_;
    const int arcs = arc_count(params_.n, M::directed);

    // Iterative Tarjan SCC; successors computed on the fly (memory-light).
    // SCCs pop in reverse topological order, so when an SCC is emitted every
    // successor outside it already has a component id — an SCC is *bottom*
    // iff no member has a successor with a different component id.
    constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
    std::vector<std::uint32_t> index(total_, kUnset);
    std::vector<std::uint32_t> lowlink(total_);
    std::vector<std::uint32_t> comp(total_, kUnset);
    std::vector<std::uint64_t> stack;
    std::uint32_t next_index = 0;
    std::uint32_t next_comp = 0;

    struct Frame {
      std::uint64_t v;
      int arc;  // next arc to explore
    };
    std::vector<Frame> call_stack;
    std::vector<std::uint64_t> scc;  // reused buffer

    for (std::uint64_t root = 0; root < total_; ++root) {
      if (index[root] != kUnset) continue;
      call_stack.push_back({root, 0});
      index[root] = lowlink[root] = next_index++;
      stack.push_back(root);

      while (!call_stack.empty()) {
        Frame& f = call_stack.back();
        if (f.arc < arcs) {
          const std::uint64_t w = successor(f.v, f.arc);
          ++f.arc;
          if (w == f.v) continue;  // self-loop: irrelevant to SCC structure
          if (index[w] == kUnset) {
            index[w] = lowlink[w] = next_index++;
            stack.push_back(w);
            call_stack.push_back({w, 0});
          } else if (comp[w] == kUnset) {  // still on Tarjan stack
            lowlink[f.v] = std::min(lowlink[f.v], index[w]);
          }
          continue;
        }
        // Post-order: pop SCC if root of one.
        const std::uint64_t v = f.v;
        call_stack.pop_back();
        if (!call_stack.empty())
          lowlink[call_stack.back().v] =
              std::min(lowlink[call_stack.back().v], lowlink[v]);
        if (lowlink[v] != index[v]) continue;

        scc.clear();
        const std::uint32_t cid = next_comp++;
        for (;;) {
          const std::uint64_t w = stack.back();
          stack.pop_back();
          comp[w] = cid;
          scc.push_back(w);
          if (w == v) break;
        }
        bool bottom = true;
        for (std::uint64_t m : scc) {
          for (int a = 0; a < arcs; ++a) {
            if (comp[successor(m, a)] != cid) {
              bottom = false;
              break;
            }
          }
          if (!bottom) break;
        }
        if (!bottom) continue;

        ++res.num_bottom_sccs;
        res.num_bottom_configs += scc.size();
        const auto ref_cfg = decode(scc.front());
        const auto ref_out = spec(std::span<const State>(ref_cfg), params_);
        if (!legal(ref_out)) {
          res.counterexample = scc.front();
          res.reason = "bottom SCC with illegal output";
          return res;
        }
        for (std::uint64_t m : scc) {
          const auto cfg = decode(m);
          if (spec(std::span<const State>(cfg), params_) != ref_out) {
            res.counterexample = m;
            res.reason = "bottom SCC with non-constant outputs";
            return res;
          }
        }
      }
    }
    res.ok = true;
    return res;
  }

 private:
  Params params_;
  std::uint64_t per_agent_ = 0;
  std::uint64_t total_ = 0;
  bool capacity_exceeded_ = false;
  std::string capacity_reason_;
};

}  // namespace ppsim::core
