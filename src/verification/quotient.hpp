// Symmetry-reduced exhaustive verification: the quotient-graph counterpart
// of core::ModelChecker.
//
// Soundness. The uniform scheduler is invariant under rotating all agent
// indices (core::rotate_arc) and, on undirected rings, under reflection
// (core::reflect_arc): both maps send the arc set to itself, preserving the
// uniform interaction distribution. When the checker adapter M is position
// independent (unpack/pack do not depend on the agent argument — verified
// at construction, never assumed), those index maps are automorphisms of
// the configuration graph, so SCCs, bottomness and reachability all factor
// through the orbit space: exploring one canonical representative per orbit
// (canonical.hpp) decides exactly what exploring the full product space
// decides. Adapters with *periodic* per-position inputs (e.g. a two-hop
// coloring of period q | n) keep the rotation subgroup of multiples of q;
// fully position-dependent adapters degrade to the trivial group and the
// quotient checker transparently matches the unreduced one.
//
// Output constancy is checked *edge-locally*: a bottom SCC passes iff every
// member representative has a legal output and no raw (uncanonicalized)
// successor changes the spec output. Because every edge of the full graph
// is the symmetry image of a representative's raw edge, and per-position
// outputs are equivariant (rotating a configuration rotates its output
// vector), this is equivalent to the unreduced checker's "all members of
// the bottom SCC share one output" — including for position-dependent specs
// such as the leader-bit vector: a lone leader that relocates forever shows
// up as a representative whose raw successor differs in output, exactly the
// counterexample the unreduced checker reports. Spec *legality* must be
// symmetry invariant ("exactly one leader" is; "the leader sits at u_0" is
// not a meaningful spec for anonymous agents in the first place).
//
// Capacity. The unreduced checker stores 12 bytes per *configuration*; this
// checker stores its Tarjan arrays per *orbit* (plus a hash index), so the
// same node budget reaches rings up to a factor |G| = n (directed) or 2n
// (undirected) larger. Orbits are discovered on the fly; the full id range
// is only *scanned* (O(total) cheap canonicalization tests) to seed Tarjan
// roots, never stored. Exceeding the budget mid-exploration aborts with
// capacity_exceeded — never a partial "ok".
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model_checker.hpp"
#include "core/ring.hpp"
#include "verification/canonical.hpp"

namespace ppsim::verification {

/// Result of a quotient check. The unreduced-comparable fields keep
/// core::CheckResult's semantics: `num_configurations` counts the *full*
/// product space and `num_bottom_configs` expands orbits by their size, so
/// both must agree bit-for-bit with the unreduced checker on any space both
/// can handle (tests/verification/quotient_test.cpp). `counterexample` is
/// the canonical representative of the offending orbit.
struct QuotientResult {
  bool ok = false;
  bool capacity_exceeded = false;
  std::uint64_t num_configurations = 0;  ///< full space: per_agent^n
  std::uint64_t num_orbits = 0;          ///< quotient nodes explored
  std::uint64_t num_bottom_sccs = 0;     ///< bottom SCCs of the quotient
  std::uint64_t num_bottom_orbits = 0;   ///< orbits inside bottom SCCs
  std::uint64_t num_bottom_configs = 0;  ///< expanded by orbit sizes
  std::optional<std::uint64_t> counterexample;  ///< canonical config id
  std::string reason;
  // Group actually used (after position-independence detection).
  int rotation_period = 0;
  bool reflection = false;
  int group_order = 1;

  /// Configurations per stored node — the memory/capacity win over the
  /// unreduced checker (approaches group_order as orbits get asymmetric).
  [[nodiscard]] double reduction_factor() const noexcept {
    return num_orbits == 0
               ? 0.0
               : static_cast<double>(num_configurations) /
                     static_cast<double>(num_orbits);
  }
};

template <typename M>
  requires std::equality_comparable<typename M::State>
class QuotientChecker {
 public:
  using State = typename M::State;
  using Params = typename M::Params;

  static constexpr std::uint64_t kMaxOrbits =
      core::ModelChecker<M>::kMaxConfigurations;

  /// `node_budget` caps the number of *orbits* stored (the analog of the
  /// unreduced checker's configuration budget). Throws
  /// std::invalid_argument unless params.n >= 1 (via the ModelChecker).
  explicit QuotientChecker(Params params,
                           std::uint64_t node_budget = kMaxOrbits)
      : mc_(params), params_(std::move(params)), node_budget_(node_budget) {
    per_agent_ = M::num_states(params_);
    if (const auto total = core::detail::checked_pow(per_agent_, params_.n)) {
      total_ = *total;
    } else {
      capacity_exceeded_ = true;
      capacity_reason_ =
          "state space capacity exceeded: per_agent^n overflows uint64 (the "
          "quotient checker needs representable configuration ids)";
    }
    if (per_agent_ > 0xFFFF) {
      capacity_exceeded_ = true;
      capacity_reason_ =
          "state space capacity exceeded: per-agent state count does not fit "
          "the 16-bit canonicalization digits";
    }
    group_ = detect_group();
  }

  [[nodiscard]] std::uint64_t num_configurations() const noexcept {
    return capacity_exceeded_ ? 0 : total_;
  }
  [[nodiscard]] bool capacity_exceeded() const noexcept {
    return capacity_exceeded_;
  }

  /// The symmetry group in force: rotation period 1 for
  /// position-independent adapters (full reduction), q for q-periodic ones,
  /// n for fully position-dependent ones (no reduction); reflection only on
  /// undirected rings with a position-independent adapter.
  [[nodiscard]] const SymmetryGroup& symmetry() const noexcept {
    return group_;
  }

  /// Order of the group actually quotiented by.
  [[nodiscard]] int group_order() const noexcept { return group_.order(); }

  /// Canonical representative of `id`'s orbit (also usable to compare an
  /// unreduced counterexample against a quotient one).
  [[nodiscard]] std::uint64_t canonical_id(std::uint64_t id) const {
    CanonicalScratch scratch;
    std::vector<std::uint16_t> digits;
    return canon(id, digits, scratch);
  }

  /// Forwarders so quotient counterexamples decode and print exactly like
  /// unreduced ones.
  [[nodiscard]] std::vector<State> decode(std::uint64_t id) const {
    return mc_.decode(id);
  }
  [[nodiscard]] std::string describe_configuration(std::uint64_t id) const {
    return mc_.describe_configuration(id);
  }
  [[nodiscard]] std::string describe_counterexample(
      const QuotientResult& res) const {
    if (!res.counterexample.has_value())
      return "(no counterexample: " +
             (res.reason.empty() ? std::string("check passed") : res.reason) +
             ")";
    return res.reason + "\n" +
           mc_.describe_configuration(*res.counterexample);
  }

  /// Verify every bottom SCC of the quotient graph: legal outputs, and no
  /// raw successor of any member changes the output (see the header
  /// comment for why this equals the unreduced criterion).
  template <typename Spec, typename Legal>
  [[nodiscard]] QuotientResult check(Spec&& spec, Legal&& legal) const {
    QuotientResult res;
    res.rotation_period = group_.rotation_period;
    res.reflection = group_.reflection;
    res.group_order = group_order();
    if (capacity_exceeded_) {
      res.capacity_exceeded = true;
      res.reason = capacity_reason_;
      return res;
    }
    res.num_configurations = total_;

    const int arcs = core::arc_count(params_.n, M::directed);
    constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
    const std::uint64_t budget = std::min(node_budget_, kMaxOrbits);

    CanonicalScratch scratch;
    std::vector<std::uint16_t> digits;

    // Dense per-orbit Tarjan state, discovered on the fly.
    std::vector<std::uint64_t> ids;  // dense index -> canonical id
    std::unordered_map<std::uint64_t, std::uint32_t> dense;
    std::vector<std::uint32_t> index, lowlink, comp;
    std::vector<std::uint32_t> stack;
    std::uint32_t next_index = 0;
    std::uint32_t next_comp = 0;
    bool over_budget = false;

    const auto intern = [&](std::uint64_t cid) -> std::uint32_t {
      const auto [it, inserted] =
          dense.emplace(cid, static_cast<std::uint32_t>(ids.size()));
      if (inserted) {
        if (static_cast<std::uint64_t>(ids.size()) >= budget) {
          over_budget = true;
          dense.erase(it);
          return kUnset;
        }
        ids.push_back(cid);
        index.push_back(kUnset);
        lowlink.push_back(0);
        comp.push_back(kUnset);
      }
      return it->second;
    };

    struct Frame {
      std::uint32_t v;
      int arc;  // next arc to explore
    };
    std::vector<Frame> call_stack;
    std::vector<std::uint32_t> scc;        // reused buffer
    std::vector<std::uint64_t> succ_raw;   // raw successor cache, per SCC

    // Root scan: every orbit has exactly one canonical member, so scanning
    // the full id range for fixed points of canon() seeds every orbit
    // without storing the non-canonical ids.
    for (std::uint64_t root_id = 0; root_id < total_ && !over_budget;
         ++root_id) {
      if (canon(root_id, digits, scratch) != root_id) continue;
      const std::uint32_t root = intern(root_id);
      if (over_budget || index[root] != kUnset) continue;

      call_stack.push_back({root, 0});
      index[root] = lowlink[root] = next_index++;
      stack.push_back(root);

      while (!call_stack.empty() && !over_budget) {
        Frame& f = call_stack.back();
        if (f.arc < arcs) {
          const std::uint64_t wid =
              canon(mc_.successor(ids[f.v], f.arc), digits, scratch);
          ++f.arc;
          if (wid == ids[f.v]) continue;  // quotient self-loop
          const std::uint32_t w = intern(wid);
          if (over_budget) break;
          if (index[w] == kUnset) {
            index[w] = lowlink[w] = next_index++;
            stack.push_back(w);
            call_stack.push_back({w, 0});
          } else if (comp[w] == kUnset) {  // still on the Tarjan stack
            lowlink[f.v] = std::min(lowlink[f.v], index[w]);
          }
          continue;
        }
        const std::uint32_t v = f.v;
        call_stack.pop_back();
        if (!call_stack.empty())
          lowlink[call_stack.back().v] =
              std::min(lowlink[call_stack.back().v], lowlink[v]);
        if (lowlink[v] != index[v]) continue;

        scc.clear();
        const std::uint32_t cid = next_comp++;
        for (;;) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          comp[w] = cid;
          scc.push_back(w);
          if (w == v) break;
        }
        // Bottomness pass, caching every member's raw successor ids so the
        // spec pass below never recomputes a transition.
        bool bottom = true;
        succ_raw.clear();
        for (std::uint32_t m : scc) {
          for (int a = 0; a < arcs && bottom; ++a) {
            const std::uint64_t raw = mc_.successor(ids[m], a);
            succ_raw.push_back(raw);
            const std::uint64_t sid = canon(raw, digits, scratch);
            const auto it = dense.find(sid);
            assert(it != dense.end());  // successors of an SCC are interned
            bottom = comp[it->second] == cid;
          }
          if (!bottom) break;
        }
        if (!bottom) continue;

        ++res.num_bottom_sccs;
        res.num_bottom_orbits += scc.size();
        for (std::size_t mi = 0; mi < scc.size(); ++mi) {
          const std::uint64_t mid = ids[scc[mi]];
          to_digits(mid, digits);
          res.num_bottom_configs += orbit_size(digits, group_);
          const auto cfg = mc_.decode(mid);
          const auto out = spec(std::span<const State>(cfg), params_);
          if (!legal(out)) {
            res.counterexample = mid;
            res.reason = "bottom SCC with illegal output";
            res.num_orbits = ids.size();
            return res;
          }
          for (int a = 0; a < arcs; ++a) {
            // Raw (uncanonicalized) successor: a genuine edge of the full
            // graph. Its output must not differ — that is closure.
            const auto succ_cfg = mc_.decode(
                succ_raw[mi * static_cast<std::size_t>(arcs) +
                         static_cast<std::size_t>(a)]);
            if (spec(std::span<const State>(succ_cfg), params_) != out) {
              res.counterexample = mid;
              res.reason = "bottom SCC with non-constant outputs";
              res.num_orbits = ids.size();
              return res;
            }
          }
        }
      }
      if (over_budget) break;
    }

    res.num_orbits = ids.size();
    if (over_budget) {
      res.capacity_exceeded = true;
      res.num_bottom_sccs = res.num_bottom_orbits = res.num_bottom_configs =
          0;
      res.counterexample.reset();
      res.reason = "state space capacity exceeded: orbit count exceeds the "
                   "node budget of " +
                   std::to_string(budget);
      return res;
    }
    res.ok = true;
    return res;
  }

 private:
  /// Base-per_agent digit string of a configuration id (digit i = packed
  /// state of agent i — the same positional encoding ModelChecker uses).
  void to_digits(std::uint64_t id, std::vector<std::uint16_t>& digits) const {
    digits.resize(static_cast<std::size_t>(params_.n));
    for (int i = 0; i < params_.n; ++i) {
      digits[static_cast<std::size_t>(i)] =
          static_cast<std::uint16_t>(id % per_agent_);
      id /= per_agent_;
    }
  }

  [[nodiscard]] std::uint64_t from_digits(
      std::span<const std::uint16_t> digits) const {
    std::uint64_t id = 0;
    for (int i = params_.n - 1; i >= 0; --i)
      id = id * per_agent_ + digits[static_cast<std::size_t>(i)];
    return id;
  }

  [[nodiscard]] std::uint64_t canon(std::uint64_t id,
                                    std::vector<std::uint16_t>& digits,
                                    CanonicalScratch& scratch) const {
    if (group_.order() == 1) return id;
    to_digits(id, digits);
    canonicalize(digits, group_, scratch);
    return from_digits(digits);
  }

  /// Measure the adapter's position (in)dependence instead of assuming it:
  /// shift d is a symmetry iff every enumerated state unpacks identically
  /// at i and i+d (and re-packs to the same value). Valid shifts form a
  /// subgroup of Z_n, so the smallest valid divisor of n generates them
  /// all. Reflection additionally needs full position independence (d = 1)
  /// and an undirected ring (reflection reverses arc orientations;
  /// core::reflect_arc maps the directed arc set outside itself).
  [[nodiscard]] SymmetryGroup detect_group() const {
    SymmetryGroup g;
    g.n = params_.n;
    g.rotation_period = params_.n;
    if (capacity_exceeded_) return g;
    for (int d = 1; d < params_.n; ++d) {
      if (params_.n % d != 0) continue;
      if (shift_valid(d)) {
        g.rotation_period = d;
        break;
      }
    }
    g.reflection = !M::directed && g.rotation_period == 1;
    return g;
  }

  [[nodiscard]] bool shift_valid(int d) const {
    for (int i = 0; i < params_.n; ++i) {
      const int j = core::ring_add(i, d, params_.n);
      for (std::uint64_t v = 0; v < per_agent_; ++v) {
        const State a = M::unpack(static_cast<std::size_t>(v), params_, i);
        const State b = M::unpack(static_cast<std::size_t>(v), params_, j);
        if (!(a == b)) return false;
        if (M::pack(a, params_, j) != static_cast<std::size_t>(v))
          return false;
      }
    }
    return true;
  }

  /// decode/encode/successor (capacity-agnostic)
  core::ModelChecker<M> mc_;
  Params params_;
  std::uint64_t node_budget_;
  std::uint64_t per_agent_ = 0;
  std::uint64_t total_ = 0;
  bool capacity_exceeded_ = false;
  std::string capacity_reason_;
  SymmetryGroup group_;
};

}  // namespace ppsim::verification
