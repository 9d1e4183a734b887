// E21 — exhaustive-certification trajectory: the unreduced ModelChecker vs
// the symmetry-reduced QuotientChecker across protocol x ring-size cells,
// under one shared node budget (PPSIM_CHECKER_BUDGET, default 2^18 stored
// nodes = 3 MiB of Tarjan arrays). For every protocol the harness
// auto-selects the largest certifiable n of each checker: the unreduced
// side is probed with ModelChecker::capacity() before construction, the
// quotient side with the group-order orbit lower bound (total / |G| orbits
// at minimum — if even that exceeds the budget there is no point running).
// Cells the unreduced checker must refuse (capacity_exceeded) but the
// quotient checker certifies are flagged certified_beyond_unreduced — the
// concrete payoff of rotation/reflection reduction.
//
// Writes BENCH_checker.json (fields: its write_artifact call), registered
// with scripts/check_bench_artifacts.py like every bench/<name>_json.cpp.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "baselines/modk.hpp"
#include "bench_util.hpp"
#include "common/elimination.hpp"
#include "core/model_checker.hpp"
#include "core/table.hpp"
#include "orientation/por.hpp"
#include "verification/quotient.hpp"
#include "verification/toys.hpp"

namespace {

using namespace ppsim;
using Clock = std::chrono::steady_clock;

struct CellRow {
  std::string protocol;
  int n = 0;
  bool directed = true;
  std::uint64_t per_agent = 0;
  std::uint64_t total = 0;  // 0 = not representable
  int rotation_period = 0;
  bool reflection = false;
  int group_order = 1;

  bool unreduced_ran = false;
  bool unreduced_ok = false;
  bool unreduced_capacity = false;
  std::uint64_t unreduced_bottom_sccs = 0;
  std::uint64_t unreduced_bottom_configs = 0;
  double unreduced_ms = 0.0;

  bool quotient_ran = false;
  bool quotient_ok = false;
  bool quotient_capacity = false;
  std::uint64_t orbits = 0;
  std::uint64_t quotient_bottom_sccs = 0;
  std::uint64_t quotient_bottom_orbits = 0;
  std::uint64_t quotient_bottom_configs = 0;
  double quotient_ms = 0.0;
  double reduction = 0.0;

  [[nodiscard]] bool certified_beyond_unreduced() const {
    return quotient_ok && unreduced_capacity;
  }
};

template <typename Body>
double measure_ms(Body&& body) {
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One (protocol, n) cell: both checkers under the shared node budget, each
/// refusing honestly when the space (or its orbit lower bound) cannot fit.
template <typename M, typename Spec, typename Legal>
CellRow run_cell(const char* name, const typename M::Params& params,
                 std::uint64_t budget, Spec&& spec, Legal&& legal) {
  CellRow row;
  row.protocol = name;
  row.n = params.n;
  row.directed = M::directed;
  row.per_agent = M::num_states(params);
  row.total = core::detail::checked_pow(row.per_agent, params.n).value_or(0);

  {
    core::ModelChecker<M> mc(params, budget);
    row.unreduced_ran = !mc.capacity_exceeded();
    if (row.unreduced_ran) {
      core::CheckResult res;
      row.unreduced_ms = measure_ms([&] { res = mc.check(spec, legal); });
      row.unreduced_ok = res.ok;
      row.unreduced_capacity = res.capacity_exceeded;
      row.unreduced_bottom_sccs = res.num_bottom_sccs;
      row.unreduced_bottom_configs = res.num_bottom_configs;
      if (!res.ok && res.counterexample.has_value()) {
        std::printf("UNREDUCED COUNTEREXAMPLE [%s n=%d]\n%s\n", name,
                    params.n, mc.describe_counterexample(res).c_str());
      }
    } else {
      row.unreduced_capacity = true;
    }
  }

  verification::QuotientChecker<M> qc(params, budget);
  row.rotation_period = qc.symmetry().rotation_period;
  row.reflection = qc.symmetry().reflection;
  row.group_order = qc.symmetry().order();
  const std::uint64_t orbit_lower_bound =
      row.total == 0
          ? budget + 1
          : row.total / static_cast<std::uint64_t>(row.group_order);
  if (qc.capacity_exceeded() || orbit_lower_bound > budget) {
    row.quotient_capacity = true;
    return row;
  }
  row.quotient_ran = true;
  verification::QuotientResult res;
  row.quotient_ms = measure_ms([&] { res = qc.check(spec, legal); });
  row.quotient_ok = res.ok;
  row.quotient_capacity = res.capacity_exceeded;
  row.orbits = res.num_orbits;
  row.quotient_bottom_sccs = res.num_bottom_sccs;
  row.quotient_bottom_orbits = res.num_bottom_orbits;
  row.quotient_bottom_configs = res.num_bottom_configs;
  row.reduction = res.reduction_factor();
  if (!res.ok && res.counterexample.has_value()) {
    std::printf("QUOTIENT COUNTEREXAMPLE [%s n=%d]\n%s\n", name, params.n,
                qc.describe_counterexample(res).c_str());
  }
  return row;
}

}  // namespace

int main() {
  bench::banner("Exhaustive certification — unreduced vs quotient checker",
                "self-stabilization = a claim about every configuration "
                "(engineering artifact, not a paper figure)");

  const auto budget = static_cast<std::uint64_t>(
      core::env_int("PPSIM_CHECKER_BUDGET", 1 << 18));
  std::printf("node budget: %llu stored nodes per checker\n\n",
              static_cast<unsigned long long>(budget));

  std::vector<CellRow> rows;

  // Token-merge toy: 2 states/agent, so the budget crossing lands at a
  // comfortably large ring (n = 20: 1,048,576 configurations vs 52,488
  // rotation orbits).
  for (int n : {8, 12, 16, 20, 24}) {
    rows.push_back(run_cell<verification::TokenMergeModel>(
        "token_merge", {n}, budget,
        [](std::span<const verification::TokenMergeModel::State> c,
           const verification::TokenMergeModel::Params&) {
          return verification::TokenMergeModel::count_tokens(c);
        },
        [](int tokens) { return tokens <= 1; }));
  }

  // modk (k = 2): the Table-1 O(1)-state baseline, leader-bit spec.
  for (int n : {3, 5}) {
    rows.push_back(run_cell<baselines::ModkModel>(
        "modk_k2", baselines::ModkParams::make(n, 2), budget,
        verification::LeaderBitsSpec<baselines::ModkState>{},
        [](std::uint32_t bits) {
          return verification::exactly_one_leader(bits);
        }));
  }

  // Elimination subsystem: constant leader vectors in every recurrent
  // class (creation is out of scope, so leaderless classes are legal).
  for (int n : {3, 4, 5}) {
    rows.push_back(run_cell<common::EliminationProtocol>(
        "elimination", {n}, budget,
        verification::LeaderBitsSpec<common::ElimAgentState>{},
        [](std::uint32_t) { return true; }));
  }

  // P_OR: position-pinned coloring, so the detected group is trivial — the
  // honest negative control (reduction factor 1).
  for (int n : {3, 4, 5, 6, 7}) {
    rows.push_back(run_cell<orient::PorModel>(
        "P_OR", orient::OrParams::make(n), budget,
        [](std::span<const orient::OrState> c, const orient::OrParams& pp) {
          struct Out {
            bool oriented;
            std::uint64_t dirs;
            bool operator==(const Out&) const = default;
          };
          std::uint64_t dirs = 0;
          for (const orient::OrState& s : c) dirs = dirs * 8 + s.dir;
          return Out{orient::is_oriented(c, pp), dirs};
        },
        [](const auto& out) { return out.oriented; }));
  }

  core::Table t({"protocol", "n", "configs", "|G|", "orbits", "reduction",
                 "unreduced", "quotient"});
  const auto verdict = [](bool ran, bool ok, bool capacity) -> std::string {
    if (!ran || capacity) return "refused";
    return ok ? "ok" : "COUNTEREXAMPLE";
  };
  for (const CellRow& r : rows) {
    t.add_row(
        {r.protocol, core::fmt_u64(static_cast<unsigned long long>(r.n)),
         core::fmt_u64(static_cast<unsigned long long>(r.total)),
         core::fmt_u64(static_cast<unsigned long long>(r.group_order)),
         core::fmt_u64(static_cast<unsigned long long>(r.orbits)),
         core::fmt_double(r.reduction, 3),
         verdict(r.unreduced_ran, r.unreduced_ok, r.unreduced_capacity),
         verdict(r.quotient_ran, r.quotient_ok, r.quotient_capacity) +
             (r.certified_beyond_unreduced() ? " (+beyond)" : "")});
  }
  t.print(std::cout);

  // Auto-selected largest certifiable n per protocol and checker.
  std::printf("\n-- largest certifiable n under this budget --\n");
  for (const char* proto :
       {"token_merge", "modk_k2", "elimination", "P_OR"}) {
    int best_full = 0, best_quot = 0;
    for (const CellRow& r : rows) {
      if (r.protocol != proto) continue;
      if (r.unreduced_ran && r.unreduced_ok) best_full = r.n;
      if (r.quotient_ran && r.quotient_ok) best_quot = r.n;
    }
    std::printf("  %-12s unreduced n = %-3d quotient n = %d\n", proto,
                best_full, best_quot);
  }

  bench::write_artifact(
      "checker", 1, "configurations",
      [&](core::JsonWriter& w) { w.field("node_budget", budget); }, rows,
      [](core::JsonWriter& w, const CellRow& r) {
        w.field("protocol", r.protocol);
        w.field("n", r.n);
        w.field("directed", r.directed);
        w.field("per_agent_states", r.per_agent);
        w.field("total_configurations", r.total);
        w.field("rotation_period", r.rotation_period);
        w.field("reflection", r.reflection);
        w.field("group_order", r.group_order);
        w.key("unreduced");
        w.begin_object();
        w.field("ran", r.unreduced_ran);
        w.field("ok", r.unreduced_ok);
        w.field("capacity_exceeded", r.unreduced_capacity);
        w.field("bottom_sccs", r.unreduced_bottom_sccs);
        w.field("bottom_configs", r.unreduced_bottom_configs);
        w.field("ms", r.unreduced_ms);
        w.end_object();
        w.key("quotient");
        w.begin_object();
        w.field("ran", r.quotient_ran);
        w.field("ok", r.quotient_ok);
        w.field("capacity_exceeded", r.quotient_capacity);
        w.field("orbits", r.orbits);
        w.field("bottom_sccs", r.quotient_bottom_sccs);
        w.field("bottom_orbits", r.quotient_bottom_orbits);
        w.field("bottom_configs", r.quotient_bottom_configs);
        w.field("reduction_factor", r.reduction);
        w.field("ms", r.quotient_ms);
        w.end_object();
        w.field("certified_beyond_unreduced", r.certified_beyond_unreduced());
      });
  return 0;
}
