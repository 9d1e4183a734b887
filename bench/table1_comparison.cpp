// E1 — Table 1: five-way comparison of SS-LE protocols on rings.
//
// For each runnable protocol, measures steps to its safe certificate from
// uniformly random initial configurations over a ring-size sweep, fits the
// scaling exponent, and reports the per-agent state count. The Chen-Chen [11]
// row is carried as theory: its O(1)-state protocol takes exponential time,
// so it is not simulated.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "analysis/experiment.hpp"
#include "analysis/scaling.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

namespace {

using namespace ppsim;

constexpr std::uint64_t kSeed = 20230515;  // arXiv submission date

struct RowResult {
  std::vector<analysis::ScalingPoint> points;
};

template <typename P, typename MakeParams, typename Gen, typename Pred>
RowResult sweep(const std::vector<int>& ns, MakeParams&& mk, Gen&& gen,
                Pred&& pred, int trials, std::uint64_t tag) {
  // Trial-parallel engine; bit-identical results for any
  // PPSIM_THREADS (analysis::measure_convergence_parallel). Note: the sweep
  // helper derives per-point tags as `tag << 32 | n` (the old harness used
  // `tag * 1000 + n`), so hitting times differ from pre-engine runs at the
  // same kSeed — same distribution, different draws.
  return RowResult{analysis::measure_scaling_sweep<P>(
      ns, std::forward<MakeParams>(mk), std::forward<Gen>(gen),
      std::forward<Pred>(pred), trials, kSeed, tag)};
}

void print_row_table(const char* name, const RowResult& row) {
  core::Table t({"n", "median steps", "mean", "p90", "median/n^2",
                 "median/(n^2 lg n)", "fails"});
  for (const auto& pt : row.points) {
    t.add_row({core::fmt_u64(static_cast<unsigned long long>(pt.n)),
               core::fmt_double(pt.stats.steps.median, 4),
               core::fmt_double(pt.stats.steps.mean, 4),
               core::fmt_double(pt.stats.steps.p90, 4),
               core::fmt_double(analysis::normalized_n2(pt), 3),
               core::fmt_double(analysis::normalized_n2logn(pt), 3),
               core::fmt_u64(static_cast<unsigned long long>(
                   pt.stats.failures))});
  }
  std::printf("\n-- %s --\n", name);
  t.print(std::cout);
  const auto fit = analysis::fit_median_scaling(row.points);
  if (fit.valid) {
    std::printf("fitted: steps ~ %.3g * n^%.2f  (r2 = %.3f)%s\n",
                fit.constant, fit.exponent, fit.r2,
                fit.skipped > 0 ? "  [degenerate points skipped]" : "");
  } else {
    std::printf("fit INVALID (%d degenerate point(s), < 2 usable)\n",
                fit.skipped);
  }
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Table 1 — SS-LE on rings: convergence & states",
                "Table 1 of the paper (five protocols)");

  const int trials = core::env_int("PPSIM_TRIALS", 5);
  const auto ns = bench::ring_sweep(128);
  const int c1 = core::env_int("PPSIM_C1", 4);

  // --- this work: P_PL ---
  const auto pl_row = sweep<pl::PlProtocol>(
      ns, [&](int n) { return pl::PlParams::make(n, c1); },
      [](const pl::PlParams& p, core::Xoshiro256pp& rng) {
        return pl::random_config(p, rng);
      },
      pl::SafePredicate{}, trials, 1);
  print_row_table("this work: P_PL (polylog states)", pl_row);

  // --- [28] yokota28 ---
  const auto y28_row = sweep<baselines::Yokota28>(
      ns, [](int n) { return baselines::Y28Params::make(n); },
      [](const baselines::Y28Params& p, core::Xoshiro256pp& rng) {
        return baselines::y28_random_config(p, rng);
      },
      [](std::span<const baselines::Y28State> c,
         const baselines::Y28Params& p) {
        return baselines::y28_is_safe(c, p);
      },
      trials, 2);
  print_row_table("[28] Yokota-Sudo-Masuzawa (O(n) states)", y28_row);

  // --- [15] fischer-jiang + Omega? ---
  const auto fj_row = sweep<baselines::FischerJiang>(
      ns, [](int n) { return baselines::FjParams::make(n); },
      [](const baselines::FjParams& p, core::Xoshiro256pp& rng) {
        return baselines::fj_random_config(p, rng);
      },
      [](std::span<const baselines::FjState> c,
         const baselines::FjParams& p) {
        return baselines::fj_is_safe(c, p);
      },
      trials, 3);
  print_row_table("[15] Fischer-Jiang + Omega? (O(1) states)", fj_row);

  // --- [5] modk (odd ring sizes: n not a multiple of k = 2) ---
  std::vector<int> odd_ns;
  for (int n : ns) odd_ns.push_back(n + 1);
  const auto modk_row = sweep<baselines::Modk>(
      odd_ns, [](int n) { return baselines::ModkParams::make(n, 2); },
      [](const baselines::ModkParams& p, core::Xoshiro256pp& rng) {
        return baselines::modk_random_config(p, rng);
      },
      [](std::span<const baselines::ModkState> c,
         const baselines::ModkParams& p) {
        return baselines::modk_is_safe(c, p);
      },
      trials, 4);
  print_row_table("[5]-style modk, k=2 (O(1) states, n odd)", modk_row);

  // --- Summary table in the shape of the paper's Table 1 ---
  std::printf("\n-- Table 1 (paper vs measured) --\n");
  core::Table t1({"protocol", "assumption", "paper bound", "measured n-exp",
                  "#states at n=128"});
  auto exp_of = [](const RowResult& r) {
    const auto fit = analysis::fit_median_scaling(r.points);
    return fit.valid ? core::fmt_double(fit.exponent, 3)
                     : std::string("n/a");
  };
  t1.add_row({"[5] modk*", "n not multiple of k", "Theta(n^3)",
              exp_of(modk_row),
              analysis::format_state_count(analysis::modk_state_count(2))});
  t1.add_row({"[15] FJ + Omega?*", "oracle Omega?", "Theta(n^3)",
              exp_of(fj_row),
              analysis::format_state_count(analysis::fj_state_count())});
  t1.add_row({"[11] Chen-Chen", "none", "exponential",
              "(theory)", "O(1)"});
  t1.add_row({"[28] Yokota et al.", "psi = ceil(log n)+O(1)", "Theta(n^2)",
              exp_of(y28_row),
              analysis::format_state_count(analysis::y28_state_count(128))});
  t1.add_row({"this work P_PL", "psi = ceil(log n)+O(1)", "O(n^2 log n)",
              exp_of(pl_row),
              analysis::format_state_count(
                  analysis::pl_state_count(pl::PlParams::make(128, c1)))});
  t1.print(std::cout);
  std::printf(
      "* reconstructions (original pseudocode not in this paper); see "
      "README.md, Fidelity notes.\n"
      "Note: measured exponents for [5]/[15] reflect our reconstructions'\n"
      "behaviour from random initial configurations, which is typically\n"
      "faster than the papers' worst-case bounds.\n");
  return 0;
}
