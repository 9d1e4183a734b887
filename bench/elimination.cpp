// E7 — §3.4 / Lemma 4.11: EliminateLeaders() reduces m leaders to one within
// O(n^2) expected steps (O(n^2 log n) w.h.p.), never killing the last one.
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "common/elimination.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"

namespace {

using namespace ppsim;

struct ES {
  std::uint8_t leader = 0, bullet = 0, shield = 0, signal_b = 0;
};

struct ElimProto {
  using State = ES;
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static void apply(State& l, State& r, const Params&) {
    common::eliminate_leaders_step(l, r);
  }
  static bool is_leader(const State& s, const Params&) {
    return s.leader == 1;
  }
};

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("EliminateLeaders — Lemma 4.11",
                "§3.4 (bullets & shields), Lemma 4.11 (O(n^2) expected)");

  const int trials = core::env_int("PPSIM_TRIALS", 9);

  core::Table t({"n", "m (initial leaders)", "median steps to 1", "mean",
                 "median/n^2", "ever zero?"});
  for (int n : bench::ring_sweep(256)) {
    std::vector<int> ms{2};
    if (n / 4 > 2) ms.push_back(n / 4);
    if (n > 2) ms.push_back(n);
    for (int m : ms) {
      std::vector<std::uint64_t> samples;
      bool ever_zero = false;
      for (int tr = 0; tr < trials; ++tr) {
        ElimProto::Params p{n};
        std::vector<ES> config(static_cast<std::size_t>(n));
        for (int i = 0; i < m; ++i) {
          auto& s = config[static_cast<std::size_t>(i * n / m)];
          s.leader = 1;
          s.shield = 1;
        }
        core::Runner<ElimProto> run(p, config,
                                    core::derive_seed(99, n, tr));
        const auto hit = run.run_until(
            [&](std::span<const ES> c, const ElimProto::Params&) {
              int k = 0;
              for (const ES& s : c) k += s.leader;
              if (k == 0) ever_zero = true;
              return k == 1;
            },
            2'000'000ULL * static_cast<std::uint64_t>(n));
        if (hit) samples.push_back(*hit);
      }
      const auto s = core::summarize_u64(samples);
      t.add_row({core::fmt_u64(static_cast<unsigned long long>(n)),
                 core::fmt_u64(static_cast<unsigned long long>(m)),
                 core::fmt_double(s.median, 4), core::fmt_double(s.mean, 4),
                 core::fmt_double(
                     s.median / (static_cast<double>(n) * n), 3),
                 ever_zero ? "YES (bug!)" : "no"});
    }
  }
  t.print(std::cout);
  std::printf("\n(expected: median/n^2 roughly flat in n; never zero)\n");
  return 0;
}
