// E10 — Lemma 2.3: a length-l interaction sequence occurs within n*l expected
// steps; the w.h.p. tail is O(c n (l + log n)).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "core/ring.hpp"
#include "core/statistics.hpp"
#include "core/table.hpp"

namespace {

std::uint64_t occurrence_time(const std::vector<int>& s, int n,
                              ppsim::core::Xoshiro256pp& rng) {
  std::size_t matched = 0;
  std::uint64_t steps = 0;
  while (matched < s.size()) {
    ++steps;
    if (static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n))) ==
        s[matched])
      ++matched;
  }
  return steps;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Sequence occurrence — Lemma 2.3",
                "Lemma 2.3 (expectation n*l; Chernoff tail)");

  const int trials = core::env_int("PPSIM_TRIALS", 300);
  core::Xoshiro256pp rng(101);

  core::Table t({"n", "l", "mean steps", "n*l (Lemma 2.3)", "ratio", "p99",
                 "4n(l+lg n)"});
  for (int n : {16, 64, 256}) {
    for (int l : {n / 4, n, 4 * n}) {
      const auto s = core::seq_r(0, l, n);
      std::vector<double> samples;
      for (int tr = 0; tr < trials; ++tr)
        samples.push_back(static_cast<double>(occurrence_time(s, n, rng)));
      const auto sum = core::summarize(samples);
      const double expected = static_cast<double>(n) * l;
      const double p99 = core::percentile(samples, 0.99);
      t.add_row({core::fmt_u64(static_cast<unsigned long long>(n)),
                 core::fmt_u64(static_cast<unsigned long long>(l)),
                 core::fmt_double(sum.mean, 5),
                 core::fmt_double(expected, 5),
                 core::fmt_double(sum.mean / expected, 3),
                 core::fmt_double(p99, 5),
                 core::fmt_double(4.0 * n * (l + std::log2(n)), 5)});
    }
  }
  t.print(std::cout);
  std::printf("\n(expected: ratio ~ 1.0; p99 below the 4n(l+lg n) column)\n");
  return 0;
}
