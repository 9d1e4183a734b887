// E6 — Lemmas 3.9/3.10: empirical envelopes of the lottery game W_LG(k, l).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"

namespace {

int play(int k, std::uint64_t flips, ppsim::core::Xoshiro256pp& rng) {
  int wins = 0, run = 0;
  for (std::uint64_t i = 0; i < flips; ++i) {
    if (rng.coin()) {
      if (++run == k) {
        ++wins;
        run = 0;
      }
    } else {
      run = 0;
    }
  }
  return wins;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Lottery game — Lemmas 3.9/3.10",
                "Definition 3.8 + the two Chernoff envelopes");

  const int trials = core::env_int("PPSIM_TRIALS", 400);
  core::Xoshiro256pp rng(2023);

  core::Table t({"k", "c", "L3.9: P(W(4ck 2^k) <= 8ck)",
                 "bound >= 1-2^-ck", "L3.10: P(W(64ck 2^k) >= 16ck)",
                 "bound >= 1-2^-ck"});
  for (int k : {3, 4, 5, 6, 8}) {
    for (int c : {1, 2}) {
      const std::uint64_t l39 = 4ULL * c * k << k;
      const std::uint64_t l310 = 64ULL * c * k << k;
      int ok39 = 0, ok310 = 0;
      for (int tdx = 0; tdx < trials; ++tdx) {
        if (play(k, l39, rng) <= 8 * c * k) ++ok39;
        if (play(k, l310, rng) >= 16 * c * k) ++ok310;
      }
      const double bound = 1.0 - std::pow(0.5, c * k);
      t.add_row({core::fmt_u64(static_cast<unsigned long long>(k)),
                 core::fmt_u64(static_cast<unsigned long long>(c)),
                 core::fmt_double(static_cast<double>(ok39) / trials, 4),
                 core::fmt_double(bound, 4),
                 core::fmt_double(static_cast<double>(ok310) / trials, 4),
                 core::fmt_double(bound, 4)});
    }
  }
  t.print(std::cout);
  std::printf(
      "\n(each empirical probability should meet or exceed its bound "
      "column;\nthe lemmas are conservative, so large margins are "
      "expected)\n");
  return 0;
}
