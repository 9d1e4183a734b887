// E15 — internal-mechanism statistics via the event layer:
//   * token lifecycle under the *random* scheduler: moves per completed
//     trajectory must average 2psi^2-2psi+1 (Def. 3.4), and completion /
//     death-cause mix;
//   * resetting-signal lifetime (Lemma 3.11: absorbed-or-expired within
//     O(n^2 kappa_max) steps, i.e. Theta(kappa_max 2^psi) encounters) via
//     Little's law: mean lifetime = mean #alive * horizon / deaths;
//   * bullet-war throughput in steady state.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/events.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

int main() {
  using namespace ppsim;
  bench::banner("Internal mechanisms — tokens, signals, bullets",
                "Def. 3.4, Lemma 3.11, §3.4 (steady-state statistics)");

  const int c1 = core::env_int("PPSIM_C1", 4);

  core::Table t({"n", "psi", "tok moves/completion", "2p^2-2p+1",
                 "completions", "collision deaths", "lastseg deaths",
                 "signal mean lifetime (steps)", "n^2*kmax",
                 "kills/Msteps"});
  for (int n : bench::ring_sweep(256)) {
    const auto p = pl::PlParams::make(n, c1);
    pl::EventCounters ev;
    core::Runner<pl::InstrumentedPlProtocol> run(
        pl::InstrumentedPlProtocol::Params::make(p, &ev),
        pl::make_safe_config(p), 17);
    const std::uint64_t horizon =
        200ULL * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    // Sample the alive-signal count every n steps for Little's law.
    double alive_sum = 0.0;
    std::uint64_t samples = 0;
    for (std::uint64_t done = 0; done < horizon;
         done += static_cast<std::uint64_t>(n)) {
      run.run(static_cast<std::uint64_t>(n));
      int alive = 0;
      for (const auto& s : run.agents()) alive += s.signal_r > 0 ? 1 : 0;
      alive_sum += alive;
      ++samples;
    }
    const double mean_alive = alive_sum / static_cast<double>(samples);
    const auto signal_deaths = ev.signals_absorbed + ev.signals_expired;
    const double mean_lifetime =
        signal_deaths == 0
            ? 0.0
            : mean_alive * static_cast<double>(horizon) /
                  static_cast<double>(signal_deaths);
    const std::uint64_t completions = ev.completions[0] + ev.completions[1];
    const std::uint64_t moves = ev.token_moves[0] + ev.token_moves[1];
    // Moves are shared between completed and aborted tokens; in the safe
    // steady state aborted tokens (last-segment pairs) contribute a
    // near-constant overhead, so moves/completion ~ trajectory length + eps.
    t.add_row(
        {core::fmt_u64(static_cast<unsigned long long>(n)),
         core::fmt_u64(static_cast<unsigned long long>(p.psi)),
         core::fmt_double(completions == 0
                              ? 0.0
                              : static_cast<double>(moves) /
                                    static_cast<double>(completions),
                          4),
         core::fmt_u64(static_cast<unsigned long long>(
             p.trajectory_length())),
         core::fmt_u64(ev.completions[1]),
         core::fmt_u64(ev.deaths_collision[0] + ev.deaths_collision[1]),
         core::fmt_u64(ev.deaths_last_segment[0] +
                       ev.deaths_last_segment[1]),
         core::fmt_double(mean_lifetime, 4),
         core::fmt_double(static_cast<double>(n) * n * p.kappa_max, 3),
         core::fmt_double(static_cast<double>(ev.leaders_killed) * 1e6 /
                              static_cast<double>(horizon),
                          3)});
  }
  t.print(std::cout);
  std::printf(
      "\n(safe steady state: kills/Msteps must be 0 — the unique leader is\n"
      "never killed; signal lifetimes stay below the n^2*kappa_max column,\n"
      "the Lemma-3.11 w.h.p. envelope. Collision deaths dominate: borders\n"
      "re-create tokens continuously and only the rightmost survivor per\n"
      "working pair completes — exactly the paper's live-lock-freedom\n"
      "argument after lines 14-15 — so moves/completion sits a small factor\n"
      "above Def. 3.4's 2psi^2-2psi+1.)\n");
  return 0;
}
