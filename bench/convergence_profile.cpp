// E16 — convergence profiles: how the paper's phases unfold in one run.
//
// Samples leader count, detection-mode population, resetting-signal
// population, dist-chain violations and segment-ID violations while P_PL
// stabilizes from three canonical starts (random garbage / leaderless /
// post-fault), rendering each as an ASCII profile. This is the qualitative
// companion to thm31_scaling: the phase structure of §3.1's proof sketch
// (drain signals -> clocks rise -> detect -> create -> eliminate ->
// construct) is directly visible.
#include <cstdio>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "core/timeseries.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace {

using namespace ppsim;

void profile_fresh(const char* title, const pl::PlParams& p,
                   const std::vector<pl::PlState>& init,
                   std::uint64_t seed) {
  // Single pass: run and sample simultaneously until safe (plus a tail).
  // The inter-sample stretches go through the batched Runner::run fast path.
  core::Runner<pl::PlProtocol> run(p, init, seed);
  const std::uint64_t sample = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p.n) * static_cast<std::uint64_t>(p.n) /
             8);
  core::Profile prof(sample);
  auto& leaders = prof.add("leaders");
  auto& detect = prof.add("in Detect");
  auto& signals = prof.add("signals");
  auto& dist_bad = prof.add("dist violations");
  auto& unsafe = prof.add("unsafe (0/1)");

  std::uint64_t safe_at = 0;
  for (int i = 0; i < 600; ++i) {
    int nl = 0, nd = 0, ns = 0, nv = 0;
    const auto agents = run.agents();
    const int n = p.n;
    for (int a = 0; a < n; ++a) {
      const pl::PlState& s = agents[static_cast<std::size_t>(a)];
      nl += s.leader;
      nd += pl::in_detect_mode(s, p.kappa_max) ? 1 : 0;
      ns += s.signal_r > 0 ? 1 : 0;
      const pl::PlState& left =
          agents[static_cast<std::size_t>((a + n - 1) % n)];
      const int expected = s.leader == 1
                               ? 0
                               : (static_cast<int>(left.dist) + 1) %
                                     p.two_psi();
      nv += static_cast<int>(s.dist) != expected ? 1 : 0;
    }
    const bool safe = pl::is_safe(agents, p);
    if (safe && safe_at == 0) safe_at = run.steps();
    leaders.record(nl);
    detect.record(nd);
    signals.record(ns);
    dist_bad.record(nv);
    unsafe.record(safe ? 0 : 1);
    if (safe && i > 20 && run.steps() > 3 * safe_at) break;
    run.run(sample);
  }
  std::printf("\n-- %s (n=%d, psi=%d; sample every %llu steps; first safe "
              "at %llu) --\n",
              title, p.n, p.psi,
              static_cast<unsigned long long>(sample),
              static_cast<unsigned long long>(safe_at));
  std::printf("%s", prof.render().c_str());
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Convergence profiles",
                "§3.1 overview (the phases of stabilization, qualitatively)");
  const int n = core::env_int("PPSIM_N", 64);
  const int c1 = core::env_int("PPSIM_C1", 4);
  const auto p = pl::PlParams::make(n, c1);

  core::Xoshiro256pp rng(2023);
  profile_fresh("random garbage", p, pl::random_config(p, rng), 1);
  profile_fresh("leaderless, consistent dists (hardest detection)", p,
                pl::leaderless_consistent(p, 0), 2);
  auto post_fault = pl::make_safe_config(p);
  post_fault[0].leader = 0;  // delete the unique leader
  profile_fresh("post-fault: deleted leader", p, post_fault, 3);
  auto many = pl::make_safe_config(p);
  for (int i = 0; i < p.n; i += 4) {
    many[static_cast<std::size_t>(i)].leader = 1;
    many[static_cast<std::size_t>(i)].shield = 1;
  }
  profile_fresh("post-fault: n/4 duplicate leaders", p, many, 4);
  return 0;
}
