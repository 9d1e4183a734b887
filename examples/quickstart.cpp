// Quickstart: elect a leader on a directed ring of 100 anonymous agents
// starting from a completely arbitrary configuration.
//
//   $ ./quickstart [n] [seed]
//
// Walks through the library's core API: parameters, adversarial initial
// configuration, the runner, milestone predicates and the S_PL certificate.
#include <cstdio>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

int main(int argc, char** argv) {
  using namespace ppsim;

  const int n = argc > 1 ? core::parse_int("[n]", argv[1]) : 100;
  const auto seed = static_cast<std::uint64_t>(
      argc > 2 ? core::parse_int64("[seed]", argv[2]) : 2023);

  // 1. Protocol parameters: the common knowledge psi = ceil(log2 n) + O(1).
  //    (c1 scales kappa_max; the paper's proofs use c1 >= 32, smaller values
  //    run faster and work fine in practice.)
  const pl::PlParams params =
      core::checked_args([n] { return pl::PlParams::make(n, /*c1=*/8); });
  std::printf("ring size n=%d, psi=%d, kappa_max=%d, 2^psi=%lld\n", n,
              params.psi, params.kappa_max, params.id_modulus());

  // 2. An arbitrary initial configuration — the adversary fills every
  //    variable of every agent with garbage from its legal domain.
  core::Xoshiro256pp rng(seed);
  auto initial = pl::random_config(params, rng);
  std::printf("initial leaders: %d (self-stabilization: any count is fine)\n",
              pl::count_leaders(initial));

  // 3. Run under the uniformly random scheduler until the S_PL certificate
  //    holds (the exact safe set of the paper's Theorem 3.1).
  core::Runner<pl::PlProtocol> runner(params, std::move(initial), seed);
  const auto first_unique =
      runner.run_until(pl::UniqueLeaderPredicate{}, 4'000'000'000ULL);
  std::printf("first unique leader after  %12llu steps\n",
              static_cast<unsigned long long>(first_unique.value_or(0)));
  const auto safe = runner.run_until(pl::SafePredicate{}, 4'000'000'000ULL);
  if (!safe) {
    std::printf("did not certify within the budget (increase it)\n");
    return 1;
  }
  std::printf("safe configuration (S_PL) at %12llu steps  (~%.2f n^2 lg n)\n",
              static_cast<unsigned long long>(*safe),
              static_cast<double>(*safe) /
                  (static_cast<double>(n) * n *
                   (params.psi > 0 ? params.psi : 1)));

  // 4. Closure: outputs are frozen forever. Demonstrate with a follow-up run.
  const int leader = pl::leader_positions(runner.agents()).front();
  runner.run(1'000'000);
  std::printf("leader u_%d unchanged after 1M extra steps: %s\n", leader,
              runner.agent(leader).leader == 1 &&
                      runner.leader_count() == 1
                  ? "yes"
                  : "NO (bug)");
  return 0;
}
