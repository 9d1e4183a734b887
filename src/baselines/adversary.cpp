// Safe predicates and configuration generators for the baseline protocols.
#include <algorithm>

#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/ring.hpp"

namespace ppsim::baselines {

namespace {

template <typename S>
int count_leaders_of(std::span<const S> c) {
  int k = 0;
  for (const S& s : c) k += s.leader == 1 ? 1 : 0;
  return k;
}

template <typename S>
int sole_leader_of(std::span<const S> c) {
  for (int i = 0; i < static_cast<int>(c.size()); ++i)
    if (c[static_cast<std::size_t>(i)].leader == 1) return i;
  return -1;
}

/// Peaceful-bullet walk for states exposing leader/shield/signal_b.
template <typename S>
bool peaceful_with_signal(std::span<const S> c, int i) {
  const int n = static_cast<int>(c.size());
  for (int j = 0; j < n; ++j) {
    const S& s = c[static_cast<std::size_t>(core::ring_add(i, -j, n))];
    if (s.signal_b != 0) return false;
    if (s.leader == 1) return s.shield == 1;
  }
  return false;
}

}  // namespace

bool y28_is_safe(std::span<const Y28State> c, const Y28Params& p) {
  if (count_leaders_of(c) != 1) return false;
  const int k = sole_leader_of(c);
  const int n = p.n;
  for (int i = 0; i < n; ++i) {
    const Y28State& s = c[static_cast<std::size_t>(core::ring_add(k, i, n))];
    if (static_cast<int>(s.dist) != i) return false;
  }
  for (int i = 0; i < n; ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !peaceful_with_signal(c, i))
      return false;
  return true;
}

Y28State y28_random_state(const Y28Params& p, core::Xoshiro256pp& rng) {
  Y28State s;
  s.leader = static_cast<std::uint8_t>(rng.bounded(2));
  s.dist = static_cast<std::uint16_t>(rng.bounded(p.cap));
  s.bullet = static_cast<std::uint8_t>(rng.bounded(3));
  s.shield = static_cast<std::uint8_t>(rng.bounded(2));
  s.signal_b = static_cast<std::uint8_t>(rng.bounded(2));
  return s;
}

std::vector<Y28State> y28_random_config(const Y28Params& p,
                                        core::Xoshiro256pp& rng) {
  std::vector<Y28State> c(static_cast<std::size_t>(p.n));
  for (Y28State& s : c) s = y28_random_state(p, rng);
  return c;
}

std::vector<Y28State> y28_safe_config(const Y28Params& p, int leader_pos) {
  std::vector<Y28State> c(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    Y28State& s =
        c[static_cast<std::size_t>(core::ring_add(leader_pos, i, p.n))];
    s.dist = static_cast<std::uint16_t>(i);
    if (i == 0) {
      s.leader = 1;
      s.shield = 1;
    }
  }
  return c;
}

std::vector<Y28State> y28_leaderless(const Y28Params& p) {
  std::vector<Y28State> c(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i)
    c[static_cast<std::size_t>(i)].dist = 0;  // the ramp must grow to N
  return c;
}

bool fj_is_safe(std::span<const FjState> c, const FjParams&) {
  if (count_leaders_of(c) != 1) return false;
  // Every live bullet's nearest left leader is the unique leader, so any
  // live bullet requires that leader to be shielded.
  if (c[static_cast<std::size_t>(sole_leader_of(c))].shield == 1) return true;
  return std::none_of(c.begin(), c.end(),
                      [](const FjState& s) { return s.bullet == 2; });
}

FjState fj_random_state(const FjParams&, core::Xoshiro256pp& rng) {
  FjState s;
  s.leader = static_cast<std::uint8_t>(rng.bounded(2));
  s.bullet = static_cast<std::uint8_t>(rng.bounded(3));
  s.shield = static_cast<std::uint8_t>(rng.bounded(2));
  s.armed = static_cast<std::uint8_t>(rng.bounded(2)) & s.leader;
  return s;
}

std::vector<FjState> fj_random_config(const FjParams& p,
                                      core::Xoshiro256pp& rng) {
  std::vector<FjState> c(static_cast<std::size_t>(p.n));
  for (FjState& s : c) s = fj_random_state(p, rng);
  return c;
}

std::vector<FjState> fj_safe_config(const FjParams& p, int leader_pos) {
  std::vector<FjState> c(static_cast<std::size_t>(p.n));
  FjState& l = c[static_cast<std::size_t>(leader_pos)];
  l.leader = 1;
  l.shield = 1;
  return c;
}

bool modk_is_safe(std::span<const ModkState> c, const ModkParams& p) {
  if (count_leaders_of(c) != 1) return false;
  const int k = sole_leader_of(c);
  const int n = p.n;
  for (int i = 0; i < n; ++i) {
    const ModkState& s =
        c[static_cast<std::size_t>(core::ring_add(k, i, n))];
    if (static_cast<int>(s.lab) != i % p.k) return false;
  }
  for (int i = 0; i < n; ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !peaceful_with_signal(c, i))
      return false;
  return true;
}

ModkState modk_random_state(const ModkParams& p, core::Xoshiro256pp& rng) {
  ModkState s;
  s.leader = static_cast<std::uint8_t>(rng.bounded(2));
  s.lab = static_cast<std::uint8_t>(rng.bounded(p.k));
  s.bullet = static_cast<std::uint8_t>(rng.bounded(3));
  s.shield = static_cast<std::uint8_t>(rng.bounded(2));
  s.signal_b = static_cast<std::uint8_t>(rng.bounded(2));
  return s;
}

std::vector<ModkState> modk_random_config(const ModkParams& p,
                                          core::Xoshiro256pp& rng) {
  std::vector<ModkState> c(static_cast<std::size_t>(p.n));
  for (ModkState& s : c) s = modk_random_state(p, rng);
  return c;
}

std::vector<ModkState> modk_safe_config(const ModkParams& p, int leader_pos) {
  std::vector<ModkState> c(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    ModkState& s =
        c[static_cast<std::size_t>(core::ring_add(leader_pos, i, p.n))];
    s.lab = static_cast<std::uint8_t>(i % p.k);
    if (i == 0) {
      s.leader = 1;
      s.shield = 1;
    }
  }
  return c;
}

}  // namespace ppsim::baselines
