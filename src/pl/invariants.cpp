#include "pl/invariants.hpp"

#include <algorithm>
#include <cassert>

#include "core/ring.hpp"

namespace ppsim::pl {

using core::ring_add;
using core::ring_distance;

std::vector<int> leader_positions(Config c) {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(c.size()); ++i)
    if (c[static_cast<std::size_t>(i)].leader == 1) out.push_back(i);
  return out;
}

int count_leaders(Config c) {
  int k = 0;
  for (const PlState& s : c) k += s.leader == 1 ? 1 : 0;
  return k;
}

bool satisfies_condition1(Config c, const PlParams& p) {
  const int n = static_cast<int>(c.size());
  for (int i = 0; i < n; ++i) {
    const PlState& cur = c[static_cast<std::size_t>(i)];
    const PlState& left = c[static_cast<std::size_t>(ring_add(i, -1, n))];
    const int expected =
        cur.leader == 1 ? 0 : (static_cast<int>(left.dist) + 1) % p.two_psi();
    if (static_cast<int>(cur.dist) != expected) return false;
  }
  return true;
}

bool is_border(const PlState& s, const PlParams& p) {
  return static_cast<int>(s.dist) == 0 || static_cast<int>(s.dist) == p.psi;
}

std::vector<SegmentView> decompose_segments(Config c, const PlParams& p) {
  const int n = static_cast<int>(c.size());
  std::vector<int> borders;
  for (int i = 0; i < n; ++i)
    if (is_border(c[static_cast<std::size_t>(i)], p)) borders.push_back(i);
  std::vector<SegmentView> out;
  out.reserve(borders.size());
  for (std::size_t bi = 0; bi < borders.size(); ++bi) {
    const int start = borders[bi];
    const int next = borders[(bi + 1) % borders.size()];
    int length = ring_distance(start, next, n);
    if (length == 0) length = n;  // single border: one segment, whole ring
    SegmentView seg;
    seg.start = start;
    seg.length = length;
    unsigned long long id = 0;
    for (int j = length - 1; j >= 0; --j) {
      id = id * 2 + c[static_cast<std::size_t>(ring_add(start, j, n))].b;
      if (id > (1ULL << 62)) {  // saturate: longer than any real segment
        id = 1ULL << 62;
        break;
      }
    }
    seg.id = id;
    out.push_back(seg);
  }
  return out;
}

bool satisfies_condition2(Config c, const PlParams& p) {
  const auto segments = decompose_segments(c, p);
  if (segments.empty()) return true;  // no borders => no segments: vacuous
  const int n = static_cast<int>(c.size());
  const auto modulus = static_cast<unsigned long long>(p.id_modulus());
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const SegmentView& seg = segments[si];
    const SegmentView& prev =
        segments[(si + segments.size() - 1) % segments.size()];
    const int after = ring_add(seg.start, seg.length, n);
    const bool exempt =
        c[static_cast<std::size_t>(seg.start)].leader == 1 ||
        c[static_cast<std::size_t>(after)].leader == 1;
    if (exempt) continue;
    if (seg.id != (prev.id + 1) % modulus) return false;
  }
  return true;
}

bool is_perfect(Config c, const PlParams& p) {
  return satisfies_condition1(c, p) && satisfies_condition2(c, p);
}

bool token_valid(const PlState& host, const Token& t, int d,
                 const PlParams& p) {
  return t.exists() && !detail::invalid_token(host, t, d, p);
}

namespace {

// The S_PL clauses, each written once over a configuration view C: a span
// of PlState or a WordConfig, whose operator[] decodes a word on access.
// Agents are read through agent(), which binds a span element by reference
// and a decoded word by value. Ring walks step a wrapping index rather than
// calling ring_add (a 64-bit modulo) per agent.

template <typename C>
decltype(auto) agent(const C& c, int i) {
  return c[static_cast<std::size_t>(i)];
}

/// Resolve the working-pair geometry of a valid token in the C_DL layout.
/// Returns false when the geometry does not embed in the ring without
/// wrapping past the leader.
struct TokenGeometry {
  int pair_start = 0;  ///< absolute index of the border opening S_i
  int round = 0;       ///< x: the round the token is in
};

bool resolve_geometry(int n, const PlParams& p, int host, const PlState& h,
                      const Token& t, int d, int leader_pos,
                      TokenGeometry& g) {
  if (!token_valid(h, t, d, p)) return false;
  const int tau =
      detail::mod_2psi(static_cast<int>(h.dist) + t.pos + d, p.two_psi());
  int target_offset_in_pair;  // offset of the target from the pair start
  if (t.pos > 0) {
    g.round = tau - p.psi;                       // x in [0, psi-1]
    target_offset_in_pair = p.psi + g.round;
  } else {
    g.round = tau - 1;                           // x in [0, psi-2]
    target_offset_in_pair = g.round + 1;
  }
  const int target_abs = ring_add(host, t.pos, n);
  g.pair_start = ring_add(target_abs, -target_offset_in_pair, n);

  // The pair must sit at a segment boundary of the right color and contain
  // the host without wrapping past the leader.
  const int rel_start = ring_distance(leader_pos, g.pair_start, n);
  if (rel_start % p.psi != 0) return false;
  if ((rel_start % p.two_psi()) != d) return false;
  const int host_off = ring_distance(leader_pos, host, n) - rel_start;
  if (host_off < 0 || host_off > p.two_psi() - 1) return false;
  const int tgt_off = ring_distance(leader_pos, target_abs, n) - rel_start;
  if (tgt_off != target_offset_in_pair) return false;
  return true;
}

template <typename C>
bool token_correct_in(const C& c, const PlParams& p, int host, bool black,
                      int leader_pos) {
  const int n = static_cast<int>(c.size());
  const PlState h = agent(c, host);
  const Token& t = black ? h.token_b : h.token_w;
  const int d = black ? 0 : p.psi;
  TokenGeometry g;
  if (!resolve_geometry(n, p, host, h, t, d, leader_pos, g)) return false;

  // j = index of the first 0 bit of S_i (psi if all ones).
  int j = p.psi;
  for (int idx = 0, at = g.pair_start; idx < p.psi; ++idx) {
    if (agent(c, at).b == 0) {
      j = idx;
      break;
    }
    if (++at == n) at = 0;
  }
  const int x = g.round;
  // During round x the token carries the increment's result bit x and the
  // carry *after* consuming bit x:
  //   value = b_x XOR carry_x,   carry-field = carry_{x+1},
  // with carry_x = [x <= j] and carry_{x+1} = [x < j]. (Def. 4.3 with the
  // carry-phase fix; forced by lines 13 and 27, see DESIGN.md §2.1(5).)
  const int b_x = agent(c, ring_add(g.pair_start, x, n)).b;
  const int carry_x = x <= j ? 1 : 0;
  const int carry_next = x < j ? 1 : 0;
  return static_cast<int>(t.carry) == carry_next &&
         static_cast<int>(t.value) == (b_x ^ carry_x);
}

template <typename C>
bool live_bullet_peaceful_in(const C& c, int i) {
  const int n = static_cast<int>(c.size());
  // Walk left from u_i to the nearest leader; every agent on the way
  // (including u_i and the leader) must carry no bullet-absence signal, and
  // the leader must be shielded.
  for (int jj = 0, idx = i; jj < n; ++jj) {
    const auto& s = agent(c, idx);
    if (s.signal_b != 0) return false;
    if (s.leader == 1) return s.shield == 1;
    idx = idx == 0 ? n - 1 : idx - 1;
  }
  return false;  // no leader: d_LL(i) = infinity, not peaceful
}

template <typename C>
bool in_cdl_layout_in(const C& c, const PlParams& p, int leader_pos) {
  const int n = static_cast<int>(c.size());
  const int last_from = p.psi * (p.zeta() - 1);
  for (int i = 0, idx = leader_pos, dist = 0; i < n; ++i) {
    const auto& s = agent(c, idx);
    if (static_cast<int>(s.dist) != dist) return false;
    if ((s.last == 1) != (i >= last_from)) return false;
    if (++idx == n) idx = 0;
    if (++dist == p.two_psi()) dist = 0;
  }
  return true;
}

/// The first failing clause plus where it failed: the leader count for
/// kLeaderCount, the agent index for kPeacefulBullets and kTokens, the
/// segment pair for kSegmentIds. check_safe turns it into a reason.
struct SafeFinding {
  SafeClause clause = SafeClause::kSafe;
  int at = 0;
  bool black = false;  ///< kTokens: the failing token's color
};

template <typename C>
SafeFinding find_failing_clause(const C& c, const PlParams& p) {
  const int n = static_cast<int>(c.size());
  int leaders = 0;
  int k = 0;
  for (int i = 0; i < n; ++i) {
    if (agent(c, i).leader == 1) {
      ++leaders;
      k = i;
    }
  }
  if (leaders != 1) return {SafeClause::kLeaderCount, leaders};
  if (!in_cdl_layout_in(c, p, k)) return {SafeClause::kCdlLayout, k};
  for (int i = 0; i < n; ++i)
    if (agent(c, i).bullet == common::kLiveBullet &&
        !live_bullet_peaceful_in(c, i))
      return {SafeClause::kPeacefulBullets, i};

  for (int i = 0; i < n; ++i) {
    const auto& s = agent(c, i);
    for (const bool black : {true, false}) {
      if (!(black ? s.token_b : s.token_w).exists()) continue;
      if (s.last == 1 || !token_correct_in(c, p, i, black, k))
        return {SafeClause::kTokens, i, black};
    }
  }

  // Segment IDs consecutive for i in [0, zeta-3]: read S_0, S_1, ... in one
  // forward walk from the leader, each ID once.
  const auto modulus = static_cast<unsigned long long>(p.id_modulus());
  int at = k;
  const auto next_segment_id = [&] {
    unsigned long long id = 0;
    for (int j = 0; j < p.psi; ++j) {
      id += static_cast<unsigned long long>(agent(c, at).b) << j;
      if (++at == n) at = 0;
    }
    return id;
  };
  const int pairs = p.zeta() - 2;
  if (pairs > 0) {
    unsigned long long prev = next_segment_id();
    for (int i = 0; i < pairs; ++i) {
      const unsigned long long cur = next_segment_id();
      if (cur != (prev + 1) % modulus) return {SafeClause::kSegmentIds, i};
      prev = cur;
    }
  }
  return {SafeClause::kSafe, 0};
}

}  // namespace

bool token_correct(Config c, const PlParams& p, int host, bool black,
                   int leader_pos) {
  return token_correct_in(c, p, host, black, leader_pos);
}

bool live_bullet_peaceful(Config c, int i) {
  return live_bullet_peaceful_in(c, ring_add(i, 0, static_cast<int>(c.size())));
}

bool in_cpb(Config c) {
  if (count_leaders(c) < 1) return false;
  for (int i = 0; i < static_cast<int>(c.size()); ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !live_bullet_peaceful(c, i))
      return false;
  return true;
}

bool in_cdl_layout(Config c, const PlParams& p, int leader_pos) {
  return in_cdl_layout_in(
      c, p, ring_add(leader_pos, 0, static_cast<int>(c.size())));
}

SafeClause first_failing_clause(Config c, const PlParams& p) {
  return find_failing_clause(c, p).clause;
}

SafeClause first_failing_clause(const WordConfig& c, const PlParams& p) {
  return find_failing_clause(c, p).clause;
}

SafetyVerdict check_safe(Config c, const PlParams& p) {
  const SafeFinding f = find_failing_clause(c, p);
  const std::string at = std::to_string(f.at);
  switch (f.clause) {
    case SafeClause::kLeaderCount:
      return {false, f.clause, "leader count != 1 (" + at + ")"};
    case SafeClause::kCdlLayout:
      return {false, f.clause, "dist/last layout not C_DL"};
    case SafeClause::kPeacefulBullets:
      return {false, f.clause, "non-peaceful live bullet at " + at};
    case SafeClause::kTokens:
      if (c[static_cast<std::size_t>(f.at)].last == 1)
        return {false, f.clause, "token hosted in the last segment at " + at};
      return {false, f.clause,
              std::string(f.black ? "black" : "white") +
                  " token invalid/incorrect at " + at};
    case SafeClause::kSegmentIds:
      return {false, f.clause, "segment IDs not consecutive at pair " + at};
    case SafeClause::kSafe:
      break;
  }
  return {true, SafeClause::kSafe, ""};
}

bool is_safe(Config c, const PlParams& p) {
  return first_failing_clause(c, p) == SafeClause::kSafe;
}

}  // namespace ppsim::pl
