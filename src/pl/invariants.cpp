#include "pl/invariants.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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

// The S_PL clauses, each written once over a field reader F: SpanFields
// reads PlState members, WordFields extracts the same fields from the word
// lane's u64 mirror with PackedLayout's single-field reads, never decoding
// a whole PlState. A reader exposes size() and one accessor per field the
// clauses read. Ring walks step a wrapping index rather than calling
// ring_add (a 64-bit modulo) per agent.

struct SpanFields {
  Config c;

  [[nodiscard]] int size() const { return static_cast<int>(c.size()); }
  [[nodiscard]] const PlState& at(int i) const {
    return c[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int leader(int i) const { return at(i).leader; }
  [[nodiscard]] int b(int i) const { return at(i).b; }
  [[nodiscard]] int last(int i) const { return at(i).last; }
  [[nodiscard]] int shield(int i) const { return at(i).shield; }
  [[nodiscard]] int signal_b(int i) const { return at(i).signal_b; }
  [[nodiscard]] int bullet(int i) const { return at(i).bullet; }
  [[nodiscard]] int dist(int i) const { return at(i).dist; }
  [[nodiscard]] Token token(int i, bool black) const {
    return black ? at(i).token_b : at(i).token_w;
  }
  [[nodiscard]] bool has_token(int i) const {
    return at(i).token_b.exists() || at(i).token_w.exists();
  }
};

struct WordFields {
  const WordConfig& c;

  [[nodiscard]] std::uint64_t w(int i) const {
    return c.word(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int size() const { return static_cast<int>(c.size()); }
  [[nodiscard]] int leader(int i) const { return PackedLayout::leader(w(i)); }
  [[nodiscard]] int b(int i) const { return PackedLayout::b(w(i)); }
  [[nodiscard]] int last(int i) const { return PackedLayout::last(w(i)); }
  [[nodiscard]] int shield(int i) const { return PackedLayout::shield(w(i)); }
  [[nodiscard]] int signal_b(int i) const {
    return PackedLayout::signal_b(w(i));
  }
  [[nodiscard]] int bullet(int i) const { return PackedLayout::bullet(w(i)); }
  [[nodiscard]] int dist(int i) const { return c.layout().dist(w(i)); }
  [[nodiscard]] Token token(int i, bool black) const {
    return c.layout().token(w(i), black);
  }
  [[nodiscard]] bool has_token(int i) const {
    return c.layout().has_token(w(i));
  }
};

/// C_DL at agent `idx`: its dist and last are what the walk expects there.
/// For the agent i steps right of the leader that is dist == i mod 2psi,
/// and last == 1 iff i >= psi * (zeta - 1).
template <typename F>
bool cdl_at(const F& f, int idx, int dist, bool last) {
  return f.dist(idx) == dist && (f.last(idx) == 1) == last;
}

/// Peaceful live bullets along a forward walk. A leader opens a clean
/// stretch iff it is shielded and carries no bullet-absence signal; every
/// later agent keeps the stretch clean only if it carries none either. A
/// live bullet is peaceful iff the stretch is clean at it: its nearest left
/// leader opened the stretch, and nothing on the path from there to the
/// bullet signals absence. O(n) per walk instead of a left walk per bullet.
struct PeaceWalk {
  bool clean = false;  ///< before any leader: d_LL = infinity, not peaceful

  /// Steps onto agent `i`; returns whether a live bullet there is peaceful.
  template <typename F>
  bool step(const F& f, int i) {
    clean = f.signal_b(i) == 0 &&
            (f.leader(i) == 1 ? f.shield(i) == 1 : clean);
    return clean;
  }
};

/// The working-pair geometry of a valid token in the C_DL layout.
struct TokenGeometry {
  int pair_start = 0;  ///< absolute index of the border opening S_i
  int round = 0;       ///< x: the round the token is in
};

/// x for a valid token. Its target sits tau agents into the pair either
/// way: at psi + x moving right (tau in [psi, 2psi-1]), at x + 1 moving
/// left (tau in [1, psi-1]).
int token_round(int tau, int pos, const PlParams& p) {
  return pos > 0 ? tau - p.psi : tau - 1;
}

/// The geometry of a token at `host` (whose dist is `dist`) with general
/// ring arithmetic. False when the token is invalid, or its pair does not
/// sit at a segment boundary of its color with host and target inside it,
/// without wrapping past the leader.
bool resolve_geometry(int n, const PlParams& p, int host, int dist,
                      const Token& t, int d, int leader_pos,
                      TokenGeometry& g) {
  const int tau = detail::mod_2psi(dist + t.pos + d, p.two_psi());
  if (!detail::in_valid_band(tau, t.pos, p)) return false;
  g.round = token_round(tau, t.pos, p);
  const int target_abs = ring_add(host, t.pos, n);
  g.pair_start = ring_add(target_abs, -tau, n);

  const int rel_start = ring_distance(leader_pos, g.pair_start, n);
  if (rel_start % p.psi != 0) return false;
  if ((rel_start % p.two_psi()) != d) return false;
  const int host_off = ring_distance(leader_pos, host, n) - rel_start;
  if (host_off < 0 || host_off > p.two_psi() - 1) return false;
  const int tgt_off = ring_distance(leader_pos, target_abs, n) - rel_start;
  return tgt_off == tau;
}

/// resolve_geometry for a host `r` steps right of the leader in a ring
/// already known to follow C_DL, so dist == r mod 2psi. With pos in its
/// domain, tau needs one conditional wrap. When the target r + pos and the
/// pair start r + pos - tau both lie in [0, n) counted from the leader, the
/// pair start is congruent to r + pos - (r + pos + d) = -d = d mod 2psi
/// and the target sits tau into the pair by construction, so only the
/// host's offset is left to check, and no division is needed. A pair that
/// would wrap past the leader (tiny rings, the first pair) or an
/// out-of-domain pos takes the general arithmetic.
bool resolve_geometry_cdl(int n, const PlParams& p, int host, int r,
                          int dist, const Token& t, int d, int leader_pos,
                          TokenGeometry& g) {
  if (t.pos < 1 - p.psi || t.pos > p.psi)
    return resolve_geometry(n, p, host, dist, t, d, leader_pos, g);
  int tau = dist + t.pos + d;  // in [1 - psi, 4psi - 1]
  if (tau < 0) {
    tau += p.two_psi();
  } else if (tau >= p.two_psi()) {
    tau -= p.two_psi();
  }
  if (!detail::in_valid_band(tau, t.pos, p)) return false;
  const int target = r + t.pos;
  const int rel_start = target - tau;
  if (target >= n || rel_start < 0)
    return resolve_geometry(n, p, host, dist, t, d, leader_pos, g);
  g.round = token_round(tau, t.pos, p);
  const int host_off = r - rel_start;
  if (host_off < 0 || host_off > p.two_psi() - 1) return false;
  g.pair_start = leader_pos + rel_start;
  if (g.pair_start >= n) g.pair_start -= n;
  return true;
}

/// Token correctness (Def. 4.3) on a resolved geometry. During round x the
/// token carries the increment's result bit x and the carry *after*
/// consuming bit x:
///   value = b_x XOR carry_x,   carry-field = carry_{x+1},
/// with j the index of the first 0 bit of S_i (psi if all ones),
/// carry_x = [x <= j] and carry_{x+1} = [x < j]. (Def. 4.3 with the
/// carry-phase fix; forced by lines 13 and 27, see README.md, Fidelity
/// note 4.)
/// Bits b_0..b_x decide it: x <= j iff none of b_0..b_{x-1} is 0, and
/// x < j iff b_x is not 0 either.
template <typename F>
bool token_matches_pair(const F& f, const Token& t, const TokenGeometry& g) {
  const int n = f.size();
  int at = g.pair_start;
  int carry_x = 1;
  for (int q = 0; q < g.round; ++q) {
    if (f.b(at) == 0) carry_x = 0;
    if (++at == n) at = 0;
  }
  const int b_x = f.b(at);
  const int carry_next = carry_x == 1 && b_x != 0 ? 1 : 0;
  return static_cast<int>(t.carry) == carry_next &&
         static_cast<int>(t.value) == (b_x ^ carry_x);
}

/// The first failing clause plus where it failed: the leader count for
/// kLeaderCount, the agent index for kPeacefulBullets and kTokens, the
/// segment pair for kSegmentIds. check_safe turns it into a reason.
struct SafeFinding {
  SafeClause clause = SafeClause::kSafe;
  int at = 0;
  bool black = false;  ///< kTokens: the failing token's color
};

/// What find_failing_clause owes its caller (see the header comment).
enum class Order : std::uint8_t {
  kCost,   ///< membership: stop at the first failure met, cheapest pass first
  kProof,  ///< the first failing clause in proof order, and where it failed
};

/// S_PL in passes, cheapest first:
///   1. the leader count;
///   2. kCost only: the segment IDs S_0..S_{zeta-2}, each read at its C_DL
///      offset from the leader, pairs compared from the far end back;
///   3. one walk from the leader over C_DL and peaceful bullets (PeaceWalk);
///   4. the token clause, whose per-token geometry and bit reads make it
///      the most expensive;
///   5. kProof only: the segment IDs, pairs in index order.
/// kCost returns at the first failure. Reading the IDs before the walk has
/// checked C_DL cannot change its verdict: IDs read at the C_DL offsets
/// that are not consecutive put the ring outside S_PL whether C_DL holds
/// or not. The ripple-carry increments fix the IDs outward from the
/// leader, so on the way into S_PL the bad pair is usually the last one,
/// and the far-end-first pass exits after two IDs. kProof reports what
/// proof order would: a C_DL failure anywhere returns at once, the
/// smallest non-peaceful bullet index is held back until C_DL has passed,
/// pass 4 walks in index order, and pass 5 names the first bad pair.
template <Order O, typename F>
SafeFinding find_failing_clause(const F& f, const PlParams& p) {
  constexpr bool kProofOrder = O == Order::kProof;
  const int n = f.size();
  if (n != p.n)
    throw std::invalid_argument("S_PL: configuration size != PlParams::n");
  int leaders = 0;
  int k = 0;
  for (int i = 0; i < n; ++i) {
    if (f.leader(i) == 1) {
      ++leaders;
      k = i;
      if constexpr (!kProofOrder) {
        if (leaders > 1) break;  // kCost owes no exact count
      }
    }
  }
  if (leaders != 1) return {SafeClause::kLeaderCount, leaders};

  // Segment S_seg of C_DL holds the psi agents from seg * psi right of the
  // leader; pair i is (S_i, S_{i+1}), for i in [0, zeta-3].
  const int id_pairs = std::max(0, p.zeta() - 2);
  const auto id_mask = static_cast<unsigned long long>(p.id_modulus()) - 1;
  const auto segment_id = [&](int seg) {
    int at = k + seg * p.psi;  // < k + n: seg <= zeta - 2
    if (at >= n) at -= n;
    unsigned long long id = 0;
    for (int bit = 0; bit < p.psi; ++bit) {
      id |= static_cast<unsigned long long>(f.b(at)) << bit;
      if (++at == n) at = 0;
    }
    return id;
  };
  const auto ids_consecutive = [&](int pair) {
    return segment_id(pair + 1) == ((segment_id(pair) + 1) & id_mask);
  };
  if constexpr (!kProofOrder) {
    for (int pair = id_pairs - 1; pair >= 0; --pair)
      if (!ids_consecutive(pair)) return {SafeClause::kSegmentIds, pair};
  }

  const int last_from = p.psi * (p.zeta() - 1);
  PeaceWalk peace;
  int bullet_at = n;  // kProof: the smallest non-peaceful live bullet
  for (int i = 0, idx = k, dist = 0; i < n; ++i) {
    if (!cdl_at(f, idx, dist, i >= last_from))
      return {SafeClause::kCdlLayout, k};
    if (!peace.step(f, idx) && f.bullet(idx) == common::kLiveBullet) {
      if constexpr (!kProofOrder) return {SafeClause::kPeacefulBullets, idx};
      bullet_at = std::min(bullet_at, idx);
    }
    if (++idx == n) idx = 0;
    if (++dist == p.two_psi()) dist = 0;
  }
  if (bullet_at < n) return {SafeClause::kPeacefulBullets, bullet_at};

  // Every token is correct and outside the last segment. r is the host's
  // offset from the leader, which the C_DL geometry reads.
  const auto bad_token = [&](int host, int r, bool black) {
    const Token t = f.token(host, black);
    if (!t.exists()) return false;
    TokenGeometry g;
    return f.last(host) == 1 ||
           !resolve_geometry_cdl(n, p, host, r, f.dist(host), t,
                                 black ? 0 : p.psi, k, g) ||
           !token_matches_pair(f, t, g);
  };
  for (int host = 0, r = k == 0 ? 0 : n - k; host < n; ++host) {
    if (f.has_token(host)) {
      if (bad_token(host, r, true)) return {SafeClause::kTokens, host, true};
      if (bad_token(host, r, false)) return {SafeClause::kTokens, host, false};
    }
    if (++r == n) r = 0;
  }
  if constexpr (kProofOrder) {
    for (int pair = 0; pair < id_pairs; ++pair)
      if (!ids_consecutive(pair)) return {SafeClause::kSegmentIds, pair};
  }
  return {SafeClause::kSafe, 0};
}

}  // namespace

bool token_correct(Config c, const PlParams& p, int host, bool black,
                   int leader_pos) {
  const SpanFields f{c};
  const Token t = f.token(host, black);
  TokenGeometry g;
  return t.exists() &&
         resolve_geometry(f.size(), p, host, f.dist(host), t,
                          black ? 0 : p.psi, leader_pos, g) &&
         token_matches_pair(f, t, g);
}

bool live_bullet_peaceful(Config c, int i) {
  const SpanFields f{c};
  const int n = f.size();
  i = ring_add(i, 0, n);
  int from = i;  // the nearest leader at or left of u_i
  for (int seen = 1; f.leader(from) != 1; ++seen) {
    if (seen == n) return false;  // no leader: d_LL(i) = infinity
    from = from == 0 ? n - 1 : from - 1;
  }
  PeaceWalk peace;
  for (int at = from;; at = at + 1 == n ? 0 : at + 1) {
    const bool peaceful = peace.step(f, at);
    if (at == i) return peaceful;
  }
}

bool in_cpb(Config c) {
  const SpanFields f{c};
  const int n = f.size();
  int k = 0;
  while (k < n && f.leader(k) != 1) ++k;
  if (k == n) return false;
  PeaceWalk peace;
  for (int i = 0, at = k; i < n; ++i) {
    if (!peace.step(f, at) && f.bullet(at) == common::kLiveBullet)
      return false;
    if (++at == n) at = 0;
  }
  return true;
}

bool in_cdl_layout(Config c, const PlParams& p, int leader_pos) {
  const SpanFields f{c};
  const int n = f.size();
  const int last_from = p.psi * (p.zeta() - 1);
  for (int i = 0, idx = ring_add(leader_pos, 0, n), dist = 0; i < n; ++i) {
    if (!cdl_at(f, idx, dist, i >= last_from)) return false;
    if (++idx == n) idx = 0;
    if (++dist == p.two_psi()) dist = 0;
  }
  return true;
}

SafeClause first_failing_clause(Config c, const PlParams& p) {
  return find_failing_clause<Order::kProof>(SpanFields{c}, p).clause;
}

SafeClause first_failing_clause(const WordConfig& c, const PlParams& p) {
  return find_failing_clause<Order::kProof>(WordFields{c}, p).clause;
}

SafeClause membership_exit_clause(Config c, const PlParams& p) {
  return find_failing_clause<Order::kCost>(SpanFields{c}, p).clause;
}

SafeClause membership_exit_clause(const WordConfig& c, const PlParams& p) {
  return find_failing_clause<Order::kCost>(WordFields{c}, p).clause;
}

SafetyVerdict check_safe(Config c, const PlParams& p) {
  const SafeFinding f = find_failing_clause<Order::kProof>(SpanFields{c}, p);
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
  return membership_exit_clause(c, p) == SafeClause::kSafe;
}

bool is_safe(const WordConfig& c, const PlParams& p) {
  return membership_exit_clause(c, p) == SafeClause::kSafe;
}

}  // namespace ppsim::pl
