// Word-packed P_PL state representation (pl/packed_state.hpp): layout
// derivation, the constexpr capacity probe, exhaustive per-field
// round-trip sweeps, domain clamping (the engines' acceptance test), and
// the scalar-vs-word kernel equivalence contract of
// pl/packed_protocol.hpp on boundary and randomized states.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "pl/adversary.hpp"
#include "pl/packed_protocol.hpp"
#include "pl/packed_state.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"

namespace ppsim::pl {
namespace {

PlParams params_for(int psi, int kappa_max) {
  PlParams p;
  p.n = 8;  // n does not enter the layout
  p.psi = psi;
  p.kappa_max = kappa_max;
  return p;
}

/// All boundary values of one integer field's domain [lo, hi].
std::vector<int> boundary(int lo, int hi) {
  std::vector<int> v{lo, lo + 1, (lo + hi) / 2, hi - 1, hi};
  std::vector<int> out;
  for (int x : v)
    if (x >= lo && x <= hi &&
        (out.empty() || out.back() != x))
      out.push_back(x);
  return out;
}

TEST(PackedLayout, DerivedWidthsMatchTheIssueArithmetic) {
  // width = 7 + 3*ceil(log2 2psi) + 4 + ceil(log2(psi+1))
  //           + 2*ceil(log2(kappa_max+1))
  const auto p = params_for(16, 512);  // n = 2^16 regime at c1 = 32
  const auto l = PackedLayout::make(p);
  EXPECT_EQ(l.dist_bits, 5u);   // 2psi = 32
  EXPECT_EQ(l.hits_bits, 5u);   // psi + 1 = 17
  EXPECT_EQ(l.clock_bits, 10u); // kappa_max + 1 = 513
  EXPECT_EQ(l.total_bits, 51u); // the <= 53-bit bound the issue quotes
  EXPECT_TRUE(l.fits());
  EXPECT_EQ(PackedLayout::width(16, 512), 51u);
}

TEST(PackedLayout, CapacityProbeRefusesOversizedParameters) {
  // Huge psi_slack / c1 regimes must report !fits() — the engines then
  // stay on the scalar path (pinned in word_kernel_test) instead of
  // truncating fields.
  EXPECT_TRUE(PackedLayout::make(params_for(2, 8)).fits());
  EXPECT_TRUE(PackedLayout::make(PlParams::make(1 << 16, 32)).fits());
  const auto big = params_for(1 << 13, 32 * (1 << 13));
  const auto l = PackedLayout::make(big);
  EXPECT_FALSE(l.fits());
  EXPECT_GT(l.total_bits, 64u);
  static_assert(PackedLayout::width(16, 512) <= 64);
  static_assert(PackedLayout::width(1 << 13, 32 << 13) > 64);
  // The boundary is monotone in both parameters.
  unsigned prev = 0;
  for (int psi = 2; psi <= 64; psi *= 2) {
    const unsigned w = PackedLayout::width(psi, 32 * psi);
    EXPECT_GE(w, prev);
    prev = w;
  }
}

TEST(PackedState, ExhaustivePerFieldRoundTrip) {
  // Satellite: full per-field domain at psi in {2, 5, 16}, boundary values
  // of dist/clock/signal_r/token pos crossed with each other.
  for (const int psi : {2, 5, 16}) {
    const int kmax = 32 * psi;
    const auto p = params_for(psi, kmax);
    const auto l = PackedLayout::make(p);
    ASSERT_TRUE(l.fits());

    // Sweep each field over its FULL domain with the others at defaults.
    const auto check = [&](const PlState& s) {
      ASSERT_TRUE(in_word_domain(s, l));
      const std::uint64_t w = pack_word(s, l);
      EXPECT_LT(w >> (l.total_bits - 1), 2u);  // no bits above the layout
      const PlState back = unpack_word(w, l);
      ASSERT_EQ(back, s) << "psi=" << psi;
    };
    PlState s;
    for (int v = 0; v <= 1; ++v) { s = {}; s.leader = v; check(s); }
    for (int v = 0; v <= 1; ++v) { s = {}; s.b = v; check(s); }
    for (int v = 0; v <= 1; ++v) { s = {}; s.last = v; check(s); }
    for (int v = 0; v <= 1; ++v) { s = {}; s.shield = v; check(s); }
    for (int v = 0; v <= 1; ++v) { s = {}; s.signal_b = v; check(s); }
    for (int v = 0; v <= 2; ++v) { s = {}; s.bullet = v; check(s); }
    for (int v = 0; v < 2 * psi; ++v) {
      s = {};
      s.dist = static_cast<std::uint16_t>(v);
      check(s);
    }
    for (int v = 0; v <= psi; ++v) {
      s = {};
      s.hits = static_cast<std::uint8_t>(v);
      check(s);
    }
    for (int v = 0; v <= kmax; ++v) {
      s = {};
      s.clock = static_cast<std::uint16_t>(v);
      check(s);
      s = {};
      s.signal_r = static_cast<std::uint16_t>(v);
      check(s);
    }
    // Full token domain (both colors), including bot tokens with stray
    // payload bits — they must survive a round trip verbatim.
    for (int pos = 1 - psi; pos <= psi; ++pos) {
      for (int val = 0; val <= 1; ++val) {
        for (int car = 0; car <= 1; ++car) {
          s = {};
          s.token_b = Token{static_cast<std::int8_t>(pos),
                            static_cast<std::uint8_t>(val),
                            static_cast<std::uint8_t>(car)};
          check(s);
          s = {};
          s.token_w = Token{static_cast<std::int8_t>(pos),
                            static_cast<std::uint8_t>(val),
                            static_cast<std::uint8_t>(car)};
          check(s);
        }
      }
    }
    // Boundary cross products of the wide fields.
    for (int dist : boundary(0, 2 * psi - 1)) {
      for (int clock : boundary(0, kmax)) {
        for (int sigr : boundary(0, kmax)) {
          for (int pos : {1 - psi, -1, 0, 1, psi}) {
            s = {};
            s.dist = static_cast<std::uint16_t>(dist);
            s.clock = static_cast<std::uint16_t>(clock);
            s.signal_r = static_cast<std::uint16_t>(sigr);
            s.hits = static_cast<std::uint8_t>(dist % (psi + 1));
            // Mirror the position into the white lane, reflected back into
            // the domain at the +psi edge (pos domain is [1-psi, psi]).
            const int wpos = pos == psi ? 1 - psi : -pos;
            s.token_b = Token{static_cast<std::int8_t>(pos), 1, 0};
            s.token_w = Token{static_cast<std::int8_t>(wpos), 0, 1};
            check(s);
          }
        }
      }
    }
  }
}

TEST(PackedState, OutOfDomainStatesNeverRoundTrip) {
  // pack_word clamps; the round-trip failure is exactly what drops an
  // engine to the scalar path, so it must fire for every out-of-domain
  // field (never truncate silently).
  const auto p = params_for(5, 160);
  const auto l = PackedLayout::make(p);
  const auto rejected = [&](const PlState& s) {
    EXPECT_FALSE(in_word_domain(s, l));
    return !(unpack_word(pack_word(s, l), l) == s);
  };
  PlState s;
  s = {}; s.dist = static_cast<std::uint16_t>(2 * p.psi); EXPECT_TRUE(rejected(s));
  s = {}; s.dist = 60000; EXPECT_TRUE(rejected(s));
  s = {}; s.hits = static_cast<std::uint8_t>(p.psi + 1); EXPECT_TRUE(rejected(s));
  s = {}; s.clock = static_cast<std::uint16_t>(p.kappa_max + 1); EXPECT_TRUE(rejected(s));
  s = {}; s.signal_r = static_cast<std::uint16_t>(p.kappa_max + 7); EXPECT_TRUE(rejected(s));
  s = {}; s.bullet = 3; EXPECT_TRUE(rejected(s));
  s = {}; s.leader = 2; EXPECT_TRUE(rejected(s));
  s = {}; s.token_b.pos = static_cast<std::int8_t>(p.psi + 1); EXPECT_TRUE(rejected(s));
  s = {}; s.token_w.pos = static_cast<std::int8_t>(-p.psi); EXPECT_TRUE(rejected(s));
  s = {}; s.token_b = Token{1, 2, 0}; EXPECT_TRUE(rejected(s));
  s = {}; s.token_w = Token{-1, 0, 9}; EXPECT_TRUE(rejected(s));
}

TEST(PackedState, WordLeaderMatchesIsLeader) {
  const auto p = params_for(5, 20);
  const auto l = PackedLayout::make(p);
  core::Xoshiro256pp rng(11);
  for (int t = 0; t < 1000; ++t) {
    const PlState s = random_state(p, rng);
    EXPECT_EQ(word_leader(pack_word(s, l), l),
              PlProtocol::is_leader(s, p));
  }
}

TEST(PackedKernel, MatchesScalarApplyOnBoundaryAndRandomStates) {
  // The equivalence contract on state pairs drawn from the declared
  // domain: unpack(apply_word(pack(l), pack(r))) == apply(l, r), field for
  // field. Randomized here; the engine-level lockstep lives in
  // tests/core/word_kernel_test.cpp and the differential fuzzer.
  for (const int psi : {2, 5, 16}) {
    for (const int c1 : {4, 32}) {
      const auto p = params_for(psi, c1 * psi);
      const auto lay = PackedLayout::make(p);
      ASSERT_TRUE(lay.fits());
      const auto kc = PlKernelConsts::make(lay);
      core::Xoshiro256pp rng(100 + psi + c1);
      for (int t = 0; t < 60000; ++t) {
        PlState l = random_state(p, rng);
        PlState r = random_state(p, rng);
        ASSERT_TRUE(in_word_domain(l, lay));
        ASSERT_TRUE(in_word_domain(r, lay));
        std::uint64_t wl = pack_word(l, lay);
        std::uint64_t wr = pack_word(r, lay);
        PlState sl = l;
        PlState sr = r;
        PlProtocol::apply(sl, sr, p);
        apply_word(wl, wr, lay);
        const PlState ul = unpack_word(wl, lay);
        const PlState ur = unpack_word(wr, lay);
        ASSERT_EQ(ul, sl) << "initiator diverged, psi=" << psi
                          << " t=" << t << "\n  in_l=" << PlProtocol::describe(l, p)
                          << "\n  in_r=" << PlProtocol::describe(r, p)
                          << "\n  scalar=" << PlProtocol::describe(sl, p)
                          << "\n  word  =" << PlProtocol::describe(ul, p);
        ASSERT_EQ(ur, sr) << "responder diverged, psi=" << psi << " t=" << t;
        // Domain closure: the kernel's outputs stay packable.
        ASSERT_TRUE(in_word_domain(sl, lay));
        ASSERT_TRUE(in_word_domain(sr, lay));
        // apply_word_one (the precomputed-constants entry) is the same
        // function.
        std::uint64_t wl2 = pack_word(l, lay);
        std::uint64_t wr2 = pack_word(r, lay);
        apply_word_one(wl2, wr2, kc);
        ASSERT_EQ(wl2, wl);
        ASSERT_EQ(wr2, wr);
      }
    }
  }
}

TEST(PackedKernel, VectorLanesMatchScalarKernel) {
  // apply_word_x4 / apply_word_x8 are the same dataflow at 4/8 lanes: each
  // lane must equal the scalar kernel on its pair.
  const auto p = PlParams::make(64, 4);
  const auto lay = PackedLayout::make(p);
  const auto kc = PlKernelConsts::make(lay);
  core::Xoshiro256pp rng(77);
  for (int t = 0; t < 4000; ++t) {
    std::uint64_t wl[8];
    std::uint64_t wr[8];
    core::WordVec8 vl8{};
    core::WordVec8 vr8{};
    core::WordVec vl4{};
    core::WordVec vr4{};
    for (int j = 0; j < 8; ++j) {
      wl[j] = pack_word(random_state(p, rng), lay);
      wr[j] = pack_word(random_state(p, rng), lay);
      vl8[j] = wl[j];
      vr8[j] = wr[j];
      if (j < 4) {
        vl4[j] = wl[j];
        vr4[j] = wr[j];
      }
    }
    apply_word_x8(vl8, vr8, kc);
    apply_word_x4(vl4, vr4, kc);
    for (int j = 0; j < 8; ++j) {
      std::uint64_t sl = wl[j];
      std::uint64_t sr = wr[j];
      apply_word_one(sl, sr, kc);
      ASSERT_EQ(vl8[j], sl) << "x8 lane " << j;
      ASSERT_EQ(vr8[j], sr) << "x8 lane " << j;
      if (j < 4) {
        ASSERT_EQ(vl4[j], sl) << "x4 lane " << j;
        ASSERT_EQ(vr4[j], sr) << "x4 lane " << j;
      }
    }
  }
}

}  // namespace
}  // namespace ppsim::pl
