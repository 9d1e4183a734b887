// Tiny, provably-understood protocols for exercising the checkers
// themselves. Shared by the model-checker tests, the quotient tests and the
// checker bench so every harness pins down the same definitions.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace ppsim::verification {

/// The equivariant leader-bit-vector spec (bit i = agent i's leader output)
/// shared by the quotient tests and the checker bench — one definition, so
/// the property the bench certifies is the property the tests pin against
/// the unreduced checker.
/// Equivariant: rotating a configuration rotates its output vector, the
/// premise of the quotient checker's edge-local constancy argument.
template <typename State>
struct LeaderBitsSpec {
  template <typename Params>
  std::uint32_t operator()(std::span<const State> c, const Params&) const {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
      bits |= static_cast<std::uint32_t>(c[i].leader) << i;
    return bits;
  }
};

/// SS-LE legality (symmetry invariant, as the quotient checker requires).
[[nodiscard]] inline bool exactly_one_leader(std::uint32_t bits) {
  return std::popcount(bits) == 1;
}

/// Toy protocol that provably self-stabilizes to "exactly one token":
/// adjacent tokens merge (the rightmost survives) and a lone token walks
/// right, so the chain is irreducible on the one-token level set and the
/// token count is the natural (rotation-invariant) spec output. Doubles as
/// both runner protocol and checker adapter; position independent, so the
/// quotient checker gets the full rotation group.
struct TokenMergeModel {
  struct State {
    int tok = 0;

    friend constexpr bool operator==(const State&, const State&) = default;
  };
  struct Params {
    int n = 0;
  };
  static constexpr bool directed = true;
  static std::size_t num_states(const Params&) { return 2; }
  static std::size_t pack(const State& s, const Params&, int /*agent*/) {
    return static_cast<std::size_t>(s.tok);
  }
  static State unpack(std::size_t v, const Params&, int /*agent*/) {
    return State{static_cast<int>(v)};
  }
  static void apply(State& l, State& r, const Params&) {
    if (l.tok == 1 && r.tok == 1) {
      r.tok = 0;  // merge rightward
    } else if (l.tok == 1 && r.tok == 0) {
      // A lone token walks: move right so the chain is irreducible.
      l.tok = 0;
      r.tok = 1;
    }
  }
  static std::string describe(const State& s, const Params&) {
    return s.tok == 1 ? "tok" : "_";
  }

  [[nodiscard]] static int count_tokens(std::span<const State> c) {
    int k = 0;
    for (const State& s : c) k += s.tok;
    return k;
  }
};

/// A deliberately broken variant whose zero-token configuration is absorbing
/// and illegal — every checker must find it (and the counterexample orbit is
/// the all-zero configuration, which is rotation invariant, so the quotient
/// and unreduced counterexamples coincide exactly).
struct BrokenMergeModel : TokenMergeModel {
  static void apply(State& l, State& r, const Params&) {
    if (l.tok == 1) {
      l.tok = 0;
      r.tok = 0;  // tokens leak away
    }
  }
};

}  // namespace ppsim::verification
