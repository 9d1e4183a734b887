// Lane abstraction for word-packed transition kernels (see
// pl/packed_protocol.hpp and the WordGroupDriver in core/word_driver.hpp).
//
// A branchless word kernel is pure dataflow over 64-bit words, so the same
// source can execute one interaction per call (lane type = uint64_t) or
// four or eight scheduler-independent interactions at once (lane types
// WordVec and WordVec8, GCC/Clang generic vectors of 4 and 8 x u64, run
// only inside the word driver's AVX2 and AVX-512 clones). Kernels are
// written against the tiny helper set below:
//
//   vbroadcast<V>(x)  splat a scalar into every lane
//   veq / vgt         lane-wise compare producing a FULL-WIDTH mask
//                     (all-ones / all-zero) per lane; vgt is SIGNED (the
//                     kernels' field values are < 2^63, and wrapped
//                     negatives must compare as negatives)
//   vsel(m, a, b)     per-lane a-if-mask-else-b as mask-and-xor dataflow —
//                     immune to the optimizer re-introducing branches
//   vmask(w, bit)     full-width mask from one bit of each lane
//
// Shift-by-scalar, +, -, &, |, ^, ~ come straight from the vector
// extension (and work identically on the uint64_t instantiation).
//
// A kernel reads its precomputed constants through a broadcast policy B,
// `B::template from<V>(field)`, chosen by its caller. SplatBroadcast below
// is vbroadcast and compiles anywhere; the word driver's ISA clones pass
// their own policy, which broadcasts each constant straight from memory
// (core/word_driver.hpp).
#pragma once

#include <cstdint>
#include <type_traits>

// The 32-byte vector type changes calling convention under AVX; every
// helper here is force-inlined, so the ABI of a standalone symbol never
// materializes — the warning is noise.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace ppsim::core {

typedef std::uint64_t WordVec __attribute__((vector_size(32)));
typedef std::int64_t WordVecS __attribute__((vector_size(32)));
typedef std::uint64_t WordVec8 __attribute__((vector_size(64)));
typedef std::int64_t WordVec8S __attribute__((vector_size(64)));

/// Element type and lane count of a lane type (scalar integrals count as one
/// lane of themselves).
template <typename V>
struct lane_traits {
  using element = std::decay_t<decltype(V{}[0])>;
  static constexpr int lanes = static_cast<int>(sizeof(V) / sizeof(element));
};
template <>
struct lane_traits<std::uint64_t> {
  using element = std::uint64_t;
  static constexpr int lanes = 1;
};

/// Lanes of a vector type (4 for WordVec / AVX2, 8 for WordVec8 / AVX-512).
template <typename V>
inline constexpr int kLanesOf = lane_traits<V>::lanes;

/// Lanes in the 4-wide grouped kernel dispatch (WordVec width).
inline constexpr int kWordLanes = 4;

template <typename V>
[[nodiscard, gnu::always_inline]] inline V vbroadcast(
    std::uint64_t x) noexcept {
  if constexpr (std::is_integral_v<V>) {
    return static_cast<V>(x);
  } else {
    using E = typename lane_traits<V>::element;
    V v{};
    return v + static_cast<E>(x);
  }
}

[[nodiscard, gnu::always_inline]] inline std::uint64_t veq(
    std::uint64_t a, std::uint64_t b) noexcept {
  return a == b ? ~std::uint64_t{0} : std::uint64_t{0};
}
[[nodiscard, gnu::always_inline]] inline std::uint64_t vgt(
    std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a) > static_cast<std::int64_t>(b)
             ? ~std::uint64_t{0}
             : std::uint64_t{0};
}
[[nodiscard, gnu::always_inline]] inline WordVec veq(WordVec a,
                                                     WordVec b) noexcept {
  return (WordVec)(a == b);
}
[[nodiscard, gnu::always_inline]] inline WordVec vgt(WordVec a,
                                                     WordVec b) noexcept {
  return (WordVec)((WordVecS)a > (WordVecS)b);
}
[[nodiscard, gnu::always_inline]] inline WordVec8 veq(WordVec8 a,
                                                      WordVec8 b) noexcept {
  return (WordVec8)(a == b);
}
[[nodiscard, gnu::always_inline]] inline WordVec8 vgt(WordVec8 a,
                                                      WordVec8 b) noexcept {
  return (WordVec8)((WordVec8S)a > (WordVec8S)b);
}
/// The broadcast policy that splats a constant's value: any lane type, any
/// ISA, the instruction left to the compiler.
struct SplatBroadcast {
  template <typename V>
  [[nodiscard, gnu::always_inline]] static inline V from(
      const std::uint64_t& field) noexcept {
    return vbroadcast<V>(field);
  }
};

template <typename V>
[[nodiscard, gnu::always_inline]] inline V vsel(V m, V a, V b) noexcept {
  return b ^ ((a ^ b) & m);
}

template <typename V>
[[nodiscard, gnu::always_inline]] inline V vmask(V w, unsigned bit) noexcept {
  return V{} - ((w >> bit) & vbroadcast<V>(1));
}

}  // namespace ppsim::core

#pragma GCC diagnostic pop
