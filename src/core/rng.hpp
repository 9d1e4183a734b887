// Deterministic, fast random number generation for the simulation hot loop.
//
// xoshiro256++ (Blackman & Vigna) seeded via SplitMix64. Chosen over
// std::mt19937_64 for speed (the uniformly random scheduler draws one bounded
// integer per interaction, billions per experiment) and for trivially
// reproducible cross-platform streams.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "core/wordlane.hpp"

// XoshiroLanes carries wide vector state; every member is force-inlined into
// the ISA-dispatched driver clones, so no vector-ABI symbol materializes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace ppsim::core {

/// SplitMix64: used to expand a single 64-bit seed into a full xoshiro state.
/// Also a perfectly fine standalone generator for non-hot-path needs.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0. Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift with rejection.
  /// Precondition: bound > 0.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    __extension__ using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Lemire rejection threshold for `bounded`/`bounded_with_threshold`:
  /// draws whose low product half falls below it must be rejected for
  /// exact uniformity.
  [[nodiscard]] static constexpr std::uint64_t rejection_threshold(
      std::uint64_t bound) noexcept {
    return (0 - bound) % bound;
  }

  /// `bounded(bound)` with the rejection threshold hoisted by the caller
  /// (amortized Lemire for hot loops with a fixed bound). Same stream and
  /// same values as `bounded(bound)`.
  std::uint64_t bounded_with_threshold(std::uint64_t bound,
                                       std::uint64_t threshold) noexcept {
    __extension__ using u128 = unsigned __int128;
    u128 m = static_cast<u128>((*this)()) * static_cast<u128>(bound);
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<u128>((*this)()) * static_cast<u128>(bound);
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Raw engine state, and its inverse — the columnar lane engine
  /// (XoshiroLanes) moves streams between scalar engines and SIMD columns
  /// through these without perturbing them.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  [[nodiscard]] static Xoshiro256pp from_state(
      const std::array<std::uint64_t, 4>& s) noexcept {
    Xoshiro256pp r;
    r.state_ = s;
    return r;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Lane-parallel xoshiro256++: kLanes *independent* streams advanced as SIMD
/// columns. Column j is bit-identical — value for value, and in stream
/// position — to the scalar Xoshiro256pp whose state was loaded into it, so
/// a driver can freely switch between per-ring scalar draws and one columnar
/// draw for the whole group without changing a single trajectory.
///
/// V is a 64-bit-element lane type from core/wordlane.hpp (WordVec for 4
/// streams / AVX2, WordVec8 for 8 streams / AVX-512). State is stored
/// column-major: s_[w][j] is word w of stream j, so one xoshiro step is four
/// vector ops wide and touches every stream at once.
template <typename V>
class XoshiroLanes {
 public:
  static constexpr int kLanes = kLanesOf<V>;
  static_assert(sizeof(typename lane_traits<V>::element) == 8,
                "XoshiroLanes columns are 64-bit streams");

  XoshiroLanes() noexcept : s_{} {}

  /// Column j adopts the stream of engines[j] (state copied, not aliased).
  void load(const Xoshiro256pp* engines) noexcept {
    for (int w = 0; w < 4; ++w)
      for (int j = 0; j < kLanes; ++j) s_[w][j] = engines[j].state()[w];
  }

  /// Write column j's stream position back into engines[j].
  void store(Xoshiro256pp* engines) const noexcept {
    for (int j = 0; j < kLanes; ++j) {
      std::array<std::uint64_t, 4> st;
      for (int w = 0; w < 4; ++w) st[w] = s_[w][j];
      engines[j] = Xoshiro256pp::from_state(st);
    }
  }

  /// One xoshiro256++ step in every column.
  [[gnu::always_inline]] V next() noexcept {
    const V result = vrotl(s_[0] + s_[3], 23) + s_[0];
    const V t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = vrotl(s_[3], 45);
    return result;
  }

  /// Lane-parallel `Xoshiro256pp::bounded_with_threshold`: one draw per
  /// column, all columns at once. The accept case — overwhelmingly likely
  /// for scheduler bounds (rejection probability < bound/2^64) — is pure
  /// vector dataflow; a rejected column redraws through its own scalar
  /// stream out of line, so per-column stream consumption stays exact.
  [[gnu::always_inline]] V bounded_with_threshold(
      std::uint64_t bound, std::uint64_t threshold) noexcept {
    const V x = next();
    V hi, lo;
    mulwide(x, bound, hi, lo);
    // Native < on unsigned-element vectors is an UNSIGNED elementwise
    // compare — exactly the Lemire rejection test.
    const V rejected = (V)(lo < vbroadcast<V>(threshold));
    if (__builtin_expect(anyset(rejected), 0)) {
      redraw_rejected(hi, rejected, bound, threshold);
    }
    return hi;
  }

 private:
  [[gnu::always_inline]] static V vrotl(V x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Full 128-bit product per column, split as hi/lo 64-bit halves. Vector
  /// ISAs have no 64x64->128 multiply, so build it from 32-bit partial
  /// products; when the bound fits 32 bits (every scheduler bound: arcs
  /// number at most 2^33 only past n = 2^32 agents) two multiplies suffice.
  [[gnu::always_inline]] static void mulwide(V x, std::uint64_t bound, V& hi,
                                             V& lo) noexcept {
    const V lo32 = vbroadcast<V>(0xFFFFFFFFULL);
    const V xl = x & lo32;
    const V xh = x >> 32;
    if (bound <= (1ULL << 32)) {
      const V b = vbroadcast<V>(bound);
      const V pl = xl * b;
      const V ph = xh * b;
      const V mid = ph + (pl >> 32);
      hi = mid >> 32;
      lo = (mid << 32) | (pl & lo32);
    } else {
      const V bl = vbroadcast<V>(bound & 0xFFFFFFFFULL);
      const V bh = vbroadcast<V>(bound >> 32);
      const V t = xl * bl;
      const V u = xh * bl + (t >> 32);
      const V v = xl * bh + (u & lo32);
      hi = xh * bh + (u >> 32) + (v >> 32);
      lo = (v << 32) | (t & lo32);
    }
  }

  [[gnu::always_inline]] static bool anyset(V m) noexcept {
    std::uint64_t acc = 0;
    for (int j = 0; j < kLanes; ++j) acc |= m[j];
    return acc != 0;
  }

  /// Cold path: a column's first draw fell below the Lemire threshold.
  /// Replay that column's remaining draws through a scalar engine — the
  /// exact loop `bounded_with_threshold` runs — and fold the result and the
  /// advanced stream position back into the column.
  [[gnu::cold, gnu::noinline]] void redraw_rejected(
      V& hi, V rejected, std::uint64_t bound,
      std::uint64_t threshold) noexcept {
    __extension__ using u128 = unsigned __int128;
    for (int j = 0; j < kLanes; ++j) {
      if (!rejected[j]) continue;
      std::array<std::uint64_t, 4> st;
      for (int w = 0; w < 4; ++w) st[w] = s_[w][j];
      Xoshiro256pp e = Xoshiro256pp::from_state(st);
      u128 m = static_cast<u128>(e()) * static_cast<u128>(bound);
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<u128>(e()) * static_cast<u128>(bound);
      }
      hi[j] = static_cast<std::uint64_t>(m >> 64);
      for (int w = 0; w < 4; ++w) s_[w][j] = e.state()[w];
    }
  }

  V s_[4];
};

/// Derive a fresh, decorrelated seed for trial #index of experiment `tag`.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag,
                                    std::uint64_t index) noexcept {
  SplitMix64 sm(base ^ (tag * 0xD1342543DE82EF95ULL) ^
                (index * 0x2545F4914F6CDD1DULL));
  SplitMix64 sm2(sm.next());
  return sm2.next();
}

}  // namespace ppsim::core

#pragma GCC diagnostic pop
