// Two-hop coloring inputs for Section 5.
//
// Algorithm 6 declares color, c1, c2 as *input variables*: the orientation
// protocol consumes a proper two-hop coloring (u_i.color != u_{i+2}.color)
// plus each agent's knowledge of its two neighbors' colors. The paper obtains
// the coloring from the self-stabilizing protocol of [24]; per README.md,
// Fidelity note 6, our harness supplies it (a greedy proper coloring), and
// the "memorize the two most recently observed distinct colors" warm-up the
// paper sketches for c1/c2 is implemented inside the composed stack
// (oriented_stack.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ppsim::orient {

/// Greedy proper two-hop coloring of the ring: color(i) != color(i+2 mod n)
/// for every i, using at most 3 colors (2 when the parity classes are even
/// cycles). Requires n >= 3; xi >= 3 colors are always sufficient because a
/// ring's two-hop graph is a union of cycles.
[[nodiscard]] std::vector<std::uint8_t> two_hop_coloring(int n);

/// Verifies color(i) != color(i+2 mod n) for every i.
[[nodiscard]] bool is_proper_two_hop(std::span<const std::uint8_t> colors);

/// Number of colors used.
[[nodiscard]] int color_count(std::span<const std::uint8_t> colors);

}  // namespace ppsim::orient
