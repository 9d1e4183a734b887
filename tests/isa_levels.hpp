// Runs a parameterized test once per word-kernel ISA level (2 = AVX-512,
// 1 = AVX2, 0 = word lane off) through core::cap_isa_level, so both clones
// of the word driver's loops run under test on one machine, not only the
// one the CPU selects, and so does level 0, where a P_PL ensemble has no
// word lane and every ring runs the scalar loop. A level above the CPU's
// is skipped; each test restores the CPU's own level. An ensemble reads
// the level once, in its constructor, so SetUp sets the cap before the
// test builds any.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/word_driver.hpp"

namespace ppsim::testing_isa {

inline constexpr int kTopIsaLevel = 2;

class IsaLevelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (core::cap_isa_level(GetParam()) != GetParam())
      GTEST_SKIP() << "ISA level " << GetParam() << " is above this CPU's";
  }
  void TearDown() override { core::cap_isa_level(kTopIsaLevel); }
};

inline std::string isa_level_name(const ::testing::TestParamInfo<int>& info) {
  return info.param == 2 ? "avx512" : info.param == 1 ? "avx2" : "scalar";
}

}  // namespace ppsim::testing_isa

/// Instantiate `suite` (a subclass of IsaLevelTest) at every ISA level.
#define PPSIM_INSTANTIATE_ISA_LEVELS(suite)                                 \
  INSTANTIATE_TEST_SUITE_P(Isa, suite, ::testing::Values(2, 1, 0),          \
                           ::ppsim::testing_isa::isa_level_name)
