#include "analysis/scenario.hpp"

namespace ppsim::analysis {
namespace detail {

RecoveryStats fold_recovery(const std::vector<RecoveryTrial>& trials) {
  RecoveryStats out;
  out.trials = static_cast<std::int64_t>(trials.size());
  std::vector<std::uint64_t> stab;
  for (const RecoveryTrial& t : trials) {
    if (!t.stabilized) {
      ++out.stabilization_failures;
      continue;
    }
    stab.push_back(t.stabilize_steps);
    if (!t.healed) {
      ++out.recovery_failures;
      continue;
    }
    out.raw.push_back(t.recovery_steps);
  }
  out.recovery = core::summarize_u64(out.raw);
  out.stabilization = core::summarize_u64(stab);
  return out;
}

}  // namespace detail

void write_recovery_summary(core::JsonWriter& w, const RecoveryStats& s) {
  w.field("stabilization_failures", s.stabilization_failures);
  w.field("recovery_failures", s.recovery_failures);
  w.field("median", s.recovery.median);
  w.field("mean", s.recovery.mean);
  w.field("p90", s.recovery.p90);
  w.field("max", s.recovery.max);
}

}  // namespace ppsim::analysis
