// Independent references for the benchmark's output checks: direct
// fixpoints over the generator's own structures, sharing no code with the
// engine. Stakes are exact binary fractions (gen.h), so these agree with the
// chase exactly, not approximately.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gen.h"

namespace perfbench {

// Company control (σ1–σ3): for every entity x, the sorted entities x
// controls, Control(x, x) included when Company(x) holds. `extra` adds
// hypothetical stakes.
std::vector<std::vector<int>> ControlSets(const OwnershipKg& kg,
                                          const std::vector<Stake>& extra = {});

// Stress test (σ4–σ7): which institutions default, given the baseline
// shocks plus `extra` ones.
std::vector<bool> Defaults(const DebtKg& kg,
                           const std::vector<std::pair<int, int64_t>>& extra);

// Close links (κ1–κ3): the number of distinct IntOwn facts and the
// CloseLink pairs (sorted).
struct CloseLinkReference {
  int64_t int_own_facts = 0;
  std::vector<std::pair<int, int>> close_links;
};
CloseLinkReference CloseLinks(const OwnershipKg& kg);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
