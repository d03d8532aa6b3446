// Aggregation helpers over many radios' duty cycles.
#pragma once

#include <vector>

#include "src/energy/radio.h"
#include "src/util/stats.h"

namespace essat::energy {

// Mean duty cycle of the given radios (typically the routing-tree members;
// the paper averages over nodes participating in queries); 0 when empty.
double mean_duty_cycle(const std::vector<const Radio*>& radios);

// Mean duty cycle per group (e.g. per tree rank, Fig. 5). `group_of[i]` is
// the group index of radios[i]; result[g] is the mean of group g (0 when the
// group is empty).
std::vector<double> duty_cycle_by_group(const std::vector<const Radio*>& radios,
                                        const std::vector<int>& group_of,
                                        int num_groups);

}  // namespace essat::energy
