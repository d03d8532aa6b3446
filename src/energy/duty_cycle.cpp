#include "src/energy/duty_cycle.h"

#include <stdexcept>

namespace essat::energy {

double mean_duty_cycle(const std::vector<const Radio*>& radios) {
  util::RunningStat stat;
  for (const Radio* r : radios) stat.add(r->duty_cycle());
  return stat.mean();
}

std::vector<double> duty_cycle_by_group(const std::vector<const Radio*>& radios,
                                        const std::vector<int>& group_of,
                                        int num_groups) {
  if (radios.size() != group_of.size()) {
    throw std::invalid_argument{"duty_cycle_by_group: size mismatch"};
  }
  std::vector<util::RunningStat> stats(static_cast<std::size_t>(num_groups));
  for (std::size_t i = 0; i < radios.size(); ++i) {
    const int g = group_of[i];
    if (g < 0 || g >= num_groups) continue;
    stats[static_cast<std::size_t>(g)].add(radios[i]->duty_cycle());
  }
  std::vector<double> out;
  out.reserve(stats.size());
  for (const auto& s : stats) out.push_back(s.mean());
  return out;
}

}  // namespace essat::energy
