#include "src/exp/aggregate.h"

#include <utility>

namespace essat::exp {

void Aggregator::add(harness::RunMetrics m) {
  for (const MetricColumn& c : kMetricColumns) (out_.*c.stat).add(c.of_run(m));
  if (m.duty_by_rank.size() > out_.duty_by_rank.size()) {
    out_.duty_by_rank.resize(m.duty_by_rank.size());
  }
  for (std::size_t r = 0; r < m.duty_by_rank.size(); ++r) {
    out_.duty_by_rank[r].add(m.duty_by_rank[r]);
  }
  out_.last_run = std::move(m);
}

}  // namespace essat::exp
