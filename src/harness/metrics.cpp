#include "src/harness/metrics.h"

#include <algorithm>

#include "src/snap/serializer.h"
#include "src/util/stats.h"

namespace essat::harness {

void LatencyCollector::on_root_arrival(const query::Query& q, std::int64_t epoch,
                                       util::Time arrival, int contributions) {
  auto [it, inserted] = epochs_.try_emplace({q.id, epoch});
  auto& rec = it->second;
  if (inserted) {
    rec.epoch_start = q.epoch_start(epoch);
    rec.last_arrival = arrival;
  } else {
    rec.last_arrival = std::max(rec.last_arrival, arrival);
  }
  rec.contributions += contributions;
}

LatencyCollector::Summary LatencyCollector::summarize(
    util::Time begin, util::Time end, util::Time grace,
    int expected_contributions) const {
  return summarize(begin, end, grace, expected_contributions, nullptr);
}

LatencyCollector::Summary LatencyCollector::summarize(
    util::Time begin, util::Time end, util::Time grace,
    int expected_contributions,
    const std::function<bool(util::Time)>& epoch_filter) const {
  Summary out;
  util::RunningStat latency;
  util::RunningStat delivery;
  std::vector<double> latencies;
  const util::Time cutoff = end - grace;
  for (const auto& [key, rec] : epochs_) {
    if (rec.epoch_start < begin || rec.epoch_start >= cutoff) continue;
    if (epoch_filter && !epoch_filter(rec.epoch_start)) continue;
    const double l = (rec.last_arrival - rec.epoch_start).to_seconds();
    latency.add(l);
    latencies.push_back(l);
    if (expected_contributions > 0) {
      delivery.add(std::min(1.0, static_cast<double>(rec.contributions) /
                                     static_cast<double>(expected_contributions)));
    }
  }
  out.avg_s = latency.mean();
  out.max_s = latency.max();
  out.p95_s = util::percentile(latencies, 95.0);
  out.delivery_ratio = delivery.mean();
  out.epochs = latency.count();
  return out;
}

void LatencyCollector::save_state(snap::Serializer& out) const {
  out.u64(epochs_.size());
  for (const auto& [key, rec] : epochs_) {
    out.i32(key.first);
    out.i64(key.second);
    out.time(rec.epoch_start);
    out.time(rec.last_arrival);
    out.i32(rec.contributions);
  }
}

}  // namespace essat::harness
