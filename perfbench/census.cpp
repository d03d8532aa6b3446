#include "census.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/snap/metrics_codec.h"

namespace essat::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument{"quantile of no samples"};
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

double tail_quantile(const std::vector<double>& values, double q,
                     std::size_t* beyond) {
  const double p = quantile(values, q);
  *beyond = count_above(values, p);
  if (*beyond < kMinTail) {
    throw std::runtime_error{
        "only " + std::to_string(*beyond) + " of " +
        std::to_string(values.size()) + " samples lie beyond the " +
        std::to_string(q) + " quantile; at least " + std::to_string(kMinTail) +
        " are needed"};
  }
  return p;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double parallel_efficiency(double busy_s, int workers, double wall_s) {
  return ratio(busy_s, static_cast<double>(workers) * wall_s);
}

std::string check_metrics(const harness::RunMetrics& m) {
  if (m.epochs_measured == 0) return "measured zero epochs";
  const std::pair<const char*, double> scalars[] = {
      {"avg_duty_cycle", m.avg_duty_cycle},
      {"avg_latency_s", m.avg_latency_s},
      {"p95_latency_s", m.p95_latency_s},
      {"max_latency_s", m.max_latency_s},
      {"delivery_ratio", m.delivery_ratio},
      {"frac_sleep_below_2_5ms", m.frac_sleep_below_2_5ms},
      {"phase_update_bits_per_report", m.phase_update_bits_per_report},
      {"downtime_s", m.downtime_s},
      {"delivery_during_fault", m.delivery_during_fault},
  };
  for (const auto& [name, v] : scalars) {
    if (!std::isfinite(v)) return std::string{"non-finite "} + name;
  }
  for (double v : m.duty_by_rank) {
    if (!std::isfinite(v)) return "non-finite duty_by_rank";
  }
  for (const auto& d : m.per_node) {
    if (!std::isfinite(d.duty_cycle)) return "non-finite per-node duty_cycle";
  }
  return "";
}

std::string check_traced(std::uint64_t traced_digest, std::uint64_t untraced_digest,
                         std::uint64_t overwritten,
                         const obs::ConservationReport* conservation) {
  if (traced_digest != untraced_digest) {
    return "traced metrics differ from the untraced run";
  }
  if (overwritten > 0) {
    return "trace ring overwrote " + std::to_string(overwritten) + " records";
  }
  if (conservation != nullptr && !conservation->ok) {
    return "conservation: " + conservation->detail;
  }
  return "";
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes, std::uint64_t h) {
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

std::uint64_t metrics_digest(const harness::RunMetrics& m) {
  return fnv1a(snap::run_metrics_to_bytes(m));
}

void FailureTally::record(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (first_failure.empty()) first_failure = failure;
}

double FailureTally::failed_pct() const {
  return 100.0 * ratio(static_cast<double>(failed), static_cast<double>(attempted));
}

void TraceCensus::add(const std::vector<obs::TraceRecord>& records) {
  for (const obs::TraceRecord& r : records) {
    if (r.type < by_type.size()) ++by_type[r.type];
    last_ns = std::max(last_ns, r.t_ns);
    switch (r.trace_type()) {
      case obs::TraceType::kChanTxBegin:
        fanout_sum += r.arg16;
        break;
      case obs::TraceType::kChanDrop: {
        const auto reason = static_cast<std::size_t>(r.drop_reason());
        if (reason < drops_by_reason.size()) ++drops_by_reason[reason];
        break;
      }
      default:
        break;
    }
  }
}

void TraceCensus::merge(const TraceCensus& other) {
  for (std::size_t i = 0; i < by_type.size(); ++i) by_type[i] += other.by_type[i];
  for (std::size_t i = 0; i < drops_by_reason.size(); ++i) {
    drops_by_reason[i] += other.drops_by_reason[i];
  }
  fanout_sum += other.fanout_sum;
  last_ns = std::max(last_ns, other.last_ns);
}

std::vector<Metric> census_metrics(const TraceCensus& c) {
  using obs::DropReason;
  using obs::TraceType;
  const auto n = [&c](TraceType t) { return static_cast<double>(c.count(t)); };
  const auto d = [&c](DropReason r) { return static_cast<double>(c.drops(r)); };
  const double delivered = n(TraceType::kChanDeliver);
  const double dropped = n(TraceType::kChanDrop);
  const double collision = d(DropReason::kCollision) + d(DropReason::kCaptured);
  const double other = dropped - d(DropReason::kRadioOff) - collision -
                       d(DropReason::kBusy) - d(DropReason::kModel);
  return {
      {"sim.pushes", "count", n(TraceType::kEvPush)},
      {"sim.cancel_ratio", "ratio",
       ratio(n(TraceType::kEvCancel) + n(TraceType::kEvRearm), n(TraceType::kEvPush))},
      {"net.frames", "count", n(TraceType::kChanTxBegin)},
      {"net.fanout", "receivers",
       ratio(static_cast<double>(c.fanout_sum), n(TraceType::kChanTxBegin))},
      {"net.delivered", "count", delivered},
      {"net.drop_radio_off", "count", d(DropReason::kRadioOff)},
      {"net.drop_collision", "count", collision},
      {"net.drop_busy", "count", d(DropReason::kBusy)},
      {"net.drop_model", "count", d(DropReason::kModel)},
      {"net.drop_other", "count", other},
      {"net.useful_ratio", "ratio", ratio(delivered, delivered + dropped)},
      {"mac.enqueued", "count", n(TraceType::kMacEnqueue)},
      {"mac.tx_attempts", "count", n(TraceType::kMacTxAttempt)},
      {"mac.retries", "count", n(TraceType::kMacRetry)},
      {"mac.cca_defers", "count", n(TraceType::kMacCcaDefer)},
      {"mac.backoffs", "count", n(TraceType::kMacBackoffStart)},
      {"mac.send_fails", "count", n(TraceType::kMacSendFail)},
      {"mac.success_ratio", "ratio",
       ratio(n(TraceType::kMacSendOk), n(TraceType::kMacEnqueue))},
      {"energy.transitions", "count", n(TraceType::kRadioState)},
      {"core.sleeps", "count", n(TraceType::kSleepStart)},
      {"core.sleep_skips", "count", n(TraceType::kSleepSkip)},
      {"query.epochs", "count", n(TraceType::kEpochStart)},
      {"query.reports", "count", n(TraceType::kReportSubmit)},
      {"query.folds", "count", n(TraceType::kReportFold)},
      {"query.root_deliveries", "count", n(TraceType::kRootDeliver)},
      {"routing.parent_changes", "count", n(TraceType::kParentChange)},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      v = 0.0;
      correct = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  std::fflush(stdout);
}

}  // namespace essat::perfbench
