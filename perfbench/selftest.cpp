// Checks of the benchmark's own arithmetic (census.h): quantiles and the
// tail-count rule, the ratio metrics, and failure accounting. run.py runs
// this before every benchmark run and stops on a failure.
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "census.h"

namespace {

using namespace essat;
using namespace essat::perfbench;

int g_failures = 0;
int g_checks = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    ++g_checks;                                                        \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "selftest: %s:%d: CHECK(%s) failed\n",      \
                   __FILE__, __LINE__, #cond);                         \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error{"no metric " + name};
}

void test_quantiles() {
  CHECK(near(quantile({3, 1, 2}, 0.5), 2));
  CHECK(near(quantile({4, 1, 3, 2}, 0.5), 2.5));
  CHECK(near(quantile({5}, 0.9), 5));
  CHECK(near(quantile({0, 10}, 0.9), 9));
  bool threw = false;
  try {
    quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  // 1..100: p90 lies between the 90th and 91st samples; ten lie beyond.
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::size_t beyond = 0;
  CHECK(near(tail_quantile(v, 0.9, &beyond), 90.1));
  CHECK(beyond == 10);
  CHECK(count_above(v, 90.1) == 10);

  // 1..90: only nine lie beyond p90, so it is refused.
  v.resize(90);
  bool refused = false;
  try {
    tail_quantile(v, 0.9, &beyond);
  } catch (const std::runtime_error&) {
    refused = true;
  }
  CHECK(refused);
  CHECK(beyond == 9);
}

obs::TraceRecord record(obs::TraceType type, std::uint16_t arg16 = 0) {
  return obs::TraceRecord::make(type, util::Time::zero(), 0, arg16, 0, 0);
}

void test_ratios() {
  CHECK(near(ratio(1, 4), 0.25));
  CHECK(ratio(5, 0) == 0);
  CHECK(near(parallel_efficiency(6.0, 4, 2.0), 0.75));
  CHECK(parallel_efficiency(1.0, 4, 0.0) == 0);

  using obs::DropReason;
  using obs::TraceType;
  const auto drop = [](DropReason r) {
    return record(TraceType::kChanDrop,
                  static_cast<std::uint16_t>(static_cast<unsigned>(r) << 8));
  };
  std::vector<obs::TraceRecord> records{
      record(TraceType::kChanTxBegin, 3), record(TraceType::kChanTxBegin, 1),
      record(TraceType::kChanDeliver),    record(TraceType::kChanDeliver),
      drop(DropReason::kRadioOff),        drop(DropReason::kCaptured),
      drop(DropReason::kSelfTx),          record(TraceType::kMacEnqueue),
      record(TraceType::kMacEnqueue),     record(TraceType::kMacSendOk),
  };
  for (int i = 0; i < 4; ++i) records.push_back(record(TraceType::kEvPush));
  records.push_back(record(TraceType::kEvCancel));
  records.push_back(record(TraceType::kEvRearm));

  TraceCensus census;
  census.add(records);
  std::vector<Metric> m = census_metrics(census);
  CHECK(metric(m, "net.frames") == 2);
  CHECK(near(metric(m, "net.fanout"), 2.0));
  CHECK(metric(m, "net.delivered") == 2);
  CHECK(metric(m, "net.drop_radio_off") == 1);
  CHECK(metric(m, "net.drop_collision") == 1);  // captured counts as collision
  CHECK(metric(m, "net.drop_other") == 1);
  CHECK(near(metric(m, "net.useful_ratio"), 0.4));
  CHECK(near(metric(m, "mac.success_ratio"), 0.5));
  CHECK(metric(m, "sim.pushes") == 4);
  CHECK(near(metric(m, "sim.cancel_ratio"), 0.5));

  // Merging doubles every count and keeps every ratio.
  TraceCensus twice = census;
  twice.merge(census);
  m = census_metrics(twice);
  CHECK(metric(m, "net.frames") == 4);
  CHECK(near(metric(m, "net.fanout"), 2.0));
  CHECK(near(metric(m, "net.useful_ratio"), 0.4));

  // The latest record time survives a merge.
  TraceCensus late;
  late.add({obs::TraceRecord::make(obs::TraceType::kEvPush, util::Time::seconds(5), 0, 0, 0, 0)});
  twice.merge(late);
  twice.merge(census);
  CHECK(twice.last_ns == util::Time::seconds(5).ns());

  // A layer that did no work reads zero, not NaN.
  m = census_metrics(TraceCensus{});
  CHECK(metric(m, "net.useful_ratio") == 0);
  CHECK(metric(m, "mac.success_ratio") == 0);
}

void test_failure_accounting() {
  harness::RunMetrics good;
  good.epochs_measured = 12;
  good.avg_duty_cycle = 0.08;
  good.avg_latency_s = 0.2;
  good.delivery_ratio = 1.0;
  good.duty_by_rank = {0.05, 0.1};
  good.per_node.resize(2);
  CHECK(check_metrics(good).empty());

  harness::RunMetrics nan_latency = good;
  nan_latency.avg_latency_s = std::numeric_limits<double>::quiet_NaN();
  harness::RunMetrics no_epochs = good;
  no_epochs.epochs_measured = 0;
  harness::RunMetrics inf_node = good;
  inf_node.per_node[1].duty_cycle = std::numeric_limits<double>::infinity();
  CHECK(!check_metrics(nan_latency).empty());
  CHECK(!check_metrics(no_epochs).empty());
  CHECK(!check_metrics(inf_node).empty());

  FailureTally tally;
  tally.record(check_metrics(good));
  tally.record(check_metrics(nan_latency));
  tally.record(check_metrics(good));
  tally.record(check_metrics(no_epochs));
  CHECK(tally.attempted == 4);
  CHECK(tally.failed == 2);
  CHECK(near(tally.failed_pct(), 50.0));
  CHECK(!tally.first_failure.empty());

  // Traced runs: a tampered RunMetrics no longer matches its untraced run.
  const std::uint64_t untraced = metrics_digest(good);
  harness::RunMetrics tampered = good;
  tampered.avg_duty_cycle += 1e-12;
  CHECK(metrics_digest(good) == untraced);
  CHECK(check_traced(untraced, untraced, 0, nullptr).empty());
  CHECK(!check_traced(metrics_digest(tampered), untraced, 0, nullptr).empty());
  CHECK(!check_traced(untraced, untraced, 1, nullptr).empty());
  obs::ConservationReport broken;
  broken.ok = false;
  broken.detail = "tx 7: 3 receivers, 2 outcomes";
  CHECK(!check_traced(untraced, untraced, 0, &broken).empty());
  obs::ConservationReport fine;
  CHECK(check_traced(untraced, untraced, 0, &fine).empty());
}

}  // namespace

int main() {
  test_quantiles();
  test_ratios();
  test_failure_accounting();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d of %d checks failed\n", g_failures, g_checks);
    return 1;
  }
  std::fprintf(stderr, "selftest: %d checks passed\n", g_checks);
  return 0;
}
