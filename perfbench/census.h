// The arithmetic and output checks of perfbench, kept in a unit of their
// own so perfbench_selftest can pin them: quantiles with the tail-count
// rule, ratio metrics, failure accounting, the per-type census of a trace,
// and the one-line JSON result every benchmark program prints last.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/essat.h"

namespace essat::perfbench {

// q-quantile (q in [0, 1]) by linear interpolation between the closest
// ranks of the sorted samples. Throws std::invalid_argument when `values`
// is empty.
double quantile(std::vector<double> values, double q);

// Samples strictly greater than `threshold`.
std::size_t count_above(const std::vector<double>& values, double threshold);

// The highest reported percentile needs at least this many samples beyond it.
inline constexpr std::size_t kMinTail = 10;

// q-quantile that refuses (std::runtime_error) when fewer than kMinTail
// samples lie beyond it; `beyond` receives the count.
double tail_quantile(const std::vector<double>& values, double q,
                     std::size_t* beyond);

// num / den, or 0 when den is 0 (the layer did no work).
double ratio(double num, double den);

// Busy seconds summed over trials / (workers x wall seconds).
double parallel_efficiency(double busy_s, int workers, double wall_s);

// Output checks of one trial; each returns "" when the trial passes, else
// the reason it failed.
//   Every run: the trial measured at least one epoch and every reported
//   metric is finite.
std::string check_metrics(const harness::RunMetrics& m);
//   Traced run: its metrics encode to the same bytes as the untraced run
//   of the same trial (compared by metrics_digest), the ring overwrote
//   nothing, and (when checked) channel conservation held.
std::string check_traced(std::uint64_t traced_digest, std::uint64_t untraced_digest,
                         std::uint64_t overwritten,
                         const obs::ConservationReport* conservation);

// 64-bit FNV-1a of `bytes`, continuing from `h`.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// fnv1a of snap::run_metrics_to_bytes(m): two RunMetrics are equal iff
// their encodings are.
std::uint64_t metrics_digest(const harness::RunMetrics& m);

// Trials attempted and failed, with the first failure kept for the log.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  // Counts one trial; `failure` is a check result ("" = passed).
  void record(const std::string& failure);
  double failed_pct() const;
};

// Trace records counted by type, channel drops split by reason, the summed
// in-range receiver count of every transmission, and the latest record time.
struct TraceCensus {
  std::array<std::uint64_t, static_cast<std::size_t>(obs::TraceType::kCount)>
      by_type{};
  std::array<std::uint64_t, 8> drops_by_reason{};
  std::uint64_t fanout_sum = 0;
  std::int64_t last_ns = 0;

  void add(const std::vector<obs::TraceRecord>& records);
  void merge(const TraceCensus& other);
  std::uint64_t count(obs::TraceType t) const {
    return by_type[static_cast<std::size_t>(t)];
  }
  std::uint64_t drops(obs::DropReason r) const {
    return drops_by_reason[static_cast<std::size_t>(r)];
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The per-layer metrics a trace census yields (sim.pushes, net.*, mac.*,
// energy.*, core.sleeps / core.sleep_skips, query.* counts,
// routing.parent_changes).
std::vector<Metric> census_metrics(const TraceCensus& c);

// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
// A non-finite value cannot be written as JSON; it is printed as 0 and the
// result is marked incorrect.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace essat::perfbench
