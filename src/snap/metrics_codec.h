// Binary codec for harness::RunMetrics.
//
// Used wherever the same bit-exact bytes are needed: the sweep checkpoint
// ledger (completed trials are replayed into the aggregator on resume),
// the restored-vs-straight-run conformance tests (two RunMetrics are equal
// iff their encodings are equal), and perfbench's metrics digest. The
// field lists in metrics_codec.cpp and energy/sleep_histogram.h fix the
// wire order (see field_codec.h).
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/metrics.h"
#include "src/snap/serializer.h"

namespace essat::snap {

void save_run_metrics(Serializer& out, const harness::RunMetrics& m);
harness::RunMetrics load_run_metrics(Deserializer& in);

std::vector<std::uint8_t> run_metrics_to_bytes(const harness::RunMetrics& m);
harness::RunMetrics run_metrics_from_bytes(const std::vector<std::uint8_t>& b);

}  // namespace essat::snap
