// Binary codec for harness::RunMetrics.
//
// Used in three places that all need the same bit-exact bytes: the fork
// sweep (children ship finished metrics to the parent over a pipe), the
// sweep checkpoint ledger (completed trials are replayed into the
// aggregator on resume), and the restored-vs-straight-run conformance
// tests (two RunMetrics are equal iff their encodings are equal). The
// field lists in metrics_codec.cpp fix the wire order (see field_codec.h).
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
