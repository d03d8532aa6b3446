// Binary encoder for harness::RunMetrics.
//
// Used wherever the same bit-exact bytes are needed: the
// restored-vs-straight-run conformance checks (two RunMetrics are equal iff
// their encodings are equal) and perfbench's metrics digest. The bytes are
// only compared, never decoded. The field lists in metrics_codec.cpp and
// energy/sleep_histogram.h fix the wire order (see field_codec.h).
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/metrics.h"
#include "src/snap/serializer.h"

namespace essat::snap {

void save_run_metrics(Serializer& out, const harness::RunMetrics& m);

std::vector<std::uint8_t> run_metrics_to_bytes(const harness::RunMetrics& m);

}  // namespace essat::snap
