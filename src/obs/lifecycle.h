// The tx/rx-or-drop conservation checker over a trace stream, used as a
// test oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace_record.h"

namespace essat::obs {

struct ConservationReport {
  bool ok = true;
  std::uint64_t transmissions = 0;   // kChanTxBegin records checked
  std::uint64_t skipped_in_flight = 0;  // too close to the trace tail
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mismatched = 0;      // transmissions violating conservation
  std::string detail;                // first violation, for test output
};

// Verifies the channel conservation invariant: every transmission's
// in-range receiver count (kChanTxBegin arg16) equals its kChanDeliver +
// kChanDrop records. Transmissions that began within `grace` of the last
// record are skipped — their arrivals may legitimately lie beyond the end
// of the run/trace. The trace must retain the full window (no ring
// overwrite) for the check to be meaningful; callers assert
// tracer.overwritten() == 0 first.
ConservationReport check_conservation(
    const std::vector<TraceRecord>& records,
    util::Time grace = util::Time::from_milliseconds(10.0));

}  // namespace essat::obs
