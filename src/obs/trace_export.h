// Trace exporters: Chrome/Perfetto trace_event JSON (loadable in
// ui.perfetto.dev / chrome://tracing, one track per node) and flat JSONL
// (one record per line, the format tools/trace_summary.py consumes).
#pragma once

#include <ostream>

#include "src/obs/tracer.h"

namespace essat::obs {

// Perfetto/Chrome trace_event JSON. Layout: pid 1, tid 1 is the run-global
// "sim" track (event-queue ops), tid node+2 is node <node>'s track. Radio
// state records become duration ("X") slices named after the state; all
// other records become instant ("i") events carrying their decoded payload
// in args. Timestamps are microseconds of simulation time.
void export_perfetto_json(const Tracer& tracer, std::ostream& out);

// One JSON object per record, in emission order:
//   {"t_ns":..,"type":"..","node":..,"arg16":..,"a":..,"b":..}
// plus decoded "reason" (kChanDrop) and "prov" where the type carries one.
void export_jsonl(const Tracer& tracer, std::ostream& out);

}  // namespace essat::obs
