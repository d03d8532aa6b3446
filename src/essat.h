// Umbrella header: the full public API of the ESSAT library.
//
// Layering (bottom to top):
//   util    — time, RNG, statistics
//   obs     — tracing: ring tracer, conservation oracle, Perfetto/JSONL
//             exporters (the record layer sits below sim)
//   sim     — discrete-event kernel
//   net     — topology, packets, wireless channel
//   energy  — radio power-state machine and accounting
//   mac     — CSMA/CA medium access
//   routing — routing tree, parent policies, repair
//   query   — periodic-query service with in-network aggregation
//   core    — the paper's contribution: Safe Sleep + NTS/STS/DTS shapers
//   baselines — SYNC, PSM, SPAN comparison protocols
//   fault   — deterministic fault injection: node churn (declarative
//             FaultSpec, pre-drawn per-node schedules)
//   harness — scenario assembly, per-run and averaged metrics
//   exp     — parallel experiment-sweep engine (worker threads, parameter
//             grids, deterministic seeding, aggregation, JSON-lines sink)
#pragma once

#include "src/baselines/psm.h"
#include "src/baselines/psm_stack.h"
#include "src/baselines/span.h"
#include "src/baselines/span_stack.h"
#include "src/baselines/sync.h"
#include "src/baselines/sync_stack.h"
#include "src/core/dts.h"
#include "src/core/essat_stack.h"
#include "src/core/maintenance.h"
#include "src/core/nts.h"
#include "src/core/safe_sleep.h"
#include "src/core/sts.h"
#include "src/energy/duty_cycle.h"
#include "src/energy/radio.h"
#include "src/energy/sleep_histogram.h"
#include "src/exp/aggregate.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_engine.h"
#include "src/fault/fault_spec.h"
#include "src/harness/metrics.h"
#include "src/harness/power_manager.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"
#include "src/harness/table.h"
#include "src/mac/csma.h"
#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/net/packet.h"
#include "src/net/topology.h"
#include "src/obs/lifecycle.h"
#include "src/obs/trace_export.h"
#include "src/obs/tracer.h"
#include "src/query/query.h"
#include "src/query/query_agent.h"
#include "src/query/traffic_shaper.h"
#include "src/query/workload.h"
#include "src/routing/repair.h"
#include "src/routing/tree.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/time.h"
