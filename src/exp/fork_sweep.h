// Fork-based sweep acceleration over a shared scenario prefix.
//
// Sweep variants that differ only in workload (report rate, queries per
// class, extra queries) share everything that happens before the setup
// slot ends: placement, neighbor-list construction, tree building, setup
// traffic, per-node stack allocation. run_fork_sweep advances one
// harness::Trial through that prefix to the snapshot barrier
// (snap::capture_barrier) and fork(2)s one child per variant; each child
// calls Trial::set_workload and Trial::finish, shipping its RunMetrics back
// over a pipe as a CRC-framed kMetrics snapshot, and _exits on every path.
//
// Equivalence is exact, not approximate: the workload is drawn lazily at
// the setup boundary from a private RNG stream, so a forked child is
// bit-identical to a from-scratch run of the same variant (the fork-sweep
// test diffs the RunMetrics encodings byte for byte). query_start_window
// is baked into the measurement schedule before the barrier and must be
// identical across variants; run_fork_sweep throws std::invalid_argument
// otherwise. When a child fails, no further child is forked, every running
// child is reaped, and std::runtime_error names the first failed variant.
//
// On non-POSIX builds the same API falls back to sequential from-scratch
// runs — identical results, none of the speedup.
#pragma once

#include <vector>

#include "src/harness/metrics.h"
#include "src/harness/scenario.h"

namespace essat::exp {

// True when fork(2) acceleration is compiled in (POSIX).
bool fork_sweep_available();

// Runs one variant of `base` per entry in `workloads`, returning metrics in
// variant order. At most `max_parallel` children run concurrently
// (0 = default_jobs(): ESSAT_JOBS or all cores). Each variant's
// query_start_window must equal the base's.
std::vector<harness::RunMetrics> run_fork_sweep(
    const harness::ScenarioConfig& base,
    const std::vector<harness::WorkloadSpec>& workloads, int max_parallel = 0);

}  // namespace essat::exp
