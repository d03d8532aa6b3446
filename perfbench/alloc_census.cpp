// Allocation census of a workload's first trial, for the per-layer run:
//   harness.alloc_bytes_per_node  allocation volume of one trial / nodes
//   harness.allocs_per_event      steady-state allocations per event, from
//                                 a T-versus-2T measurement window
//                                 difference (construction cancels out)
//
//   perfbench_alloc --workload NAME --seed N
//
// The counting operator new of bench/alloc_hook.h is linked into this
// program only, so no timed run pays for the counters. Prints the same
// JSON result line as perfbench; run.py merges the two.
#include <cstdio>
#include <exception>

#include "bench/alloc_hook.h"
#include "census.h"
#include "src/essat.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace essat;
  try {
    const perfbench::Options o = perfbench::parse_options(argc, argv);
    const harness::ScenarioConfig c =
        perfbench::expand_trials(perfbench::make_workload(o.workload, o.seed).spec)
            .front();
    perfbench::FailureTally tally;

    bench_alloc::AllocationCounter volume;
    tally.record(perfbench::check_metrics(harness::run_scenario(c)));
    const std::uint64_t trial_bytes = volume.bytes();

    harness::ScenarioConfig twice = c;
    twice.measure_duration = c.measure_duration * 2;
    const std::uint64_t a0 = bench_alloc::allocations();
    const harness::RunMetrics m1 = harness::run_scenario(c);
    const std::uint64_t a1 = bench_alloc::allocations();
    const harness::RunMetrics m2 = harness::run_scenario(twice);
    const std::uint64_t a2 = bench_alloc::allocations();
    tally.record(perfbench::check_metrics(m1));
    tally.record(perfbench::check_metrics(m2));
    const double steady_allocs = static_cast<double>(a2 - a1) - static_cast<double>(a1 - a0);
    const double steady_events =
        static_cast<double>(m2.sim_events) - static_cast<double>(m1.sim_events);

    std::printf("perfbench_alloc: workload=%s seed=%llu trial bytes=%llu\n",
                o.workload.c_str(), static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(trial_bytes));
    perfbench::print_result(
        tally.failed == 0, tally.attempted, tally.failed,
        {{"harness.alloc_bytes_per_node", "B",
          static_cast<double>(trial_bytes) / c.deployment.num_nodes},
         {"harness.allocs_per_event", "allocs/event",
          perfbench::ratio(steady_allocs, steady_events)}});
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_alloc: %s\n", e.what());
    return 2;
  }
}
