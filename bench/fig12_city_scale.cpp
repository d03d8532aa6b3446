// City-scale single-trial scaling — the acceptance bench for the sparse
// per-node state refactor (PR 7).
//
// Runs one DTS-SS trial at n = 10k / 100k / 1M nodes at *constant density*
// (the 500 m / 80-node paper density, side scaled by sqrt(n/80)), and
// reports for each size:
//   * events_per_sec   — end-to-end throughput of the trial
//   * sim_events       — total events (the active query region is the
//                        paper's 300 m tree cap, so load grows with the
//                        neighborhood-local traffic, not with n — idle
//                        city nodes must cost nothing in the event loop)
//   * bytes_per_node   — allocation volume of the trial / n
//   * marginal_bytes_per_node — differenced against an n/2 trial, so the
//                        fixed harness overhead cancels and what remains
//                        is what one more node costs: nearly all nodes
//                        lie outside the tree, so that is the topology,
//                        tree and channel slots of a node with no stack
//   * peak_rss_mib     — process high-water mark after the size's trials
//
// The hard budget: marginal_bytes_per_node <= 320 B at every measured
// size. A node outside the routing tree has no radio, MAC, agent or
// neighbor list, only its position, cell-index, list, tree and channel
// slots, so it costs about 0.2 KB. Neighbor lists built up front (about
// 0.2 KB more) would blow the budget, as would a radio and MAC per node
// (about 1.3 KB), an eagerly seeded 2.5 KB RNG engine, O(n) dup tables,
// O(n^2)-total link-stat rows or 96 B of std::function per attachment.
// The bench exits non-zero on violation, so CI smoke (capped to n=10k via
// ESSAT_BENCH_MAX_N) gates the same contract the full run does.
//
// Knobs: ESSAT_BENCH_MAX_N (largest size to run, default 1M),
// ESSAT_BENCH_MEASURE_S (measurement window, default 5),
// ESSAT_BENCH_JSON or argv[1] (output path, default fig12_city_scale.json).
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_common.h"
#include "src/essat.h"

namespace {

using namespace essat;

constexpr double kBudgetBytesPerNode = 320.0;

harness::ScenarioConfig city_config(int num_nodes, util::Time measure) {
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = num_nodes;
  // Constant density: the paper's 80 nodes per 500 m square.
  c.deployment.area_m = 500.0 * std::sqrt(num_nodes / 80.0);
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;  // paper cap: the active region
  c.workload.base_rate_hz = 1.0;
  c.measure_duration = measure;
  c.seed = 1;
  return c;
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

struct SizeResult {
  int n = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double bytes_per_node = 0;
  double marginal_bytes_per_node = 0;
  std::uint64_t peak_rss = 0;
};

SizeResult run_size(int n, util::Time measure) {
  SizeResult r;
  r.n = n;
  // Memory probes first (short window — footprint is set by construction,
  // not by how long the trial runs).
  const util::Time probe_window = util::Time::seconds(1);
  bench_alloc::AllocationCounter half_counter;
  (void)harness::run_scenario(city_config(n / 2, probe_window));
  const std::uint64_t bytes_half = half_counter.bytes();
  bench_alloc::AllocationCounter full_counter;
  (void)harness::run_scenario(city_config(n, probe_window));
  const std::uint64_t bytes_full = full_counter.bytes();
  r.bytes_per_node = static_cast<double>(bytes_full) / n;
  r.marginal_bytes_per_node =
      static_cast<double>(bytes_full - bytes_half) / (n - n / 2);

  // Throughput: one full trial.
  const auto t0 = std::chrono::steady_clock::now();
  const auto m = harness::run_scenario(city_config(n, measure));
  r.wall_s = wall_seconds_since(t0);
  r.sim_events = m.sim_events;
  r.events_per_sec = static_cast<double>(m.sim_events) / r.wall_s;
  r.peak_rss = peak_rss_bytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Time measure = bench::measure_duration_or(util::Time::seconds(5));
  long max_n = 1'000'000;
  if (const char* env = std::getenv("ESSAT_BENCH_MAX_N")) {
    const long v = std::atol(env);
    if (v > 0) max_n = v;
  }
  const char* out_path = argc > 1 ? argv[1] : nullptr;
  if (out_path == nullptr) out_path = std::getenv("ESSAT_BENCH_JSON");
  if (out_path == nullptr) out_path = "fig12_city_scale.json";

  std::printf(
      "fig12_city_scale: DTS-SS, constant paper density, %gs window, "
      "sizes up to %ld\n",
      measure.to_seconds(), max_n);

  std::vector<SizeResult> results;
  for (int n : {10'000, 100'000, 1'000'000}) {
    if (n > max_n) break;
    std::printf("--- n=%d (side %.0f m) ---\n", n,
                500.0 * std::sqrt(n / 80.0));
    std::fflush(stdout);
    const SizeResult r = run_size(n, measure);
    std::printf(
        "n=%-8d events=%llu wall=%.2fs events/sec=%.0f "
        "bytes/node=%.0f marginal=%.0f peak_rss=%.1f MiB\n",
        r.n, static_cast<unsigned long long>(r.sim_events), r.wall_s,
        r.events_per_sec, r.bytes_per_node, r.marginal_bytes_per_node,
        static_cast<double>(r.peak_rss) / (1024.0 * 1024.0));
    std::fflush(stdout);
    results.push_back(r);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig12_city_scale: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig12_city_scale\",\n"
               "  \"measure_s\": %g,\n"
               "  \"budget_bytes_per_node\": %.0f,\n"
               "  \"sizes\": [\n",
               measure.to_seconds(), kBudgetBytesPerNode);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"events\": %llu, \"wall_seconds\": %.4f, "
                 "\"events_per_sec\": %.0f, \"bytes_per_node\": %.0f, "
                 "\"marginal_bytes_per_node\": %.0f, \"peak_rss_bytes\": "
                 "%llu}%s\n",
                 r.n, static_cast<unsigned long long>(r.sim_events), r.wall_s,
                 r.events_per_sec, r.bytes_per_node, r.marginal_bytes_per_node,
                 static_cast<unsigned long long>(r.peak_rss),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("-> %s\n", out_path);

  bool ok = true;
  for (const SizeResult& r : results) {
    if (r.marginal_bytes_per_node > kBudgetBytesPerNode) {
      std::fprintf(stderr,
                   "fig12_city_scale: BUDGET EXCEEDED at n=%d: "
                   "%.0f bytes/node > %.0f\n",
                   r.n, r.marginal_bytes_per_node, kBudgetBytesPerNode);
      ok = false;
    }
  }
  return ok ? 0 : 2;
}
