// replay — time-travel debugging for trial snapshots.
//
// Loads a kTrial snapshot (written by snap::write_snapshot_file, e.g. from
// capture_trial) and either inspects it or resumes it:
//
//   replay SNAPSHOT                  resume to completion, print a metrics
//                                    summary (restore attests the replayed
//                                    state byte-for-byte at the barrier)
//   replay --dump SNAPSHOT           print the container header, the decoded
//                                    scenario config, and every component
//                                    state section with its size
//   replay --trace OUT.json SNAPSHOT resume with tracing enabled and a
//                                    Perfetto export at OUT.json — rerun any
//                                    captured trial under the microscope;
//                                    like every resume it re-simulates
//                                    from t = 0, so the export covers the
//                                    whole run
//   replay --verify SNAPSHOT         resume AND run the scenario straight
//                                    from its config; exit nonzero unless
//                                    the two RunMetrics are bit-identical
#include <cstdio>
#include <cstring>
#include <map>
#include <exception>
#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/serializer.h"
#include "src/snap/snapshot.h"
#include "src/snap/snapshot_io.h"
#include "src/snap/trial.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dump | --trace OUT.json | --verify] SNAPSHOT\n",
               argv0);
  return 2;
}

void print_metrics(const essat::harness::RunMetrics& m) {
  std::printf("avg duty cycle       %.6f\n", m.avg_duty_cycle);
  std::printf("avg latency (s)      %.6f\n", m.avg_latency_s);
  std::printf("p95 latency (s)      %.6f\n", m.p95_latency_s);
  std::printf("delivery ratio       %.6f\n", m.delivery_ratio);
  std::printf("epochs measured      %llu\n",
              static_cast<unsigned long long>(m.epochs_measured));
  std::printf("phase bits/report    %.6f\n", m.phase_update_bits_per_report);
}

int dump(const essat::snap::Snapshot& snapshot) {
  namespace snap = essat::snap;
  std::printf("kind                 %s\n", snap::snapshot_kind_name(snapshot.kind));
  std::printf("format version       %u\n", snapshot.version);
  std::printf("payload bytes        %zu\n", snapshot.payload.size());
  const snap::TrialImage image = snap::decode_trial(snapshot);
  const auto& c = image.config;
  std::printf("protocol             %s\n", c.protocol.name.c_str());
  std::printf("nodes                %d\n", c.deployment.num_nodes);
  std::printf("seed                 %llu\n",
              static_cast<unsigned long long>(c.seed));
  std::printf("base rate (Hz)       %g\n", c.workload.base_rate_hz);
  std::printf("setup duration (s)   %g\n", c.setup_duration.to_seconds());
  std::printf("measure duration (s) %g\n", c.measure_duration.to_seconds());
  std::printf("barrier (s)          %.9f\n", image.barrier.to_seconds());
  std::printf("component state      %zu bytes\n", image.state.size());
  // Enumerate the component sections inside the "TRST" wrapper. The state
  // interleaves framed sections with loose scalars (counts, presence
  // flags), so walk the raw bytes: a section frame is 4 uppercase tag
  // bytes plus a length that fits in the remainder; anything else is
  // counted as scalar filler between sections.
  const std::vector<std::uint8_t>& st = image.state;
  std::size_t at = 0;
  if (st.size() >= 12 && std::memcmp(st.data(), "TRST", 4) == 0) at = 12;
  std::vector<std::string> order;            // tags in first-seen order
  std::map<std::string, std::pair<std::size_t, std::size_t>> agg;  // count, bytes
  auto tally = [&](const std::string& tag, std::size_t bytes) {
    auto [it, fresh] = agg.emplace(tag, std::make_pair(0u, 0u));
    if (fresh) order.push_back(tag);
    it->second.first += 1;
    it->second.second += bytes;
  };
  while (at < st.size()) {
    bool is_tag = at + 12 <= st.size();
    for (int k = 0; is_tag && k < 4; ++k) {
      is_tag = st[at + k] >= 'A' && st[at + k] <= 'Z';
    }
    std::uint64_t len = 0;
    if (is_tag) {
      for (int k = 0; k < 8; ++k) {
        len |= static_cast<std::uint64_t>(st[at + 4 + k]) << (8 * k);
      }
      is_tag = len <= st.size() - at - 12;
    }
    if (is_tag) {
      tally(std::string(reinterpret_cast<const char*>(&st[at]), 4),
            static_cast<std::size_t>(len) + 12);
      at += 12 + static_cast<std::size_t>(len);
    } else {
      tally("(scalars)", 1);
      ++at;
    }
  }
  for (const std::string& tag : order) {
    std::printf("  %-10s x%-5zu %zu bytes\n", tag.c_str(), agg[tag].first,
                agg[tag].second);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_dump = false;
  bool do_verify = false;
  std::string trace_path;
  std::string snapshot_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump") {
      do_dump = true;
    } else if (arg == "--verify") {
      do_verify = true;
    } else if (arg == "--trace") {
      if (++i >= argc) return usage(argv[0]);
      trace_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (snapshot_path.empty()) {
      snapshot_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (snapshot_path.empty()) return usage(argv[0]);

  namespace snap = essat::snap;
  try {
    const snap::Snapshot snapshot = snap::read_snapshot_file(snapshot_path);
    if (do_dump) return dump(snapshot);

    snap::TrialImage image = snap::decode_trial(snapshot);
    if (!trace_path.empty()) {
      image.config.trace.enabled = true;
      image.config.trace.perfetto_path = trace_path;
    }
    std::printf("resuming %s at t=%.9fs (%s, %d nodes, seed %llu)\n",
                snapshot_path.c_str(), image.barrier.to_seconds(),
                image.config.protocol.name.c_str(),
                image.config.deployment.num_nodes,
                static_cast<unsigned long long>(image.config.seed));
    const essat::harness::RunMetrics resumed = snap::resume_trial(image);
    print_metrics(resumed);
    if (!trace_path.empty()) {
      std::printf("perfetto trace       %s\n", trace_path.c_str());
    }

    if (do_verify) {
      // Straight run from the embedded config; bit-identical metrics are
      // the whole contract, so compare the canonical encodings.
      const essat::harness::RunMetrics straight =
          essat::harness::run_scenario(image.config);
      if (snap::run_metrics_to_bytes(resumed) !=
          snap::run_metrics_to_bytes(straight)) {
        std::fprintf(stderr,
                     "VERIFY FAILED: resumed metrics differ from a straight "
                     "run of the embedded config\n");
        return 1;
      }
      std::printf("verify               OK (resumed == straight, bit-exact)\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 1;
  }
  return 0;
}
