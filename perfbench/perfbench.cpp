// perfbench: runs one named workload (workloads.h) through
// exp::SweepRunner and prints its metrics as one JSON line, last on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0, the end-to-end run: repeats the workload's trial list for
// about S seconds (whole passes, at least one) and reports the end-to-end
// metrics. --trace 1, the per-layer run: one untraced pass over the trial
// list, a traced replay of the workload's traced subset, and timed calls
// into the layers' construction entry points; it reports every per-layer
// metric but harness.alloc_*, which perfbench_alloc measures in a process
// of its own. Both run min(nproc, 4) workers; every modelled-network figure
// is identical at any count.
//
// run.py builds and runs this program. README.md defines each metric.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "census.h"
#include "src/essat.h"
#include "src/routing/link_estimator.h"
#include "src/snap/config_codec.h"
#include "src/snap/hook.h"
#include "workloads.h"

namespace {

using namespace essat;
using perfbench::Metric;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int default_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(n, 1, 4);
}

// Linux keeps the process's peak RSS as VmHWM in /proc/self/status;
// writing "5" to /proc/self/clear_refs resets it to the current RSS.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error{"cannot read /proc/self/status"};
  char line[256];
  long kib = -1;
  while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error{"no VmHWM in /proc/self/status"};
  return static_cast<double>(kib) / 1024.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return perfbench::ratio(sum, static_cast<double>(v.size()));
}

// ---------------------------------------------------------------- host time
//
// Shared hosts drift in speed by tens of percent over minutes, which would
// swamp any change worth measuring. Every host-time figure is therefore
// scaled to a reference host speed: the timing thread runs a fixed integer
// loop (bench/perf_report's calibration loop) just before and just after
// the timed work, and the work's seconds are multiplied by
// kReferenceStepS / (the mean measured seconds per step). A figure reads as
// host seconds on a host that runs the loop at kReferenceStepS per step.
// README.md gives the spreads with and without the scaling.

constexpr double kReferenceStepS = 1.5e-9;
std::atomic<std::uint64_t> g_calibration_sink{0};  // keeps the loop alive

double calibration_step_s() {
  constexpr int kSteps = 1 << 20;  // about 1.5 ms
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  const double s = seconds_since(t0);
  g_calibration_sink.fetch_xor(x, std::memory_order_relaxed);
  return s / kSteps;
}

class HostTimer {
 public:
  HostTimer() : step_before_s_{calibration_step_s()}, start_{Clock::now()} {}

  Clock::time_point start() const { return start_; }
  double raw_s() const { return seconds_since(start_); }
  // Calibrates again; call once the timed work is done.
  double scale() const {
    return 2 * kReferenceStepS / (step_before_s_ + calibration_step_s());
  }

 private:
  double step_before_s_;
  Clock::time_point start_;
};

// Maps a trial's config bytes to its position in the trial list, so that
// results land in trial-index slots whatever order the workers finish in;
// also digests every trial's bytes, so two runs can be shown to share
// their inputs.
class TrialIndex {
 public:
  explicit TrialIndex(const std::vector<harness::ScenarioConfig>& trials) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      std::vector<std::uint8_t> bytes = snap::scenario_config_to_bytes(trials[i]);
      digest_ = perfbench::fnv1a(bytes, digest_);
      if (!index_.emplace(std::move(bytes), i).second) {
        throw std::logic_error{"two trials of the workload share a config"};
      }
    }
  }

  std::size_t of(const harness::ScenarioConfig& c) const {
    const auto it = index_.find(snap::scenario_config_to_bytes(c));
    if (it == index_.end()) throw std::logic_error{"trial is not in the workload"};
    return it->second;
  }
  std::size_t size() const { return index_.size(); }
  std::uint64_t digest() const { return digest_; }

 private:
  std::map<std::vector<std::uint8_t>, std::size_t> index_;
  std::uint64_t digest_ = perfbench::fnv1a({});
};

// One timed run_scenario call, paused at sim t = 0 to time the setup phase
// (topology, channel, per-node stacks, tree, fault schedule). The pause
// injects no event, so the run is the unhooked event stream.
struct Sample {
  double raw_host_s = 0;
  double raw_setup_s = 0;
  double scale = 1;
  std::string failure;  // "" = passed

  double host_s() const { return raw_host_s * scale; }
  double setup_s() const { return raw_setup_s * scale; }
};

// Never throws: a throwing trial returns default metrics and fails.
Sample timed_run(const harness::ScenarioConfig& c, harness::RunMetrics& out) {
  Sample s;
  const HostTimer timer;
  auto setup_end = timer.start();
  snap::TrialHookSpec hook;
  hook.enabled = true;
  hook.at = util::Time::zero();
  hook.hook = [&setup_end](snap::TrialCheckpoint&) { setup_end = Clock::now(); };
  try {
    out = harness::run_scenario(c, hook);
    s.failure = perfbench::check_metrics(out);
  } catch (const std::exception& e) {
    out = harness::RunMetrics{};
    s.failure = std::string{"threw: "} + e.what();
  }
  s.raw_host_s = timer.raw_s();
  s.raw_setup_s = std::chrono::duration<double>(setup_end - timer.start()).count();
  s.scale = timer.scale();
  return s;
}

// What the reports read from one trial's RunMetrics. A RunMetrics holds
// every sleep interval of its trial, so only this and a digest are kept,
// and run_fn hands SweepRunner an empty RunMetrics (SweepRunner keeps each
// trial's result until the pass ends). peak_rss_mib then follows the live
// state of the trials running at once, not the number of trials in a pass.
struct TrialOutcome {
  double duty = 0;
  double latency_s = 0;
  double latency_p95_s = 0;
  double delivery = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t peak_pending = 0;
  double short_sleep_frac = 0;
  double phase_update_bits = 0;
  double backbone_size = 0;
  std::uint64_t pass_through = 0;
  std::uint64_t repair_attempts = 0;
  std::uint64_t deaths = 0;
  double downtime_s = 0;
  double delivery_during_fault = 0;
  std::size_t tree_members = 0;
  std::uint64_t digest = 0;  // perfbench::metrics_digest

  explicit TrialOutcome(const harness::RunMetrics& m)
      : duty{m.avg_duty_cycle},
        latency_s{m.avg_latency_s},
        latency_p95_s{m.p95_latency_s},
        delivery{m.delivery_ratio},
        sim_events{m.sim_events},
        peak_pending{m.peak_pending_events},
        short_sleep_frac{m.frac_sleep_below_2_5ms},
        phase_update_bits{m.phase_update_bits_per_report},
        backbone_size{static_cast<double>(m.backbone_size)},
        pass_through{m.pass_through_forwarded},
        deaths{m.node_deaths},
        downtime_s{m.downtime_s},
        delivery_during_fault{m.delivery_during_fault},
        tree_members{static_cast<std::size_t>(m.tree_members)},
        digest{perfbench::metrics_digest(m)} {
    for (const auto& d : m.per_node) repair_attempts += d.repair_attempts;
  }
};

// One trial's untraced results; a later pass must reproduce the first
// pass's metrics byte for byte.
struct TrialSlot {
  std::optional<TrialOutcome> outcome;  // from the first pass
  std::vector<Sample> samples;          // one per pass

  bool passed() const {
    return std::all_of(samples.begin(), samples.end(),
                       [](const Sample& s) { return s.failure.empty(); });
  }
};

// Runs every trial of `spec` once through SweepRunner; returns wall seconds.
// `trial_done`, if set, is called with the pass's count of finished trials
// after each one, one call at a time.
double run_untraced_pass(const exp::SweepSpec& spec, const TrialIndex& index,
                         int workers, std::vector<TrialSlot>& slots,
                         const std::function<void(std::size_t)>& trial_done = {}) {
  exp::SweepRunner::Options opts;
  opts.jobs = workers;
  if (trial_done) {
    opts.progress = [&trial_done](std::size_t done, std::size_t) { trial_done(done); };
  }
  opts.run_fn = [&](const harness::ScenarioConfig& c) {
    TrialSlot& slot = slots[index.of(c)];
    harness::RunMetrics m;
    Sample s = timed_run(c, m);
    TrialOutcome outcome{m};
    if (!slot.outcome) {
      slot.outcome = outcome;
    } else if (s.failure.empty() && outcome.digest != slot.outcome->digest) {
      s.failure = "metrics differ from the first pass";
    }
    slot.samples.push_back(std::move(s));
    return harness::RunMetrics{};
  };
  const auto t0 = Clock::now();
  exp::SweepRunner(std::move(opts)).run(spec);
  return seconds_since(t0);
}

// ---------------------------------------------------------------- traced run

// Record types are traced in groups, one run of the trial per group, so
// that the ring holding all of a group's records stays small.
struct TraceGroup {
  std::uint64_t mask;
  bool conservation;  // the group holds every channel record
};

constexpr std::uint64_t bit(obs::TraceType t) { return obs::trace_bit(t); }
constexpr std::uint64_t kQueueTypes = bit(obs::TraceType::kEvPush) |
                                      bit(obs::TraceType::kEvCancel) |
                                      bit(obs::TraceType::kEvRearm);
constexpr std::uint64_t kChannelTypes = bit(obs::TraceType::kChanTxBegin) |
                                        bit(obs::TraceType::kChanDeliver) |
                                        bit(obs::TraceType::kChanDrop);
// Everything else but ev_pop, which no metric reads.
constexpr std::uint64_t kStackTypes = obs::kAllTraceTypes & ~kQueueTypes &
                                      ~kChannelTypes &
                                      ~bit(obs::TraceType::kEvPop);
constexpr TraceGroup kTraceGroups[] = {
    {kQueueTypes, false}, {kChannelTypes, true}, {kStackTypes, false}};
constexpr int kNumTraceGroups = sizeof kTraceGroups / sizeof kTraceGroups[0];

// Memory for the traced run: each worker holds one ring plus its copy.
constexpr int kTracedWorkers = 2;

std::size_t next_pow2(std::uint64_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

struct GroupRun {
  harness::RunMetrics metrics;
  double host_s = 0;  // sink excluded
  std::uint64_t emitted = 0;
  std::uint64_t overwritten = 0;
  perfbench::TraceCensus census;
  obs::ConservationReport conservation;
  std::string failure;
};

GroupRun traced_run(const harness::ScenarioConfig& c, const TraceGroup& g,
                    std::size_t ring) {
  GroupRun r;
  double sink_s = 0;
  harness::ScenarioConfig tc = c;
  tc.trace.enabled = true;
  tc.trace.buffer_cap = ring;
  tc.trace.type_mask = g.mask;
  tc.trace.sink = [&](const obs::Tracer& tracer) {
    const auto t0 = Clock::now();
    r.emitted = tracer.emitted();
    r.overwritten = tracer.overwritten();
    if (r.overwritten == 0) {
      const std::vector<obs::TraceRecord> records = tracer.snapshot();
      r.census.add(records);
      if (g.conservation) r.conservation = obs::check_conservation(records);
    }
    sink_s = seconds_since(t0);
  };
  const HostTimer timer;
  try {
    r.metrics = harness::run_scenario(tc);
  } catch (const std::exception& e) {
    r.failure = std::string{"traced run threw: "} + e.what();
  }
  r.host_s = (timer.raw_s() - sink_s) * timer.scale();
  return r;
}

struct TracedSlot {
  perfbench::TraceCensus census;
  double traced_s = 0;    // traced run_scenario seconds, sink excluded
  double untraced_s = 0;  // the trial untraced, once per group, same worker
  int resized = 0;        // group runs repeated with a ring sized to fit
  std::string failure;
};

// Replays every trial of `subset` traced, one run per record group, and
// checks each run against the trial's untraced metrics.
void run_traced(const exp::SweepSpec& subset, const TrialIndex& index,
                const std::vector<TrialSlot>& untraced,
                std::vector<TracedSlot>& traced) {
  exp::SweepRunner::Options opts;
  opts.jobs = kTracedWorkers;
  opts.run_fn = [&](const harness::ScenarioConfig& c) {
    const std::size_t i = index.of(c);
    TracedSlot& slot = traced[i];
    const TrialSlot& base = untraced[i];
    for (const TraceGroup& g : kTraceGroups) {
      harness::RunMetrics m;
      const Sample ref = timed_run(c, m);
      slot.untraced_s += ref.host_s();
      if (slot.failure.empty()) slot.failure = ref.failure;
      // Records per event stay near 2 in every group; a ring that still
      // overflows is re-sized to the exact count and the run repeated.
      GroupRun r = traced_run(c, g, next_pow2(2 * base.outcome->sim_events + 4096));
      if (r.overwritten > 0 && r.failure.empty()) {
        ++slot.resized;
        r = traced_run(c, g, next_pow2(r.emitted));
      }
      slot.traced_s += r.host_s;
      slot.census.merge(r.census);
      if (r.failure.empty()) {
        r.failure = perfbench::check_traced(perfbench::metrics_digest(r.metrics),
                                            base.outcome->digest, r.overwritten,
                                            g.conservation ? &r.conservation : nullptr);
      }
      if (slot.failure.empty()) slot.failure = r.failure;
    }
    return harness::RunMetrics{};
  };
  exp::SweepRunner(std::move(opts)).run(subset);
}

// ---------------------------------------------------------------- timed calls

// Construction steps timed from outside run_scenario, on inputs rebuilt the
// way run_scenario builds them: the same forked RNG streams of the seed, the
// same root, the same measurement window. The replay is checked against the
// trial, so that a change to run_scenario's set-up the replay does not
// follow fails the trial instead of timing a different construction.
struct LayerCalls {
  double topology_s = 0;  // net::DeploymentSpec::build
  double tree_s = 0;      // routing::build_policy_tree
  double mobility_s = 0;  // the trial's Topology::advance_to epochs
  std::uint64_t rebuilds = 0;
  std::string failure;  // "" = the replay matches the trial
};

constexpr int kTimedCallReps = 5;  // the fast calls are timed as a median

util::Time measure_end(const harness::ScenarioConfig& c) {
  return c.setup_duration + util::Time::seconds(1) +
         c.workload.query_start_window + util::Time::seconds(1) +
         c.measure_duration;
}

// `last_traced_ns` is the time of the trial's latest traced record.
LayerCalls time_layer_calls(const harness::ScenarioConfig& c,
                            const TrialOutcome& trial, std::int64_t last_traced_ns) {
  const HostTimer timer;
  LayerCalls out;
  const util::Rng master{c.seed};
  std::vector<double> samples;
  for (int r = 0; r < kTimedCallReps; ++r) {
    util::Rng placement = master.fork(1);
    const auto t0 = Clock::now();
    const net::Topology topo = c.deployment.build(placement);
    samples.push_back(seconds_since(t0));
  }
  out.topology_s = perfbench::quantile(samples, 0.5);

  util::Rng placement = master.fork(1);
  net::Topology topo = c.deployment.build(placement);
  const net::NodeId root = topo.nearest(c.deployment.centre());
  sim::Simulator sim;
  net::Channel channel{sim, topo, c.channel_params};
  channel.set_link_model(c.channel_model.build(topo.range(), master.fork(5)));
  const routing::LinkEstimator estimator{channel, topo, c.routing.etx};
  const std::unique_ptr<routing::ParentPolicy> policy =
      c.routing.build(routing::PolicyContext{&topo, &estimator, c.routing.etx});
  samples.clear();
  std::size_t tree_members = 0;
  for (int r = 0; r < kTimedCallReps; ++r) {
    const auto t0 = Clock::now();
    const routing::Tree tree = routing::build_policy_tree(
        topo, root, c.deployment.max_tree_dist_m, policy.get());
    samples.push_back(seconds_since(t0));
    tree_members = tree.member_count();
  }
  out.tree_s = perfbench::quantile(samples, 0.5);

  // run_scenario ticks the topology every epoch from t = epoch through the
  // end of the measurement window.
  if (auto model = c.mobility.build(topo.positions(), c.deployment.extent().x,
                                    c.deployment.extent().y, master.fork(6))) {
    util::Rng moving_placement = master.fork(1);
    net::Topology moving = c.deployment.build(moving_placement);
    moving.set_mobility_model(std::move(model), c.mobility.epoch());
    const util::Time epoch = moving.mobility_epoch();
    const util::Time end = measure_end(c);
    const auto t0 = Clock::now();
    for (util::Time t = epoch; t <= end; t += epoch) moving.advance_to(t);
    out.mobility_s = seconds_since(t0);
    out.rebuilds = moving.neighbor_rebuilds() - 1;
    const auto epochs = static_cast<std::uint64_t>(end.ns() / epoch.ns());
    if (out.rebuilds != epochs) {
      out.failure = "mobility replay rebuilt neighbors " + std::to_string(out.rebuilds) +
                    " times over " + std::to_string(epochs) + " epochs";
    }
    // The trial's last mobility tick queued the next one, so its latest
    // record lies in the replay's last epoch.
    if (last_traced_ns > end.ns() || last_traced_ns / epoch.ns() != end.ns() / epoch.ns()) {
      out.failure = "the trial's last record (t = " + std::to_string(last_traced_ns) +
                    " ns) is outside the replay's last mobility epoch";
    }
  } else if (!c.enable_maintenance && !c.faults.enabled() &&
             tree_members != trial.tree_members) {
    // Without mobility, maintenance or faults the trial ends with the tree
    // it built at set-up.
    out.failure = "replayed tree has " + std::to_string(tree_members) +
                  " members, the trial's had " + std::to_string(trial.tree_members);
  }
  const double scale = timer.scale();
  out.topology_s *= scale;
  out.tree_s *= scale;
  out.mobility_s *= scale;
  return out;
}

// ---------------------------------------------------------------- reports

void print_header(const perfbench::Options& o, const TrialIndex& index,
                  int workers) {
  std::printf("perfbench: workload=%s seed=%llu workers=%d trials=%zu "
              "config_digest=%016llx\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              workers, index.size(), static_cast<unsigned long long>(index.digest()));
}

void print_failures(const perfbench::FailureTally& tally) {
  std::printf("perfbench: failed %llu of %llu trials attempted (%.3f%%)%s%s\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted), tally.failed_pct(),
              tally.failed > 0 ? "; first: " : "", tally.first_failure.c_str());
}

int run_end_to_end(const perfbench::Workload& w, const TrialIndex& index,
                   int workers, double seconds) {
  // Peak RSS per round of the grid: the span in which as many trials finish
  // as one seed gives the grid (the list is seed-major, so about one seed's
  // trials). The median over rounds is reported; the peak of the whole run
  // is the one moment the heaviest trials happen to overlap, which varies
  // more from run to run.
  if (!reset_peak_rss()) throw std::runtime_error{"cannot reset the peak RSS"};
  const std::size_t round = index.size() / static_cast<std::size_t>(w.seeds);
  std::vector<double> round_peaks_mib;
  const auto trial_done = [&](std::size_t done) {
    if (done % round != 0) return;
    round_peaks_mib.push_back(peak_rss_mib());
    reset_peak_rss();
  };

  std::vector<TrialSlot> slots(index.size());
  const auto start = Clock::now();
  int passes = 0;
  double last_pass_s = 0;
  do {
    last_pass_s = run_untraced_pass(w.spec, index, workers, slots, trial_done);
    ++passes;
    // Another pass only if it would end less than half a pass late.
  } while (seconds_since(start) + last_pass_s / 2 <= seconds);
  const double wall_s = seconds_since(start);

  perfbench::FailureTally tally;
  std::vector<double> host_s, setup_s, raw_host_s, raw_setup_s, scales;
  for (const TrialSlot& slot : slots) {
    for (const Sample& s : slot.samples) {
      tally.record(s.failure);
      host_s.push_back(s.host_s());
      setup_s.push_back(s.setup_s());
      raw_host_s.push_back(s.raw_host_s);
      raw_setup_s.push_back(s.raw_setup_s);
      scales.push_back(s.scale);
    }
  }
  // The modelled network, folded in trial-index order over passing trials.
  std::vector<double> duty, latency, latency_p95, delivery;
  for (const TrialSlot& slot : slots) {
    if (!slot.passed()) continue;
    duty.push_back(slot.outcome->duty);
    latency.push_back(slot.outcome->latency_s);
    latency_p95.push_back(slot.outcome->latency_p95_s);
    delivery.push_back(slot.outcome->delivery);
  }
  std::size_t beyond_p90 = 0;
  const double p90 = perfbench::tail_quantile(host_s, 0.9, &beyond_p90);
  const double trials = static_cast<double>(host_s.size());
  std::printf("perfbench: passes=%d samples=%zu wall=%.3fs trials_beyond_p90=%zu\n",
              passes, host_s.size(), wall_s, beyond_p90);
  std::printf("perfbench: peak RSS over %zu rounds of %zu trials: median %.1f MiB, "
              "max %.1f MiB\n",
              round_peaks_mib.size(), round, perfbench::quantile(round_peaks_mib, 0.5),
              *std::max_element(round_peaks_mib.begin(), round_peaks_mib.end()));
  std::printf("perfbench: unscaled trials_per_s=%.4f trial_s_p50=%.6f "
              "trial_s_p90=%.6f setup_s=%.7f mean host speed scale=%.4f\n",
              trials / wall_s, perfbench::quantile(raw_host_s, 0.5),
              perfbench::quantile(raw_host_s, 0.9), perfbench::quantile(raw_setup_s, 0.5),
              mean(scales));
  print_failures(tally);
  perfbench::print_result(
      tally.failed == 0, tally.attempted, tally.failed,
      {{"trials_per_s", "trials/s", trials / (wall_s * mean(scales))},
       {"trial_s_p50", "s", perfbench::quantile(host_s, 0.5)},
       {"trial_s_p90", "s", p90},
       {"setup_s", "s", perfbench::quantile(setup_s, 0.5)},
       {"peak_rss_mib", "MiB", perfbench::quantile(round_peaks_mib, 0.5)},
       {"duty_cycle_pct", "%", 100.0 * mean(duty)},
       {"latency_s", "s", mean(latency)},
       {"latency_p95_s", "s", mean(latency_p95)},
       {"delivery_pct", "%", 100.0 * mean(delivery)}});
  return 0;
}

int run_per_layer(const perfbench::Workload& w,
                  const std::vector<harness::ScenarioConfig>& trials,
                  const TrialIndex& index, int workers) {
  std::vector<TrialSlot> slots(index.size());
  const double pass_s = run_untraced_pass(w.spec, index, workers, slots);
  std::vector<TracedSlot> traced(index.size());
  run_traced(w.traced, index, slots, traced);

  perfbench::FailureTally tally;
  double busy_s = 0, run_s = 0, downtime_s = 0;
  std::uint64_t events = 0, peak_pending = 0, pass_through = 0, repairs = 0,
                deaths = 0;
  std::vector<double> setup_s, short_sleep, phase_bits, backbone, fault_delivery;
  for (const TrialSlot& slot : slots) {
    const Sample& s = slot.samples.front();
    const TrialOutcome& m = *slot.outcome;
    tally.record(s.failure);
    busy_s += s.raw_host_s;
    run_s += s.host_s() - s.setup_s();
    setup_s.push_back(s.setup_s());
    events += m.sim_events;
    peak_pending = std::max(peak_pending, m.peak_pending);
    short_sleep.push_back(m.short_sleep_frac);
    phase_bits.push_back(m.phase_update_bits);
    backbone.push_back(m.backbone_size);
    pass_through += m.pass_through;
    repairs += m.repair_attempts;
    deaths += m.deaths;
    downtime_s += m.downtime_s;
    fault_delivery.push_back(m.delivery_during_fault);
  }

  perfbench::TraceCensus census;
  double traced_s = 0, reference_s = 0, subset_host_s = 0, mobility_s = 0;
  std::uint64_t rebuilds = 0;
  int resized = 0;
  std::vector<double> topology_s, tree_s;
  const std::vector<harness::ScenarioConfig> subset = perfbench::expand_trials(w.traced);
  for (const harness::ScenarioConfig& c : subset) {
    const std::size_t i = index.of(c);
    const TracedSlot& t = traced[i];
    const LayerCalls calls = time_layer_calls(trials[i], *slots[i].outcome, t.census.last_ns);
    tally.record(t.failure.empty() ? calls.failure : t.failure);
    census.merge(t.census);
    traced_s += t.traced_s;
    reference_s += t.untraced_s;
    resized += t.resized;
    topology_s.push_back(calls.topology_s);
    tree_s.push_back(calls.tree_s);
    mobility_s += calls.mobility_s;
    rebuilds += calls.rebuilds;
    subset_host_s += slots[i].samples.front().host_s();
  }
  std::printf("perfbench: traced %zu trials in %d record groups at %d workers; "
              "rings re-sized %d times\n",
              subset.size(), kNumTraceGroups, kTracedWorkers, resized);
  print_failures(tally);

  const double topology_build_s = perfbench::quantile(topology_s, 0.5);
  const double tree_build_s = perfbench::quantile(tree_s, 0.5);
  std::vector<Metric> metrics{
      {"exp.parallel_eff", "ratio", perfbench::parallel_efficiency(busy_s, workers, pass_s)},
      {"harness.other_setup_s", "s",
       perfbench::quantile(setup_s, 0.5) - topology_build_s - tree_build_s},
      {"sim.events", "count", static_cast<double>(events)},
      {"sim.ns_per_event", "ns", 1e9 * perfbench::ratio(run_s, static_cast<double>(events))},
      {"sim.peak_pending", "count", static_cast<double>(peak_pending)},
      {"net.topology_build_s", "s", topology_build_s},
      {"net.mobility_rebuilds", "count", static_cast<double>(rebuilds)},
      {"net.mobility_s", "s", mobility_s},
      {"net.mobility_share", "ratio", perfbench::ratio(mobility_s, subset_host_s)},
      {"core.short_sleep_frac", "ratio", mean(short_sleep)},
      {"core.phase_update_bits", "bits/report", mean(phase_bits)},
      {"baselines.backbone_size", "nodes", mean(backbone)},
      {"query.pass_through", "count", static_cast<double>(pass_through)},
      {"routing.tree_build_s", "s", tree_build_s},
      {"routing.repair_attempts", "count", static_cast<double>(repairs)},
      {"fault.deaths", "count", static_cast<double>(deaths)},
      {"fault.downtime_s", "s", downtime_s},
      {"fault.delivery_during_fault_pct", "%", 100.0 * mean(fault_delivery)},
      {"obs.trace_overhead", "ratio", perfbench::ratio(traced_s, reference_s)},
  };
  for (Metric& m : perfbench::census_metrics(census)) metrics.push_back(std::move(m));
  perfbench::print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse_options(argc, argv);
    const perfbench::Workload w = perfbench::make_workload(o.workload, o.seed);
    const std::vector<harness::ScenarioConfig> trials =
        perfbench::expand_trials(w.spec);
    const TrialIndex index{trials};
    const int workers = default_workers();
    print_header(o, index, workers);
    return o.trace == 0 ? run_end_to_end(w, index, workers, o.seconds)
                        : run_per_layer(w, trials, index, workers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
