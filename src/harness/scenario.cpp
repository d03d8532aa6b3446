#include "src/harness/scenario.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/core/maintenance.h"
#include "src/core/safe_sleep.h"
#include "src/energy/duty_cycle.h"
#include "src/fault/fault_engine.h"
#include "src/harness/power_manager.h"
#include "src/mac/csma.h"
#include "src/net/channel.h"
#include "src/obs/trace_export.h"
#include "src/query/query_agent.h"
#include "src/query/workload.h"
#include "src/routing/link_estimator.h"
#include "src/routing/repair.h"
#include "src/routing/tree.h"
#include "src/sim/simulator.h"
#include "src/snap/hook.h"
#include "src/snap/serializer.h"
#include "src/util/rng.h"

namespace essat::harness {

std::ostream& operator<<(std::ostream& os, const ProtocolKey& key) {
  return os << key.name;
}

namespace {

// The policy-agnostic per-node substrate. Everything protocol-specific
// (SafeSleep schedulers, beacon/backbone machinery) is owned by the
// PowerManager make_power_manager built. Only the routing tree's members at
// t = 0 get a stack; a node outside that tree is outside the experiment and
// keeps an empty one: no radio, no MAC, no channel listener. Faults strike
// only members (fault_engine.h), so no node ever needs a stack later, and a
// member that maintenance removes keeps its stack, since it may rejoin.
struct NodeStack {
  std::unique_ptr<energy::Radio> radio;
  std::unique_ptr<mac::CsmaMac> mac;
  std::unique_ptr<query::TrafficShaper> shaper;
  std::unique_ptr<query::QueryAgent> agent;
};

// "{seed}" substitution for TraceSpec export paths, so each traced trial of
// a sweep names its files after its seed.
std::string substitute_seed(std::string path, std::uint64_t seed) {
  const std::string token = "{seed}";
  for (std::size_t at = path.find(token); at != std::string::npos;
       at = path.find(token, at)) {
    path.replace(at, token.size(), std::to_string(seed));
  }
  return path;
}

// Placement plus its position source. The mobility model (like the loss
// model) draws from its own forked stream, so installing it never perturbs
// placement/workload/MAC randomness — and a static spec installs nothing.
net::Topology build_topology(const ScenarioConfig& config,
                             util::Rng& placement_rng, const util::Rng& master) {
  net::Topology topo = config.deployment.build(placement_rng);
  if (auto mobility_model = config.mobility.build(
          topo.positions(), config.deployment.extent().x,
          config.deployment.extent().y, master.fork(6))) {
    topo.set_mobility_model(std::move(mobility_model), config.mobility.epoch());
  }
  return topo;
}

}  // namespace

// Every component of the trial, declared in construction order, so RNG
// forks, event pushes and destruction happen in one fixed order. Callbacks
// capture `this` (and a node id), so an Impl is never copied or moved.
struct Trial::Impl {
  explicit Impl(const ScenarioConfig& config_in);
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  const ScenarioConfig config;  // a copy: components hold references into it
  util::Rng master{config.seed};
  util::Rng placement_rng = master.fork(1);
  util::Rng workload_rng = master.fork(2);
  util::Rng policy_rng = master.fork(3);
  net::Topology topo = build_topology(config, placement_rng, master);
  const net::NodeId root = topo.nearest(config.deployment.centre());
  sim::Simulator sim;
  std::unique_ptr<obs::Tracer> tracer;
  net::Channel channel{sim, topo, config.channel_params};
  // Link-quality feedback for parent selection: the estimator reads the
  // channel's loss statistics (and the loss model's own curve as a prior),
  // the policy ranks candidate parents by it.
  const routing::LinkEstimator link_estimator{channel, topo, config.routing.etx};
  std::unique_ptr<routing::ParentPolicy> parent_policy = config.routing.build(
      routing::PolicyContext{&topo, &link_estimator, config.routing.etx});
  const std::size_t n = topo.num_nodes();
  std::vector<NodeStack> nodes = std::vector<NodeStack>(n);
  routing::Tree tree{n};
  // Phasing: the setup slot, then query starts over the start window, then
  // the measurement window (after all queries have started).
  const util::Time setup_end = config.setup_duration;
  const util::Time measure_start = setup_end + util::Time::seconds(1) +
                                   config.workload.query_start_window +
                                   util::Time::seconds(1);
  const util::Time measure_end = measure_start + config.measure_duration;
  std::unique_ptr<fault::FaultEngine> fault_engine;
  // Declared after `nodes` so the policy (and everything it owns, e.g.
  // SafeSleep instances referencing the radios/MACs) is destroyed first.
  std::unique_ptr<PowerManager> policy;
  const StackContext stack_ctx{sim,    topo,      tree,      root,
                               config, setup_end, policy_rng};
  LatencyCollector latency;
  // The active SafeSleep per node (nullptr for policies without one); a
  // crash deactivates it, a restart replaces it.
  std::vector<core::SafeSleep*> sleepers = std::vector<core::SafeSleep*>(n);
  // The materialized workload, kept for restarts: a revived node re-registers
  // every query with the epoch chain resuming after its outage.
  std::vector<query::Query> active_queries;
  routing::RepairService repair{topo, tree, {}};
  std::unique_ptr<core::MaintenanceService> maintenance;
  // Churn implies maintenance: without detection, a dead interior node
  // would silently black-hole its subtree forever.
  const bool maintenance_on =
      config.enable_maintenance || config.faults.churn.enabled();
  std::vector<char> awaiting_rejoin = std::vector<char>(n, 0);

  NodeStack& stack(net::NodeId id) { return nodes[static_cast<std::size_t>(id)]; }
  bool alive(net::NodeId id) {
    const NodeStack& node = stack(id);
    return node.radio && !node.radio->failed();
  }

  void build_one_stack(net::NodeId id) {
    NodeStack& node = stack(id);
    const NodeHandles handles{id, *node.radio, *node.mac};
    node.shaper = policy->make_shaper(stack_ctx, handles);
    core::SafeSleep* sleeper = policy->attach_node(stack_ctx, handles);
    sleepers[static_cast<std::size_t>(id)] = sleeper;
    node.shaper->set_context(query::ShaperContext{&tree, id, sleeper});
    node.agent = std::make_unique<query::QueryAgent>(
        sim, *node.mac, tree, id, *node.shaper,
        query::QueryAgentParams{.t_comp = config.t_comp});
    if (id == root) {
      node.agent->set_root_arrival_hook(
          [this](const query::Query& q, std::int64_t k, util::Time t, int c) {
            latency.on_root_arrival(q, k, t, c);
          });
    }
  }

  // Builds every tree member's stack on the finished tree, then wires
  // maintenance over them.
  void build_stacks() {
    policy->on_tree_ready(stack_ctx);
    for (net::NodeId id : tree.members()) build_one_stack(id);
    if (!maintenance_on) return;
    maintenance = std::make_unique<core::MaintenanceService>(
        repair, core::MaintenanceParams{});
    maintenance->set_alive_predicate([this](net::NodeId m) { return alive(m); });
    for (net::NodeId id : tree.members()) {
      maintenance->attach_agent(id, stack(id).agent.get());
    }
    repair.set_hooks(maintenance->make_repair_hooks());
  }

  // The setup boundary draws the workload. workload_rng is a private forked
  // stream consumed nowhere else, so drawing here instead of at
  // construction is bit-identical.
  void register_queries() {
    query::WorkloadParams wl;
    wl.base_rate_hz = config.workload.base_rate_hz;
    wl.queries_per_class = config.workload.queries_per_class;
    wl.start_window_begin = setup_end + util::Time::seconds(1);
    wl.start_window_length = config.workload.query_start_window;
    active_queries = query::make_workload(wl, workload_rng);
    for (query::Query q : config.workload.extra_queries) {
      q.id = static_cast<net::QueryId>(active_queries.size());
      active_queries.push_back(q);
    }
    for (net::NodeId id : tree.members()) {
      NodeStack& node = stack(id);
      if (!node.agent) continue;  // crashed before the workload started
      for (const auto& q : active_queries) node.agent->register_query(q);
    }
  }

  // Receive demultiplexing: core packet types go to their substrate
  // handlers; everything else is the policy's private control traffic.
  void receive(net::NodeId id, const net::Packet& p) {
    NodeStack& node = stack(id);
    switch (p.type) {
      case net::PacketType::kData:
      case net::PacketType::kPhaseRequest:
        if (node.agent) node.agent->handle_packet(p);
        break;
      default:
        policy->handle_packet(id, p);
        break;
    }
  }

  // Crash: tear the node's stack down in dependency order — the MAC first
  // (cancels its timers and drops the queue without firing callbacks), then
  // the radio (fail + clear the activity latches), then the policy sleeper
  // and the query agent. Maintenance forgets the node's counters; neighbors
  // detect the death organically via child misses / send failures (§4.3).
  void teardown_node(net::NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    NodeStack& node = nodes[i];
    node.mac->crash_reset();
    node.radio->crash();
    if (sleepers[i] != nullptr) {
      sleepers[i]->deactivate();
      sleepers[i] = nullptr;
    }
    if (node.agent) node.agent->halt();
    if (maintenance) maintenance->detach_agent(id);
    node.agent.reset();
    node.shaper.reset();
  }

  // A restarted node treats the epochs it was dead for as finalized: each
  // query resumes at its first epoch starting strictly after now.
  void complete_restart(net::NodeId id) {
    build_one_stack(id);
    const util::Time now = sim.now();
    for (const query::Query& q : active_queries) {
      const std::int64_t next =
          now < q.phase ? 0 : (now - q.phase).ns() / q.period.ns() + 1;
      stack(id).agent->register_query_from(q, next);
    }
    if (maintenance) maintenance->attach_agent(id, stack(id).agent.get());
  }

  void restart_node(net::NodeId id) {
    stack(id).radio->restore();
    stack(id).radio->turn_on();
    if (tree.is_member(id)) {
      // The outage was short enough that maintenance never removed the
      // node; its stack resumes on the existing tree position.
      complete_restart(id);
    } else {
      awaiting_rejoin[static_cast<std::size_t>(id)] = 1;
      repair.request_rejoin(id);
    }
  }

  void on_rejoin(net::NodeId id) {
    if (!awaiting_rejoin[static_cast<std::size_t>(id)]) return;
    awaiting_rejoin[static_cast<std::size_t>(id)] = 0;
    complete_restart(id);
  }

  // Mobility epoch ticks: re-sample the position source and rebuild the
  // neighbor sets once per epoch. Link PRRs then drift through geometry;
  // broken parent links surface as MAC send failures, which maintenance
  // (when enabled) turns into policy-driven reparenting.
  void mobility_tick() {
    topo.advance_to(sim.now());
    sim.schedule_in(topo.mobility_epoch(), [this] { mobility_tick(); });
  }

  void save_state(snap::Serializer& out) const {
    out.begin("TRST");
    sim.save_state(out);
    out.begin("RNGS");
    master.save_state(out);
    placement_rng.save_state(out);
    workload_rng.save_state(out);
    policy_rng.save_state(out);
    out.end();
    topo.save_state(out);
    channel.save_state(out);
    tree.save_state(out);
    link_estimator.save_state(out);
    out.u64(n);
    for (const NodeStack& node : nodes) {
      out.boolean(node.radio != nullptr);
      if (!node.radio) continue;  // outside the tree: no stack
      node.radio->save_state(out);
      node.mac->save_state(out);
      out.boolean(node.shaper != nullptr);
      if (node.shaper) node.shaper->save_state(out);
      out.boolean(node.agent != nullptr);
      if (node.agent) node.agent->save_state(out);
    }
    policy->save_state(out);
    latency.save_state(out);
    out.boolean(fault_engine != nullptr);
    if (fault_engine) fault_engine->save_state(out);
    out.end();
  }

  void export_traces() {
    if (!tracer) return;
    for (const std::string* configured :
         {&config.trace.perfetto_path, &config.trace.jsonl_path}) {
      if (configured->empty()) continue;
      const std::string path = substitute_seed(*configured, config.seed);
      std::ofstream f{path};
      if (!f) {
        std::fprintf(stderr, "[WARN] trace export: cannot open %s\n",
                     path.c_str());
      } else if (configured == &config.trace.perfetto_path) {
        obs::export_perfetto_json(*tracer, f);
      } else {
        obs::export_jsonl(*tracer, f);
      }
    }
    if (config.trace.sink) config.trace.sink(*tracer);
    sim.set_tracer(nullptr);  // teardown events stay out of the snapshot
  }

  RunMetrics collect() const {
    RunMetrics out;
    const auto members = tree.members();
    out.tree_members = static_cast<int>(members.size());
    out.max_rank = tree.max_rank();
    out.backbone_size = policy->backbone_size();

    std::vector<const energy::Radio*> radios;
    std::vector<int> rank_of;
    for (net::NodeId id : members) {
      const NodeStack& node = nodes[static_cast<std::size_t>(id)];
      if (node.radio->failed()) continue;
      radios.push_back(node.radio.get());
      rank_of.push_back(tree.rank(id));
    }
    const int live_members = static_cast<int>(radios.size());
    out.avg_duty_cycle = energy::mean_duty_cycle(radios);
    out.duty_by_rank =
        energy::duty_cycle_by_group(radios, rank_of, tree.max_rank() + 1);

    const auto lat = latency.summarize(measure_start, measure_end,
                                       config.latency_grace, live_members - 1);
    out.avg_latency_s = lat.avg_s;
    out.p95_latency_s = lat.p95_s;
    out.max_latency_s = lat.max_s;
    out.delivery_ratio = lat.delivery_ratio;
    out.epochs_measured = lat.epochs;

    for (const energy::Radio* r : radios) {
      out.sleep_hist.merge(r->sleep_histogram());
    }
    const std::uint64_t sleeps = out.sleep_hist.total();
    if (sleeps > 0) {
      out.frac_sleep_below_2_5ms =
          static_cast<double>(out.sleep_hist.short_count()) /
          static_cast<double>(sleeps);
    }

    std::uint64_t phase_updates = 0;
    for (net::NodeId id : members) {
      const NodeStack& node = nodes[static_cast<std::size_t>(id)];
      RunMetrics::NodeDiag diag;
      diag.id = id;
      diag.rank = tree.rank(id);
      diag.level = tree.level(id);
      diag.leaf = tree.is_leaf(id);
      diag.duty_cycle = node.radio->duty_cycle();
      if (node.agent) {
        const auto& stats = node.agent->stats();
        diag.reports_sent = stats.reports_sent;
        diag.send_failures = stats.send_failures;
        diag.pass_through = stats.pass_through_forwarded;
        diag.child_timeouts = stats.child_timeouts;
        out.reports_sent += stats.reports_sent;
        out.mac_send_failures += stats.send_failures;
        out.pass_through_forwarded += stats.pass_through_forwarded;
      }
      if (node.shaper) phase_updates += node.shaper->phase_updates_sent();
      diag.retx_no_ack = node.mac->stats().retries;
      diag.cca_busy_defers = node.mac->stats().cca_busy_defers;
      diag.repair_attempts = repair.repair_attempts(id);
      out.mac_retx_no_ack += diag.retx_no_ack;
      out.mac_cca_busy_defers += diag.cca_busy_defers;
      out.per_node.push_back(diag);
    }
    out.phase_updates = phase_updates;
    if (out.reports_sent > 0) {
      // A phase update is a 16-bit time offset field.
      out.phase_update_bits_per_report =
          static_cast<double>(phase_updates) * 16.0 /
          static_cast<double>(out.reports_sent);
    }
    out.mac_transmissions = channel.transmissions();
    out.channel_collisions = channel.collisions();
    out.channel_delivered = channel.delivered();
    out.channel_dropped_by_model = channel.dropped_by_model();
    out.sim_events = sim.executed_events();
    out.peak_pending_events = sim.peak_pending_events();

    if (fault_engine) {
      out.node_deaths = fault_engine->node_deaths();
      out.downtime_s = fault_engine->downtime_s();
      const auto fault_lat = latency.summarize(
          measure_start, measure_end, config.latency_grace, live_members - 1,
          [this](util::Time t) { return fault_engine->any_down_at(t); });
      out.delivery_during_fault = fault_lat.delivery_ratio;
    }
    return out;
  }
};

Trial::Impl::Impl(const ScenarioConfig& config_in) : config{config_in} {
  if (config.trace.enabled) {
    if (!obs::kTracingCompiledIn) {
      std::fprintf(stderr,
                   "[WARN] TraceSpec.enabled but the library was built with "
                   "-DESSAT_TRACING=OFF; the run proceeds untraced\n");
    } else {
      tracer = std::make_unique<obs::Tracer>(config.trace);
      sim.set_tracer(tracer.get());
    }
  }
  // The loss model draws from its own forked stream, so installing (or
  // changing) it never perturbs placement/workload/MAC randomness.
  channel.set_link_model(config.channel_model.build(topo.range(), master.fork(5)));
  // Per-link frame statistics only cost something when a policy reads them.
  channel.set_link_stats_enabled(parent_policy->uses_link_estimator());

  // Routing tree, built centrally before the experiment starts (§3). It
  // follows set_link_model because the ETX policy reads the loss model's
  // PRR prior.
  tree = routing::build_policy_tree(topo, root,
                                    config.deployment.max_tree_dist_m,
                                    parent_policy.get());
  const std::vector<net::NodeId> members = tree.members();
  // Pre-size the event queue for a handful of timers and in-flight frames
  // per tree member (nodes outside the tree have no stack and schedule
  // nothing). It is a starting size, not a bound: a dense trial's slot
  // table can still double once (EventQueue::reserve). Nothing is
  // scheduled yet.
  sim.reserve_events(members.size() * 8 + 64);

  // Radio: transitions t_be/2 each way so that break-even == t_be.
  energy::RadioParams radio_params;
  radio_params.t_off_on = config.t_be / 2;
  radio_params.t_on_off = config.t_be / 2;
  for (net::NodeId id : members) {
    NodeStack& node = stack(id);
    node.radio = std::make_unique<energy::Radio>(sim, radio_params);
    node.radio->set_trace_id(id);
    // Keyed by node index: a member's MAC stream does not depend on which
    // other nodes are members.
    node.mac = std::make_unique<mac::CsmaMac>(
        sim, channel, *node.radio, id, config.mac_params,
        master.fork(100 + static_cast<std::uint64_t>(id)));
    node.mac->set_rx_handler(
        [this, id](const net::Packet& p) { receive(id, p); });
  }

  // Constructed (and its RNG stream forked) only when faults are configured:
  // Rng::fork is pure, so the conditional fork leaves every other stream's
  // draws untouched and a disabled FaultSpec reproduces the legacy run byte
  // for byte.
  if (config.faults.enabled()) {
    fault_engine = std::make_unique<fault::FaultEngine>(
        sim,
        fault::FaultEngineParams{config.faults, n, root, members, setup_end,
                                 measure_start, measure_end},
        master.fork(7));
  }
  policy = make_power_manager(config.protocol.name);

  repair.set_policy(*parent_policy);
  repair.set_tracer(&sim);
  if (fault_engine) {
    fault_engine->set_crash_callback([this](net::NodeId id) { teardown_node(id); });
    fault_engine->set_restart_callback([this](net::NodeId id) { restart_node(id); });
    // Rejoin retries ride a bounded exponential backoff with deterministic
    // jitter from stream 8 (forked only here — see the engine note above).
    repair.enable_retries(sim, master.fork(8),
                          routing::RepairService::RetryParams{},
                          [this](net::NodeId m) { return alive(m); });
    repair.set_rejoin_callback([this](net::NodeId id) { on_rejoin(id); });
  }

  // Phase plan: the stacks start on the finished tree, and the workload is
  // drawn at the setup boundary.
  build_stacks();
  sim.schedule_at(setup_end, [this] { register_queries(); });
  if (topo.time_varying()) {
    sim.schedule_in(topo.mobility_epoch(), [this] { mobility_tick(); });
  }
  sim.schedule_at(measure_start, [this] {
    for (NodeStack& node : nodes) {
      if (node.radio) node.radio->begin_measurement();
    }
  });
  // Fault schedule: started last, so a same-time churn event (offset zero)
  // fires after the setup-boundary query registration.
  if (fault_engine) fault_engine->start();
}

Trial::Trial(const ScenarioConfig& config)
    : impl_{std::make_unique<Impl>(config)} {}

Trial::~Trial() = default;

util::Time Trial::measure_end() const { return impl_->measure_end; }

void Trial::advance_to(util::Time t) {
  if (t > impl_->measure_end) {
    throw std::invalid_argument{"Trial::advance_to: past the measurement window"};
  }
  impl_->sim.run_until(t);
}

void Trial::save_state(snap::Serializer& out) const { impl_->save_state(out); }

RunMetrics Trial::finish() {
  impl_->sim.run_until(impl_->measure_end);
  impl_->export_traces();
  return impl_->collect();
}

RunMetrics run_scenario(const ScenarioConfig& config) {
  return Trial{config}.finish();
}

RunMetrics run_scenario(const ScenarioConfig& config,
                        const snap::TrialHookSpec& hook) {
  Trial trial{config};
  if (hook.enabled) {
    trial.advance_to(hook.at);
    hook.hook(trial);
  }
  return trial.finish();
}

}  // namespace essat::harness
