#include "src/snap/config_codec.h"

#include "src/harness/scenario.h"
#include "src/snap/serializer.h"

namespace essat::snap {
namespace {

void save_workload(Serializer& out, const harness::WorkloadSpec& w) {
  out.f64(w.base_rate_hz);
  out.i32(w.queries_per_class);
  out.time(w.query_start_window);
  out.u64(w.extra_queries.size());
  for (const query::Query& q : w.extra_queries) {
    out.i32(q.id);
    out.time(q.period);
    out.time(q.phase);
    out.i32(q.query_class);
  }
}

harness::WorkloadSpec load_workload(Deserializer& in) {
  harness::WorkloadSpec w;
  w.base_rate_hz = in.f64();
  w.queries_per_class = in.i32();
  w.query_start_window = in.time();
  const std::uint64_t n = in.u64();
  w.extra_queries.resize(static_cast<std::size_t>(n));
  for (query::Query& q : w.extra_queries) {
    q.id = in.i32();
    q.period = in.time();
    q.phase = in.time();
    q.query_class = in.i32();
  }
  return w;
}

void save_deployment(Serializer& out, const net::DeploymentSpec& d) {
  out.u8(static_cast<std::uint8_t>(d.kind));
  out.i32(d.num_nodes);
  out.f64(d.area_m);
  out.f64(d.range_m);
  out.f64(d.max_tree_dist_m);
  out.i32(d.clusters);
  out.f64(d.cluster_sigma_m);
  out.f64(d.corridor_width_m);
}

net::DeploymentSpec load_deployment(Deserializer& in) {
  net::DeploymentSpec d;
  d.kind = static_cast<net::TopologyKind>(in.u8());
  d.num_nodes = in.i32();
  d.area_m = in.f64();
  d.range_m = in.f64();
  d.max_tree_dist_m = in.f64();
  d.clusters = in.i32();
  d.cluster_sigma_m = in.f64();
  d.corridor_width_m = in.f64();
  return d;
}

void save_channel_model(Serializer& out, const net::ChannelModelSpec& m) {
  out.u8(static_cast<std::uint8_t>(m.kind));
  out.f64(m.prr_scale);
  out.f64(m.shadowing.path_loss_exponent);
  out.f64(m.shadowing.shadowing_sigma_db);
  out.f64(m.shadowing.gray_zone_width_db);
  out.f64(m.shadowing.range_margin_db);
  out.f64(m.gilbert.p_good_to_bad);
  out.f64(m.gilbert.p_bad_to_good);
  out.f64(m.gilbert.prr_good);
  out.f64(m.gilbert.prr_bad);
  out.u8(static_cast<std::uint8_t>(m.gilbert_base));
  out.u64(m.prr_trace.size());
  for (const net::PrrTraceEntry& e : m.prr_trace) {
    out.i32(e.src);
    out.i32(e.dst);
    out.f64(e.prr);
  }
  out.f64(m.prr_trace_default);
}

net::ChannelModelSpec load_channel_model(Deserializer& in) {
  net::ChannelModelSpec m;
  m.kind = static_cast<net::LinkModelKind>(in.u8());
  m.prr_scale = in.f64();
  m.shadowing.path_loss_exponent = in.f64();
  m.shadowing.shadowing_sigma_db = in.f64();
  m.shadowing.gray_zone_width_db = in.f64();
  m.shadowing.range_margin_db = in.f64();
  m.gilbert.p_good_to_bad = in.f64();
  m.gilbert.p_bad_to_good = in.f64();
  m.gilbert.prr_good = in.f64();
  m.gilbert.prr_bad = in.f64();
  m.gilbert_base = static_cast<net::LinkModelKind>(in.u8());
  m.prr_trace.resize(static_cast<std::size_t>(in.u64()));
  for (net::PrrTraceEntry& e : m.prr_trace) {
    e.src = in.i32();
    e.dst = in.i32();
    e.prr = in.f64();
  }
  m.prr_trace_default = in.f64();
  return m;
}

void save_channel_params(Serializer& out, const net::ChannelParams& p) {
  out.time(p.propagation_delay);
  out.f64(p.capture_distance_ratio);
  out.u64(p.dense_link_stats_below);
  out.boolean(p.sinr.enabled);
  out.f64(p.sinr.tx_power_dbm);
  out.f64(p.sinr.path_loss_exponent);
  out.f64(p.sinr.reference_loss_db);
  out.f64(p.sinr.noise_dbm);
  out.f64(p.sinr.capture_threshold_db);
  out.f64(p.sinr.min_snr_db);
}

net::ChannelParams load_channel_params(Deserializer& in) {
  net::ChannelParams p;
  p.propagation_delay = in.time();
  p.capture_distance_ratio = in.f64();
  p.dense_link_stats_below = static_cast<std::size_t>(in.u64());
  p.sinr.enabled = in.boolean();
  p.sinr.tx_power_dbm = in.f64();
  p.sinr.path_loss_exponent = in.f64();
  p.sinr.reference_loss_db = in.f64();
  p.sinr.noise_dbm = in.f64();
  p.sinr.capture_threshold_db = in.f64();
  p.sinr.min_snr_db = in.f64();
  return p;
}

void save_faults(Serializer& out, const fault::FaultSpec& f) {
  out.u64(f.churn.scheduled.size());
  for (const fault::ChurnEvent& ev : f.churn.scheduled) {
    out.i32(ev.node);
    out.time(ev.at);
    out.time(ev.down_for);
  }
  out.f64(f.churn.node_fraction);
  out.f64(f.churn.mean_downtime_s);
  out.boolean(f.churn.restart);
  out.f64(f.battery.budget_mj);
  out.f64(f.battery.jitter_frac);
  out.time(f.battery.check_period);
  out.f64(f.drift.skew_sigma_ppm);
  out.f64(f.drift.max_offset_ms);
}

fault::FaultSpec load_faults(Deserializer& in) {
  fault::FaultSpec f;
  f.churn.scheduled.resize(static_cast<std::size_t>(in.u64()));
  for (fault::ChurnEvent& ev : f.churn.scheduled) {
    ev.node = in.i32();
    ev.at = in.time();
    ev.down_for = in.time();
  }
  f.churn.node_fraction = in.f64();
  f.churn.mean_downtime_s = in.f64();
  f.churn.restart = in.boolean();
  f.battery.budget_mj = in.f64();
  f.battery.jitter_frac = in.f64();
  f.battery.check_period = in.time();
  f.drift.skew_sigma_ppm = in.f64();
  f.drift.max_offset_ms = in.f64();
  return f;
}

void save_mobility(Serializer& out, const net::MobilitySpec& m) {
  out.u8(static_cast<std::uint8_t>(m.kind));
  out.f64(m.waypoint.speed_min_mps);
  out.f64(m.waypoint.speed_max_mps);
  out.f64(m.waypoint.pause_s);
  out.f64(m.epoch_s);
  out.u64(m.traces.size());
  for (const net::WaypointTrace& t : m.traces) {
    out.i32(t.node);
    out.u64(t.points.size());
    for (const auto& [when, pos] : t.points) {
      out.time(when);
      out.f64(pos.x);
      out.f64(pos.y);
    }
  }
}

net::MobilitySpec load_mobility(Deserializer& in) {
  net::MobilitySpec m;
  m.kind = static_cast<net::MobilityKind>(in.u8());
  m.waypoint.speed_min_mps = in.f64();
  m.waypoint.speed_max_mps = in.f64();
  m.waypoint.pause_s = in.f64();
  m.epoch_s = in.f64();
  m.traces.resize(static_cast<std::size_t>(in.u64()));
  for (net::WaypointTrace& t : m.traces) {
    t.node = in.i32();
    t.points.resize(static_cast<std::size_t>(in.u64()));
    for (auto& [when, pos] : t.points) {
      when = in.time();
      pos.x = in.f64();
      pos.y = in.f64();
    }
  }
  return m;
}

void save_routing(Serializer& out, const routing::RoutingSpec& r) {
  out.str(r.policy);
  out.f64(r.etx.prior_weight);
  out.f64(r.etx.min_prr);
  out.f64(r.etx.max_link_etx);
}

routing::RoutingSpec load_routing(Deserializer& in) {
  routing::RoutingSpec r;
  r.policy = in.str();
  r.etx.prior_weight = in.f64();
  r.etx.min_prr = in.f64();
  r.etx.max_link_etx = in.f64();
  return r;
}

void save_mac_params(Serializer& out, const mac::MacParams& p) {
  out.time(p.slot);
  out.time(p.difs);
  out.time(p.sifs);
  out.time(p.phy_overhead);
  out.f64(p.bandwidth_bps);
  out.i32(p.cw_min);
  out.i32(p.cw_max);
  out.i32(p.initial_data_cw);
  out.i32(p.max_attempts);
  out.time(p.ack_timeout_slack);
  out.u64(p.dense_dup_table_below);
}

mac::MacParams load_mac_params(Deserializer& in) {
  mac::MacParams p;
  p.slot = in.time();
  p.difs = in.time();
  p.sifs = in.time();
  p.phy_overhead = in.time();
  p.bandwidth_bps = in.f64();
  p.cw_min = in.i32();
  p.cw_max = in.i32();
  p.initial_data_cw = in.i32();
  p.max_attempts = in.i32();
  p.ack_timeout_slack = in.time();
  p.dense_dup_table_below = static_cast<std::size_t>(in.u64());
  return p;
}

// Everything except TraceSpec::sink, which is a process-local callback and
// is left default-constructed on load.
void save_trace(Serializer& out, const obs::TraceSpec& t) {
  out.boolean(t.enabled);
  out.u64(t.buffer_cap);
  out.u64(t.type_mask);
  out.u64(t.nodes.size());
  for (std::int32_t n : t.nodes) out.i32(n);
  out.time(t.begin);
  out.time(t.end);
  out.time(t.sample_period);
  out.u64(t.series_cap);
  out.boolean(t.only_seed.has_value());
  out.u64(t.only_seed.value_or(0));
  out.str(t.perfetto_path);
  out.str(t.jsonl_path);
}

obs::TraceSpec load_trace(Deserializer& in) {
  obs::TraceSpec t;
  t.enabled = in.boolean();
  t.buffer_cap = static_cast<std::size_t>(in.u64());
  t.type_mask = in.u64();
  t.nodes.resize(static_cast<std::size_t>(in.u64()));
  for (std::int32_t& n : t.nodes) n = in.i32();
  t.begin = in.time();
  t.end = in.time();
  t.sample_period = in.time();
  t.series_cap = static_cast<std::size_t>(in.u64());
  const bool has_only_seed = in.boolean();
  const std::uint64_t only_seed = in.u64();
  if (has_only_seed) t.only_seed = only_seed;
  t.perfetto_path = in.str();
  t.jsonl_path = in.str();
  return t;
}

}  // namespace

void save_scenario_config(Serializer& out, const harness::ScenarioConfig& c) {
  out.begin("SCFG");
  out.str(c.protocol.name);
  save_deployment(out, c.deployment);
  save_workload(out, c.workload);
  save_channel_model(out, c.channel_model);
  save_channel_params(out, c.channel_params);
  save_mobility(out, c.mobility);
  save_routing(out, c.routing);
  out.time(c.setup_duration);
  out.time(c.measure_duration);
  out.time(c.latency_grace);
  out.time(c.t_be);
  out.boolean(c.sts_deadline.has_value());
  out.time(c.sts_deadline.value_or(util::Time::zero()));
  out.time(c.dts_t_to);
  out.time(c.t_comp);
  save_mac_params(out, c.mac_params);
  out.boolean(c.use_distributed_setup);
  out.boolean(c.enable_maintenance);
  save_trace(out, c.trace);
  save_faults(out, c.faults);
  out.u64(c.seed);
  out.end();
}

harness::ScenarioConfig load_scenario_config(Deserializer& in) {
  in.enter("SCFG");
  harness::ScenarioConfig c;
  c.protocol = harness::ProtocolKey{in.str()};
  c.deployment = load_deployment(in);
  c.workload = load_workload(in);
  c.channel_model = load_channel_model(in);
  c.channel_params = load_channel_params(in);
  c.mobility = load_mobility(in);
  c.routing = load_routing(in);
  c.setup_duration = in.time();
  c.measure_duration = in.time();
  c.latency_grace = in.time();
  c.t_be = in.time();
  const bool has_deadline = in.boolean();
  const util::Time deadline = in.time();
  if (has_deadline) c.sts_deadline = deadline;
  c.dts_t_to = in.time();
  c.t_comp = in.time();
  c.mac_params = load_mac_params(in);
  c.use_distributed_setup = in.boolean();
  c.enable_maintenance = in.boolean();
  c.trace = load_trace(in);
  c.faults = load_faults(in);
  c.seed = in.u64();
  in.finish();
  return c;
}

std::vector<std::uint8_t> scenario_config_to_bytes(
    const harness::ScenarioConfig& config) {
  Serializer out;
  save_scenario_config(out, config);
  return out.take();
}

harness::ScenarioConfig scenario_config_from_bytes(const std::uint8_t* data,
                                                   std::size_t size) {
  Deserializer in(data, size);
  return load_scenario_config(in);
}

}  // namespace essat::snap
