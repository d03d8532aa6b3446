#include "src/snap/config_codec.h"

#include "src/harness/scenario.h"
#include "src/snap/field_codec.h"

namespace essat::snap {

// One field list per struct, in wire order (see field_codec.h).

template <typename IO>
void fields(IO& io, Field<IO, query::Query>& q) {
  io(q.id, q.period, q.phase, q.query_class);
}

template <typename IO>
void fields(IO& io, Field<IO, harness::WorkloadSpec>& w) {
  io(w.base_rate_hz, w.queries_per_class, w.query_start_window,
     w.extra_queries);
}

template <typename IO>
void fields(IO& io, Field<IO, net::DeploymentSpec>& d) {
  io(d.kind, d.num_nodes, d.area_m, d.range_m, d.max_tree_dist_m, d.clusters,
     d.cluster_sigma_m, d.corridor_width_m);
}

template <typename IO>
void fields(IO& io, Field<IO, net::ShadowingParams>& s) {
  io(s.path_loss_exponent, s.shadowing_sigma_db, s.gray_zone_width_db,
     s.range_margin_db);
}

template <typename IO>
void fields(IO& io, Field<IO, net::GilbertElliottParams>& g) {
  io(g.p_good_to_bad, g.p_bad_to_good, g.prr_good, g.prr_bad);
}

template <typename IO>
void fields(IO& io, Field<IO, net::PrrTraceEntry>& e) {
  io(e.src, e.dst, e.prr);
}

template <typename IO>
void fields(IO& io, Field<IO, net::ChannelModelSpec>& m) {
  io(m.kind, m.prr_scale, m.shadowing, m.gilbert, m.gilbert_base, m.prr_trace,
     m.prr_trace_default);
}

template <typename IO>
void fields(IO& io, Field<IO, net::SinrParams>& s) {
  io(s.enabled, s.tx_power_dbm, s.path_loss_exponent, s.reference_loss_db,
     s.noise_dbm, s.capture_threshold_db, s.min_snr_db);
}

template <typename IO>
void fields(IO& io, Field<IO, net::ChannelParams>& p) {
  io(p.propagation_delay, p.capture_distance_ratio, p.dense_link_stats_below,
     p.sinr);
}

template <typename IO>
void fields(IO& io, Field<IO, fault::ChurnEvent>& e) {
  io(e.node, e.at, e.down_for);
}

template <typename IO>
void fields(IO& io, Field<IO, fault::ChurnSpec>& c) {
  io(c.scheduled, c.node_fraction, c.mean_downtime_s, c.restart);
}

template <typename IO>
void fields(IO& io, Field<IO, fault::BatterySpec>& b) {
  io(b.budget_mj, b.jitter_frac, b.check_period);
}

template <typename IO>
void fields(IO& io, Field<IO, fault::DriftSpec>& d) {
  io(d.skew_sigma_ppm, d.max_offset_ms);
}

template <typename IO>
void fields(IO& io, Field<IO, fault::FaultSpec>& f) {
  io(f.churn, f.battery, f.drift);
}

template <typename IO>
void fields(IO& io, Field<IO, net::RandomWaypointParams>& w) {
  io(w.speed_min_mps, w.speed_max_mps, w.pause_s);
}

template <typename IO>
void fields(IO& io, Field<IO, net::Position>& p) {
  io(p.x, p.y);
}

template <typename IO>
void fields(IO& io, Field<IO, net::WaypointTrace>& t) {
  io(t.node, t.points);
}

template <typename IO>
void fields(IO& io, Field<IO, net::MobilitySpec>& m) {
  io(m.kind, m.waypoint, m.epoch_s, m.traces);
}

template <typename IO>
void fields(IO& io, Field<IO, routing::EtxParams>& e) {
  io(e.prior_weight, e.min_prr, e.max_link_etx);
}

template <typename IO>
void fields(IO& io, Field<IO, routing::RoutingSpec>& r) {
  io(r.policy, r.etx);
}

template <typename IO>
void fields(IO& io, Field<IO, mac::MacParams>& p) {
  io(p.slot, p.difs, p.sifs, p.phy_overhead, p.bandwidth_bps, p.cw_min,
     p.cw_max, p.initial_data_cw, p.max_attempts, p.ack_timeout_slack,
     p.dense_dup_table_below);
}

// TraceSpec::sink is a process-local callback: not listed, so it is left
// default-constructed on load.
template <typename IO>
void fields(IO& io, Field<IO, obs::TraceSpec>& t) {
  io(t.enabled, t.buffer_cap, t.type_mask, t.perfetto_path, t.jsonl_path);
}

// `trace` precedes `faults` on the wire, unlike in the struct.
template <typename IO>
void fields(IO& io, Field<IO, harness::ScenarioConfig>& c) {
  io(c.protocol.name, c.deployment, c.workload, c.channel_model,
     c.channel_params, c.mobility, c.routing, c.setup_duration,
     c.measure_duration, c.latency_grace, c.t_be, c.sts_deadline, c.dts_t_to,
     c.t_comp, c.mac_params, c.enable_maintenance, c.trace, c.faults,
     c.seed);
}

void save_scenario_config(Serializer& out, const harness::ScenarioConfig& c) {
  write_section(out, "SCFG", c);
}

harness::ScenarioConfig load_scenario_config(Deserializer& in) {
  return read_section<harness::ScenarioConfig>(in, "SCFG");
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
