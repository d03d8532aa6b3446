#include "src/snap/metrics_codec.h"

#include "src/snap/field_codec.h"

namespace essat::snap {

template <typename IO>
void fields(IO& io, Field<IO, harness::RunMetrics::NodeDiag>& d) {
  io(d.id, d.rank, d.level, d.leaf, d.duty_cycle, d.reports_sent,
     d.send_failures, d.pass_through, d.child_timeouts, d.retx_no_ack,
     d.cca_busy_defers, d.repair_attempts);
}

template <typename IO>
void fields(IO& io, Field<IO, harness::RunMetrics>& m) {
  io(m.avg_duty_cycle, m.duty_by_rank, m.avg_latency_s, m.p95_latency_s,
     m.max_latency_s, m.delivery_ratio, m.epochs_measured, m.sleep_hist,
     m.frac_sleep_below_2_5ms, m.phase_update_bits_per_report, m.phase_updates,
     m.per_node, m.reports_sent, m.mac_transmissions, m.mac_send_failures,
     m.mac_retx_no_ack, m.mac_cca_busy_defers, m.channel_collisions,
     m.channel_delivered, m.channel_dropped_by_model, m.pass_through_forwarded,
     m.tree_members, m.max_rank, m.backbone_size, m.sim_events,
     m.peak_pending_events, m.node_deaths, m.downtime_s,
     m.delivery_during_fault);
}

void save_run_metrics(Serializer& out, const harness::RunMetrics& m) {
  write_section(out, "RMET", m);
}

std::vector<std::uint8_t> run_metrics_to_bytes(const harness::RunMetrics& m) {
  Serializer out;
  save_run_metrics(out, m);
  return out.take();
}

}  // namespace essat::snap
