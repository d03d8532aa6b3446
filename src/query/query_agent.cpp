#include "src/query/query_agent.h"

#include <algorithm>

#include "src/snap/serializer.h"
#include "src/snap/timer_codec.h"

namespace essat::query {

QueryAgent::QueryAgent(sim::Simulator& sim, mac::CsmaMac& mac,
                       const routing::Tree& tree, net::NodeId self,
                       TrafficShaper& shaper, QueryAgentParams params)
    : sim_{sim}, mac_{mac}, tree_{tree}, self_{self}, shaper_{shaper}, params_{params} {}

void QueryAgent::register_query(const Query& q) {
  if (halted_ || !tree_.is_member(self_)) return;
  auto [it, inserted] = queries_.try_emplace(q.id);
  if (!inserted) return;  // duplicate dissemination
  it->second.q = q;
  shaper_.register_query(q);
  ensure_epoch_(it->second, 0);
}

void QueryAgent::register_query_from(const Query& q, std::int64_t first_epoch) {
  if (halted_ || !tree_.is_member(self_)) return;
  auto [it, inserted] = queries_.try_emplace(q.id);
  if (!inserted) return;
  it->second.q = q;
  // Epochs before the restart are water under the bridge: marking them
  // finalized keeps ensure_epoch_ (and late straggler data) from reopening
  // history this reborn node never participated in.
  it->second.watermark = first_epoch - 1;
  shaper_.register_query(q);
  ensure_epoch_(it->second, first_epoch);
}

QueryAgent::EpochState* QueryAgent::acquire_epoch_(QueryState& qs,
                                                   std::int64_t k) {
  EpochState* es;
  if (!free_.empty()) {
    es = free_.back();
    free_.pop_back();
  } else {
    records_.push_back(std::make_unique<EpochState>(sim_));
    es = records_.back().get();
  }
  es->k = k;
  es->pending.clear();
  es->contributions = 0;
  es->finalizing = false;
  qs.open.push_back(es);
  return es;
}

void QueryAgent::close_epoch_(QueryState& qs, EpochState* es) {
  es->deadline.cancel();
  es->send.cancel();
  es->pending.clear();
  for (std::size_t i = 0; i < qs.open.size(); ++i) {
    if (qs.open[i] == es) {
      qs.open[i] = qs.open.back();
      qs.open.pop_back();
      break;
    }
  }
  free_.push_back(es);
}

void QueryAgent::ensure_epoch_(QueryState& qs, std::int64_t k) {
  if (halted_) return;
  if (k <= qs.watermark || find_epoch_(qs, k) != nullptr) return;
  ESSAT_TRACE(sim_, obs::TraceType::kEpochStart, self_,
              static_cast<std::uint16_t>(qs.q.id), 0,
              static_cast<std::uint64_t>(k));
  EpochState& es = *acquire_epoch_(qs, k);
  for (net::NodeId c : tree_.children(self_)) es.pending.push_back(c);

  if (es.pending.empty()) {
    // Leaf (or childless interior node): its reading is available at the
    // epoch start; the shaper decides when the report actually goes out.
    schedule_send_(qs, k, es, /*contributions=*/1, qs.q.epoch_start(k));
    return;
  }
  es.deadline.arm_at(shaper_.aggregation_deadline(qs.q, k),
                     [this, &qs, k] { finalize_(qs, k); });
}

void QueryAgent::finalize_(QueryState& qs, std::int64_t k) {
  EpochState* es = find_epoch_(qs, k);
  if (es == nullptr || halted_) return;
  if (es->finalizing) return;  // hook re-entered us for the same epoch
  es->finalizing = true;
  es->deadline.cancel();

  // Detach the missing-children set before firing hooks: the child-miss
  // hook can trigger topology repair, which calls back into this agent
  // (child_removed / rank_changed) while we are still on the stack.
  // Sorted ascending — the order the legacy std::set iterated in, which
  // downstream repair hooks observe.
  std::vector<net::NodeId> missing(es->pending.begin(), es->pending.end());
  std::sort(missing.begin(), missing.end());
  es->pending.clear();
  if (!missing.empty()) {
    ++stats_.partial_finalizes;
    for (net::NodeId c : missing) {
      ++stats_.child_timeouts;
      shaper_.on_child_timeout(qs.q, k, c);
      if (child_miss_) child_miss_(c, k);
    }
  }

  // The hooks may have halted us or restructured the open-epoch list (the
  // record may even have been recycled); re-resolve by epoch number.
  if (halted_) return;
  es = find_epoch_(qs, k);
  if (es == nullptr) return;

  const int contributions = es->contributions + 1;  // fold in our own reading
  if (self_ == tree_.root()) {
    // The root is the sink: close the epoch and keep the chain alive.
    qs.watermark = std::max(qs.watermark, k);
    close_epoch_(qs, es);
    ensure_epoch_(qs, k + 1);
    return;
  }
  schedule_send_(qs, k, *es, contributions, sim_.now() + params_.t_comp);
}

void QueryAgent::schedule_send_(QueryState& qs, std::int64_t k, EpochState& es,
                                int contributions, util::Time ready) {
  const auto plan = shaper_.plan_send(qs.q, k, ready);
  // The send can already be overdue: a node opens epoch k + 1 only when its
  // epoch-k report goes out. If that report waited past the start of k + 1
  // for a crashed child until repair removed it, the node is now a leaf
  // whose k + 1 reading was ready in the past. Send it now.
  es.send.arm_at(std::max(plan.send_at, sim_.now()),
                 [this, &qs, k, contributions, update = plan.phase_update] {
                   submit_report_(qs, k, contributions, update);
                 });
}

void QueryAgent::submit_report_(QueryState& qs, std::int64_t k, int contributions,
                                std::optional<util::Time> phase_update) {
  if (halted_) return;
  shaper_.on_report_sent(qs.q, k, sim_.now());

  const net::NodeId parent = tree_.parent(self_);
  if (parent != net::kNoNode) {
    net::DataHeader h;
    h.query = qs.q.id;
    h.epoch = k;
    h.origin = self_;
    h.app_seq = ++qs.my_app_seq;
    h.contributions = contributions;
    h.phase_update = phase_update;
    net::Packet pkt = net::make_data_packet(self_, parent, h);
    pkt.prov = static_cast<std::uint64_t>(self_ + 1) << 32 | ++prov_seq_;
    ESSAT_TRACE(sim_, obs::TraceType::kReportSubmit, self_,
                static_cast<std::uint16_t>(qs.q.id), pkt.prov,
                static_cast<std::uint64_t>(k));
    mac_.send(std::move(pkt), [this, parent](bool ok) {
      if (!ok) ++stats_.send_failures;
      if (send_result_) send_result_(parent, ok);
    });
    ++stats_.reports_sent;
  }

  qs.watermark = std::max(qs.watermark, k);
  if (EpochState* es = find_epoch_(qs, k)) close_epoch_(qs, es);
  ensure_epoch_(qs, k + 1);
}

void QueryAgent::handle_packet(const net::Packet& p) {
  if (halted_) return;
  switch (p.type) {
    case net::PacketType::kData:
      handle_data_(p);
      break;
    case net::PacketType::kPhaseRequest:
      shaper_.on_phase_request(p.phase_request().query);
      break;
    default:
      break;
  }
}

void QueryAgent::handle_data_(const net::Packet& p) {
  const net::DataHeader& h = p.data();
  auto qit = queries_.find(h.query);
  if (qit == queries_.end()) return;  // query unknown here (not registered)
  QueryState& qs = qit->second;
  ++stats_.reports_received;

  const net::NodeId child = p.link_src;
  const bool from_current_child =
      std::find(tree_.children(self_).begin(), tree_.children(self_).end(), child) !=
      tree_.children(self_).end();

  if (!h.pass_through && from_current_child) {
    // Sequence-gap detection for DTS resynchronization (§4.3): a lost report
    // may have carried a phase update; if this one doesn't re-advertise,
    // ask for the phase explicitly.
    auto [sit, first] = qs.last_app_seq.try_emplace(child, h.app_seq);
    if (!first) {
      const bool gap = h.app_seq > sit->second + 1;
      sit->second = std::max(sit->second, h.app_seq);
      if (gap && !h.phase_update.has_value() &&
          shaper_.wants_phase_request_on_loss()) {
        ++stats_.phase_requests_sent;
        mac_.send(net::make_phase_request_packet(self_, child, h.query));
      }
    }
    shaper_.on_report_received(qs.q, h.epoch, child, h.phase_update);
    if (child_heard_) child_heard_(child);
  }

  if (self_ == tree_.root()) {
    ESSAT_TRACE(sim_, obs::TraceType::kRootDeliver, self_,
                static_cast<std::uint16_t>(h.contributions), p.prov,
                static_cast<std::uint64_t>(h.epoch));
    if (root_arrival_) root_arrival_(qs.q, h.epoch, sim_.now(), h.contributions);
  }

  if (h.pass_through || closed_(qs, h.epoch)) {
    // Too late for aggregation here; relay toward the root.
    if (!h.pass_through) ++stats_.late_reports;
    forward_pass_through_(p);
    return;
  }

  ensure_epoch_(qs, h.epoch);
  EpochState* esp = find_epoch_(qs, h.epoch);
  if (esp == nullptr) return;  // epoch closed by a racing finalize
  EpochState& es = *esp;
  bool was_pending = false;
  for (std::size_t i = 0; i < es.pending.size(); ++i) {
    if (es.pending[i] == child) {
      es.pending[i] = es.pending.back();
      es.pending.pop_back();
      was_pending = true;
      break;
    }
  }
  if (!was_pending) {
    // Duplicate or non-child source for an open epoch: forward, don't merge.
    forward_pass_through_(p);
    return;
  }
  // Aggregation boundary: this child report's provenance ends here and the
  // epoch's own kReportSubmit (same node/query/epoch) continues the chain.
  ESSAT_TRACE(sim_, obs::TraceType::kReportFold, self_,
              static_cast<std::uint16_t>(h.query), p.prov,
              static_cast<std::uint64_t>(h.epoch));
  es.contributions += h.contributions;
  if (es.pending.empty()) finalize_(qs, h.epoch);
}

void QueryAgent::forward_pass_through_(const net::Packet& p) {
  if (self_ == tree_.root()) return;  // already delivered via the hook
  const net::NodeId parent = tree_.parent(self_);
  if (parent == net::kNoNode) return;
  net::DataHeader h = p.data();
  h.pass_through = true;
  h.phase_update.reset();  // phase updates are hop-local
  ++stats_.pass_through_forwarded;
  net::Packet fwd = net::make_data_packet(self_, parent, h);
  fwd.prov = p.prov;  // same report, next hop: provenance rides along
  mac_.send(std::move(fwd));
}

void QueryAgent::child_removed(net::NodeId child) {
  for (auto& [qid, qs] : queries_) {
    shaper_.on_child_removed(qs.q, child);
    qs.last_app_seq.erase(child);
    // Collect epochs that become complete once the child stops being
    // awaited; finalize after the loop (finalize_ mutates qs.open), in
    // ascending epoch order — the order the legacy ordered map walked.
    std::vector<std::int64_t> ready;
    for (EpochState* es : qs.open) {
      bool erased = false;
      for (std::size_t i = 0; i < es->pending.size(); ++i) {
        if (es->pending[i] == child) {
          es->pending[i] = es->pending.back();
          es->pending.pop_back();
          erased = true;
          break;
        }
      }
      // A pending set only ever becomes non-empty at epoch open, so an
      // erase that drains it implies the aggregation deadline is armed.
      if (erased && es->pending.empty()) ready.push_back(es->k);
    }
    std::sort(ready.begin(), ready.end());
    for (std::int64_t k : ready) finalize_(qs, k);
  }
}

void QueryAgent::child_added(net::NodeId child) {
  for (auto& [qid, qs] : queries_) {
    shaper_.on_child_added(qs.q, child);
    // Open epochs keep their snapshot; the child joins from the next one.
  }
}

void QueryAgent::parent_changed() {
  for (auto& [qid, qs] : queries_) shaper_.on_parent_changed(qs.q);
}

void QueryAgent::rank_changed() {
  for (auto& [qid, qs] : queries_) shaper_.on_rank_changed(qs.q);
}

void QueryAgent::halt() {
  halted_ = true;
  for (auto& [qid, qs] : queries_) {
    for (EpochState* es : qs.open) {  // cancel all timers, recycle records
      es->deadline.cancel();
      es->send.cancel();
      es->pending.clear();
      free_.push_back(es);
    }
    qs.open.clear();
  }
}

void QueryAgent::save_state(snap::Serializer& out) const {
  out.begin("QAGT");
  out.u64(queries_.size());
  for (const auto& [qid, qs] : queries_) {  // std::map: key order
    out.i32(qid);
    out.i32(qs.q.id);
    out.time(qs.q.period);
    out.time(qs.q.phase);
    out.i32(qs.q.query_class);
    out.u64(qs.open.size());
    for (const EpochState* es : qs.open) {
      out.i64(es->k);
      out.u64(es->pending.size());
      for (net::NodeId c : es->pending) out.i32(c);
      out.i32(es->contributions);
      out.boolean(es->finalizing);
      snap::save_timer(out, es->deadline);
      snap::save_timer(out, es->send);
    }
    out.i64(qs.watermark);
    out.u64(qs.last_app_seq.size());
    for (const auto& [child, seq] : qs.last_app_seq) {
      out.i32(child);
      out.u32(seq);
    }
    out.u32(qs.my_app_seq);
  }
  out.u64(records_.size());
  out.u64(free_.size());
  out.boolean(halted_);
  out.u64(prov_seq_);
  out.u64(stats_.reports_sent);
  out.u64(stats_.reports_received);
  out.u64(stats_.pass_through_forwarded);
  out.u64(stats_.send_failures);
  out.u64(stats_.partial_finalizes);
  out.u64(stats_.child_timeouts);
  out.u64(stats_.phase_requests_sent);
  out.u64(stats_.late_reports);
  out.end();
}

}  // namespace essat::query
