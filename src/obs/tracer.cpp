#include "src/obs/tracer.h"

#include <algorithm>

namespace essat::obs {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* trace_type_name(TraceType t) {
  switch (t) {
    case TraceType::kEvPush: return "ev_push";
    case TraceType::kEvPop: return "ev_pop";
    case TraceType::kEvCancel: return "ev_cancel";
    case TraceType::kEvRearm: return "ev_rearm";
    case TraceType::kRadioState: return "radio_state";
    case TraceType::kMacEnqueue: return "mac_enqueue";
    case TraceType::kMacBackoffStart: return "mac_backoff_start";
    case TraceType::kMacCcaDefer: return "mac_cca_defer";
    case TraceType::kMacTxAttempt: return "mac_tx_attempt";
    case TraceType::kMacRetry: return "mac_retry";
    case TraceType::kMacSendOk: return "mac_send_ok";
    case TraceType::kMacSendFail: return "mac_send_fail";
    case TraceType::kMacAckTx: return "mac_ack_tx";
    case TraceType::kMacRxDeliver: return "mac_rx_deliver";
    case TraceType::kMacRxDup: return "mac_rx_dup";
    case TraceType::kChanTxBegin: return "chan_tx_begin";
    case TraceType::kChanDeliver: return "chan_deliver";
    case TraceType::kChanDrop: return "chan_drop";
    case TraceType::kEpochStart: return "epoch_start";
    case TraceType::kReportSubmit: return "report_submit";
    case TraceType::kReportFold: return "report_fold";
    case TraceType::kRootDeliver: return "root_deliver";
    case TraceType::kParentChange: return "parent_change";
    case TraceType::kSleepStart: return "sleep_start";
    case TraceType::kSleepSkip: return "sleep_skip";
    case TraceType::kChanListen: return "chan_listen";
    case TraceType::kFaultDown: return "fault_down";
    case TraceType::kFaultUp: return "fault_up";
    case TraceType::kCount: break;
  }
  return "?";
}

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kCollision: return "collision";
    case DropReason::kCaptured: return "captured";
    case DropReason::kModel: return "model";
    case DropReason::kBusy: return "busy";
    case DropReason::kSelfTx: return "self_tx";
    case DropReason::kRadioOff: return "radio_off";
    case DropReason::kAbandoned: return "abandoned";
    case DropReason::kDetached: return "detached";
  }
  return "?";
}

Tracer::Tracer(const TraceSpec& spec)
    : ring_(round_up_pow2(std::max<std::size_t>(spec.buffer_cap, 64))),
      mask_(ring_.size() - 1),
      type_mask_(spec.type_mask) {}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;  // oldest retained record
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) & mask_]);
  }
  return out;
}

}  // namespace essat::obs
