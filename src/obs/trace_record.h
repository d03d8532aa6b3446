// Fixed-size structured trace records — the unit of the obs::Tracer ring.
//
// Every record is exactly 32 bytes so a ring of them is a flat, cache-
// friendly array the hot path writes with one store sequence and no
// allocation. The schema below is the contract shared by the conservation
// oracle (obs/lifecycle.h), the exporters (obs/trace_export.h), and the
// offline tooling (tools/trace_summary.py) — keep all four in sync.
//
// Record schema (field meaning by TraceType; `-` means unused/zero):
//
//   type              | node          | arg16              | a            | b
//   ------------------+---------------+--------------------+--------------+------------------
//   kEvPush           | -1            | -                  | event id     | fire time (ns)
//   kEvPop            | -1            | -                  | event id     | -
//   kEvCancel         | -1            | -                  | event id     | -
//   kEvRearm          | -1            | -                  | event id     | new fire time (ns)
//   kRadioState       | node          | prev<<8 | next     | -            | -
//   kMacEnqueue       | node          | packet type        | prov         | link_dst
//   kMacBackoffStart  | node          | backoff slots      | prov         | countdown (ns)
//   kMacCcaDefer      | node          | -                  | prov         | -
//   kMacTxAttempt     | node          | attempt #          | prov         | link_dst
//   kMacRetry         | node          | attempt #          | prov         | -
//   kMacSendOk        | node          | -                  | prov         | -
//   kMacSendFail      | node          | attempts used      | prov         | -
//   kMacAckTx         | node          | -                  | -            | link_dst
//   kMacRxDeliver     | node          | packet type        | prov         | link_src
//   kMacRxDup         | node          | -                  | prov         | link_src
//   kChanTxBegin      | sender        | in-range receivers | channel tx id| prov
//   kChanDeliver      | receiver      | packet type        | channel tx id| prov
//   kChanDrop         | receiver      | reason<<8 | ptype  | channel tx id| prov
//   kEpochStart       | node          | query id           | -            | epoch
//   kReportSubmit     | node          | query id           | prov         | epoch
//   kReportFold       | node          | query id           | child prov   | epoch
//   kRootDeliver      | root          | contributions      | prov         | epoch
//   kParentChange     | node          | -                  | old parent   | new parent
//   kSleepStart       | node          | -                  | wake at (ns) | sleep len (ns)
//   kSleepSkip        | node          | -                  | -            | interval (ns)
//   kChanListen       | node          | 0=deaf, 1=listening| -            | -
//   kFaultDown        | node          | cause (FaultCause) | -            | planned downtime (ns, 0=permanent)
//   kFaultUp          | node          | -                  | downtime (ns)| -
//
// `prov` is the per-report provenance id (net::Packet::prov): assigned when
// a QueryAgent creates a report, carried unchanged through the MAC, the
// pooled channel frame, and pass-through forwarding, so one report's
// hop-by-hop fate (enqueue -> CCA defers -> tx attempts -> rx or
// attributed drop -> forward -> root delivery) is the set of records
// sharing its prov. Aggregation boundaries are stitched with kReportFold:
// the child's prov is folded into the (node, query, epoch) whose own
// kReportSubmit names the next prov in the chain. Control frames (ACKs,
// ATIMs, phase requests) carry prov 0.
#pragma once

#include <cstdint>

#include "src/util/time.h"

namespace essat::obs {

enum class TraceType : std::uint16_t {
  // Event-queue operations (sim/simulator, sim/event_queue).
  kEvPush = 0,
  kEvPop,
  kEvCancel,
  kEvRearm,
  // Radio power-state machine (energy/radio).
  kRadioState,
  // CSMA/CA MAC (mac/csma).
  kMacEnqueue,
  kMacBackoffStart,
  kMacCcaDefer,
  kMacTxAttempt,
  kMacRetry,
  kMacSendOk,
  kMacSendFail,
  kMacAckTx,
  kMacRxDeliver,
  kMacRxDup,
  // Wireless medium (net/channel).
  kChanTxBegin,
  kChanDeliver,
  kChanDrop,
  // Query service (query/query_agent).
  kEpochStart,
  kReportSubmit,
  kReportFold,
  kRootDeliver,
  // Routing (routing/repair).
  kParentChange,
  // Safe Sleep decisions (core/safe_sleep).
  kSleepStart,
  kSleepSkip,
  // Channel-side cached listening flag flipped (net/channel, maintained by
  // the attached MAC through set_listening).
  kChanListen,
  // Fault injection (fault/fault_engine): node goes down / comes back up.
  kFaultDown,
  kFaultUp,
  kCount  // sentinel — keep <= 64 so a type mask fits one word
};
static_assert(static_cast<int>(TraceType::kCount) <= 64,
              "TraceType must fit a 64-bit mask");

// Why a channel frame was not delivered to a receiver (kChanDrop, high byte
// of arg16). Every in-range receiver of every transmission ends with exactly
// one kChanDeliver or one kChanDrop — the conservation invariant
// obs::check_conservation verifies.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kCollision,   // overlapped another frame and neither captured
  kCaptured,    // lost to a stronger in-progress reception (capture effect)
  kModel,       // link model declared the frame undecodable (gray zone)
  kBusy,        // arrived while other energy was on the air, no sync
  kSelfTx,      // receiver was transmitting
  kRadioOff,    // receiver's radio was off / in transition at frame start
  kAbandoned,   // reception started but the radio left ON mid-frame
  kDetached,    // receiver has no listener attached: it has no radio at all
};

struct TraceRecord {
  std::int64_t t_ns = 0;      // simulation timestamp
  std::uint64_t a = 0;        // payload word A (see schema table)
  std::uint64_t b = 0;        // payload word B
  std::int32_t node = -1;     // node id, or -1 for global (event queue)
  std::uint16_t type = 0;     // TraceType
  std::uint16_t arg16 = 0;    // small payload (see schema table)

  static TraceRecord make(TraceType type, util::Time t, std::int32_t node,
                          std::uint16_t arg16, std::uint64_t a,
                          std::uint64_t b) {
    TraceRecord r;
    r.t_ns = t.ns();
    r.a = a;
    r.b = b;
    r.node = node;
    r.type = static_cast<std::uint16_t>(type);
    r.arg16 = arg16;
    return r;
  }

  TraceType trace_type() const { return static_cast<TraceType>(type); }
  // kChanDrop accessors.
  DropReason drop_reason() const {
    return static_cast<DropReason>(arg16 >> 8);
  }
  std::uint8_t packet_type() const { return static_cast<std::uint8_t>(arg16); }
};
static_assert(sizeof(TraceRecord) == 32, "trace records are 32-byte PODs");

const char* trace_type_name(TraceType t);
const char* drop_reason_name(DropReason r);

// Bitmask helpers for TraceSpec::type_mask.
constexpr std::uint64_t trace_bit(TraceType t) {
  return 1ull << static_cast<int>(t);
}
constexpr std::uint64_t kAllTraceTypes = ~0ull;
// The packet-lifecycle subset: everything needed to reconstruct report
// provenance and verify conservation, without the very hot event-queue ops.
constexpr std::uint64_t kPacketLifecycleTypes =
    trace_bit(TraceType::kMacEnqueue) | trace_bit(TraceType::kMacBackoffStart) |
    trace_bit(TraceType::kMacCcaDefer) | trace_bit(TraceType::kMacTxAttempt) |
    trace_bit(TraceType::kMacRetry) | trace_bit(TraceType::kMacSendOk) |
    trace_bit(TraceType::kMacSendFail) | trace_bit(TraceType::kMacAckTx) |
    trace_bit(TraceType::kMacRxDeliver) | trace_bit(TraceType::kMacRxDup) |
    trace_bit(TraceType::kChanTxBegin) | trace_bit(TraceType::kChanDeliver) |
    trace_bit(TraceType::kChanDrop) | trace_bit(TraceType::kEpochStart) |
    trace_bit(TraceType::kReportSubmit) | trace_bit(TraceType::kReportFold) |
    trace_bit(TraceType::kRootDeliver) | trace_bit(TraceType::kParentChange);

}  // namespace essat::obs
