// Packet formats for every protocol in the library.
//
// A Packet carries one typed header selected by `type`. Sizes are modelled
// (not serialized): `size_bytes` is what the channel charges for airtime.
// The paper encapsulates each data report in a single 52-byte packet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "src/net/types.h"
#include "src/util/small_vector.h"
#include "src/util/time.h"

namespace essat::net {

enum class PacketType : std::uint8_t {
  kData,          // aggregated data report (query service)
  kAck,           // MAC-level acknowledgement
  kAtim,          // PSM traffic announcement
  kPhaseRequest,  // DTS resynchronization request (§4.3)
};

// Data-report header. One per aggregated report; also used for late
// pass-through forwards of a child's report.
struct DataHeader {
  QueryId query = kNoQuery;
  std::int64_t epoch = -1;
  NodeId origin = kNoNode;      // node whose aggregate this is
  std::uint32_t app_seq = 0;    // per-(link, query) sequence, for loss detection
  int contributions = 1;        // number of source readings folded in
  bool pass_through = false;    // forwarded after the local aggregate was sent
  // DTS piggyback: the sender's expected send time of its NEXT report
  // (s(k+1)), advertised only on a phase shift or on request (§4.2.3).
  std::optional<util::Time> phase_update;
};

// ATIM destination lists are usually a few pending-traffic neighbors;
// inline storage keeps the whole Packet allocation-free to copy/move, so
// the zero-copy delivery path and the event queue's inline captures hold.
using AtimDestinations = util::SmallVector<NodeId, 8>;

struct AtimHeader {
  AtimDestinations destinations;  // neighbors with buffered traffic
};

struct PhaseRequestHeader {
  QueryId query = kNoQuery;
};

struct Packet {
  PacketType type = PacketType::kData;
  // MAC (one-hop) addressing. kBroadcastAddr means no ACK is expected.
  NodeId link_src = kNoNode;
  NodeId link_dst = kBroadcastAddr;
  int size_bytes = kDataReportBytes;
  std::uint32_t mac_seq = 0;       // set by the MAC, for duplicate suppression
  std::uint64_t channel_tx_id = 0; // set by the Channel, unique per transmission
  // Provenance id for packet-lifecycle tracing: assigned by the QueryAgent
  // when a report is created ((origin+1) << 32 | per-node counter), carried
  // unchanged through the MAC, the pooled channel frame, and pass-through
  // forwarding. 0 = untracked (control frames, ACKs).
  std::uint64_t prov = 0;

  std::variant<std::monostate, DataHeader, AtimHeader, PhaseRequestHeader>
      payload;

  // Paper §5: "each data report is encapsulated in a single packet of 52
  // bytes".
  static constexpr int kDataReportBytes = 52;
  static constexpr int kAckBytes = 14;
  static constexpr int kControlBytes = 20;

  const DataHeader& data() const { return std::get<DataHeader>(payload); }
  DataHeader& data() { return std::get<DataHeader>(payload); }
  const AtimHeader& atim() const { return std::get<AtimHeader>(payload); }
  const PhaseRequestHeader& phase_request() const {
    return std::get<PhaseRequestHeader>(payload);
  }

  bool is_broadcast() const { return link_dst == kBroadcastAddr; }
};

// Factory helpers keep call sites terse and sizes consistent.
Packet make_data_packet(NodeId src, NodeId dst, DataHeader header);
Packet make_atim_packet(NodeId src, AtimDestinations destinations);
Packet make_phase_request_packet(NodeId src, NodeId dst, QueryId query);

const char* packet_type_name(PacketType t);

}  // namespace essat::net
