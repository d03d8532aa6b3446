#include "src/net/packet.h"

namespace essat::net {

Packet make_data_packet(NodeId src, NodeId dst, DataHeader header) {
  Packet p;
  p.type = PacketType::kData;
  p.link_src = src;
  p.link_dst = dst;
  p.size_bytes = Packet::kDataReportBytes;
  p.payload = std::move(header);
  return p;
}

Packet make_atim_packet(NodeId src, AtimDestinations destinations) {
  Packet p;
  p.type = PacketType::kAtim;
  p.link_src = src;
  p.link_dst = kBroadcastAddr;
  p.size_bytes = Packet::kControlBytes;
  p.payload = AtimHeader{std::move(destinations)};
  return p;
}

Packet make_phase_request_packet(NodeId src, NodeId dst, QueryId query) {
  Packet p;
  p.type = PacketType::kPhaseRequest;
  p.link_src = src;
  p.link_dst = dst;
  p.size_bytes = Packet::kControlBytes;
  p.payload = PhaseRequestHeader{query};
  return p;
}

const char* packet_type_name(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kAtim: return "ATIM";
    case PacketType::kPhaseRequest: return "PHASE_REQ";
  }
  return "?";
}

}  // namespace essat::net
