#include "src/snap/packet_codec.h"

namespace essat::snap {
namespace {

struct PayloadSaver {
  Serializer& out;

  void operator()(const std::monostate&) { out.u8(0); }
  void operator()(const net::DataHeader& h) {
    out.u8(1);
    out.i32(h.query);
    out.i64(h.epoch);
    out.i32(h.origin);
    out.u32(h.app_seq);
    out.i32(h.contributions);
    out.boolean(h.pass_through);
    out.boolean(h.phase_update.has_value());
    out.time(h.phase_update.value_or(util::Time::zero()));
  }
  void operator()(const net::AtimHeader& h) {
    out.u8(2);
    out.u64(h.destinations.size());
    for (net::NodeId d : h.destinations) out.i32(d);
  }
  void operator()(const net::PhaseRequestHeader& h) {
    out.u8(3);
    out.i32(h.query);
  }
};

}  // namespace

void save_packet(Serializer& out, const net::Packet& p) {
  out.u8(static_cast<std::uint8_t>(p.type));
  out.i32(p.link_src);
  out.i32(p.link_dst);
  out.i32(p.size_bytes);
  out.u32(p.mac_seq);
  out.u64(p.channel_tx_id);
  out.u64(p.prov);
  std::visit(PayloadSaver{out}, p.payload);
}

}  // namespace essat::snap
