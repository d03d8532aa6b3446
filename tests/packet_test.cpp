#include <gtest/gtest.h>

#include "src/net/packet.h"

namespace essat::net {
namespace {

TEST(Packet, DataPacketUsesPaperSize) {
  const Packet p = make_data_packet(1, 2, DataHeader{});
  EXPECT_EQ(p.size_bytes, 52);  // §5: 52-byte data reports
  EXPECT_EQ(p.type, PacketType::kData);
  EXPECT_EQ(p.link_src, 1);
  EXPECT_EQ(p.link_dst, 2);
  EXPECT_FALSE(p.is_broadcast());
}

TEST(Packet, DataHeaderRoundTrip) {
  DataHeader h;
  h.query = 3;
  h.epoch = 17;
  h.origin = 9;
  h.contributions = 4;
  h.phase_update = util::Time::seconds(12);
  const Packet p = make_data_packet(9, 2, h);
  EXPECT_EQ(p.data().query, 3);
  EXPECT_EQ(p.data().epoch, 17);
  EXPECT_EQ(p.data().contributions, 4);
  ASSERT_TRUE(p.data().phase_update.has_value());
  EXPECT_EQ(*p.data().phase_update, util::Time::seconds(12));
  EXPECT_FALSE(p.data().pass_through);
}

TEST(Packet, AtimListsDestinations) {
  const Packet p = make_atim_packet(1, {2, 3, 4});
  EXPECT_TRUE(p.is_broadcast());
  EXPECT_EQ(p.size_bytes, Packet::kControlBytes);
  EXPECT_EQ(p.atim().destinations, (AtimDestinations{2, 3, 4}));
}

// The common ATIM case (a handful of pending neighbors) must stay within
// the header's inline storage: a spill would re-introduce a heap
// allocation per Packet copy on the zero-copy delivery path.
TEST(Packet, AtimInlineStorageCoversCommonCase) {
  AtimDestinations dests;
  for (NodeId d = 0; d < static_cast<NodeId>(AtimDestinations::inline_capacity());
       ++d) {
    dests.push_back(d);
  }
  const Packet p = make_atim_packet(1, dests);
  EXPECT_EQ(p.atim().destinations.size(), AtimDestinations::inline_capacity());
  EXPECT_EQ(p.atim().destinations.capacity(), AtimDestinations::inline_capacity());
  // Past the inline capacity the list spills but stays correct.
  AtimDestinations big;
  for (NodeId d = 0; d < 20; ++d) big.push_back(d);
  const Packet q = make_atim_packet(1, big);
  EXPECT_EQ(q.atim().destinations.size(), 20u);
  EXPECT_EQ(q.atim().destinations[19], 19);
}

TEST(Packet, PhaseRequest) {
  const Packet p = make_phase_request_packet(2, 5, 7);
  EXPECT_EQ(p.type, PacketType::kPhaseRequest);
  EXPECT_EQ(p.phase_request().query, 7);
  EXPECT_EQ(p.link_dst, 5);
}

TEST(Packet, TypeNames) {
  EXPECT_STREQ(packet_type_name(PacketType::kData), "DATA");
  EXPECT_STREQ(packet_type_name(PacketType::kAck), "ACK");
  EXPECT_STREQ(packet_type_name(PacketType::kAtim), "ATIM");
  EXPECT_STREQ(packet_type_name(PacketType::kPhaseRequest), "PHASE_REQ");
}

}  // namespace
}  // namespace essat::net
