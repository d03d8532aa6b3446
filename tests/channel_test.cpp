#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/net/channel.h"
#include "src/sim/simulator.h"

namespace essat::net {
namespace {

using util::Time;

// Three nodes on a line: 0 -- 1 -- 2, with 0 and 2 hidden from each other.
Topology line_topo() { return Topology::line(3, 100.0, 125.0); }

struct Listener : ChannelListener {
  std::vector<std::pair<Packet, bool>> received;
  int notifications = 0;

  void on_rx_complete(const Packet& p, bool ok) override {
    received.emplace_back(p, ok);
  }
  void on_channel_activity(bool) override { ++notifications; }

  // Attach + mark listening, the canonical bring-up a MAC performs.
  void listen_on(Channel& ch, NodeId node) {
    ch.attach(node, this);
    ch.set_listening(node, true);
  }
};

Packet test_packet(NodeId src, NodeId dst) {
  DataHeader h;
  h.query = 1;
  return make_data_packet(src, dst, h);
}

TEST(Channel, DeliversToInRangeListener) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1, l2;
  l1.listen_on(ch, 1);
  l2.listen_on(ch, 2);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.run();

  ASSERT_EQ(l1.received.size(), 1u);
  EXPECT_TRUE(l1.received[0].second);
  EXPECT_EQ(l1.received[0].first.link_src, 0);
  // Node 2 is out of range of node 0: hears nothing.
  EXPECT_TRUE(l2.received.empty());
  EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Channel, NoDeliveryWhenNotListeningAtStart) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1;
  ch.attach(1, &l1);  // attached but never marked listening

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.run();
  EXPECT_TRUE(l1.received.empty());
}

TEST(Channel, ListenerMustStayOnForWholeFrame) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  // Radio drops mid-frame.
  sim.schedule_at(Time::microseconds(200), [&] { ch.set_listening(1, false); });
  sim.run();
  ASSERT_EQ(l1.received.size(), 1u);
  EXPECT_FALSE(l1.received[0].second);  // reception abandoned
  EXPECT_EQ(ch.delivered(), 0u);
}

TEST(Channel, HiddenTerminalCollisionCorruptsBoth) {
  sim::Simulator sim;
  Topology topo = line_topo();  // 0 and 2 both reach 1, not each other
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.schedule_at(Time::microseconds(100), [&] {
    ch.start_tx(2, test_packet(2, 1), Time::microseconds(500));
  });
  sim.run();

  // Equidistant senders: no capture; the first reception is corrupted.
  ASSERT_EQ(l1.received.size(), 1u);
  EXPECT_FALSE(l1.received[0].second);
  EXPECT_GE(ch.collisions(), 1u);
}

TEST(Channel, CaptureKeepsMuchStrongerFrame) {
  sim::Simulator sim;
  // Node 1 at 10 m from sender 0 and 120 m from sender 2: distance ratio 12
  // >> 1.78, so node 1 captures 0's frame.
  Topology topo{{{0, 0}, {10, 0}, {130, 0}}, 125.0};
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.schedule_at(Time::microseconds(100), [&] {
    ch.start_tx(2, test_packet(2, 1), Time::microseconds(500));
  });
  sim.run();

  ASSERT_GE(l1.received.size(), 1u);
  EXPECT_TRUE(l1.received[0].second);
  EXPECT_EQ(l1.received[0].first.link_src, 0);
}

TEST(Channel, CaptureDisabledMeansAllOverlapsCollide) {
  sim::Simulator sim;
  Topology topo{{{0, 0}, {10, 0}, {130, 0}}, 125.0};
  ChannelParams params;
  params.capture_distance_ratio = 0.0;
  Channel ch{sim, topo, params};
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.schedule_at(Time::microseconds(100), [&] {
    ch.start_tx(2, test_packet(2, 1), Time::microseconds(500));
  });
  sim.run();
  ASSERT_EQ(l1.received.size(), 1u);
  EXPECT_FALSE(l1.received[0].second);
}

TEST(Channel, SenderCannotHearWhileTransmitting) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l0, l1;
  l0.listen_on(ch, 0);
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.schedule_at(Time::microseconds(50), [&] {
    ch.start_tx(1, test_packet(1, 0), Time::microseconds(500));
  });
  sim.run();
  // Node 0 was transmitting when 1's frame started arriving: no delivery.
  for (const auto& [p, ok] : l0.received) EXPECT_FALSE(ok);
  // Node 1 started transmitting mid-reception: its reception is corrupted.
  for (const auto& [p, ok] : l1.received) EXPECT_FALSE(ok);
}

TEST(Channel, CarrierSenseTracksArrivals) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);

  EXPECT_FALSE(ch.busy(1));
  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  // Busy at the sender immediately; at the receiver after propagation.
  EXPECT_TRUE(ch.busy(0));
  sim.run_until(Time::microseconds(10));
  EXPECT_TRUE(ch.busy(1));
  EXPECT_FALSE(ch.busy(2));  // node 2 neighbors 1, not the sender 0
  sim.run_until(Time::milliseconds(2));
  EXPECT_FALSE(ch.busy(0));
  EXPECT_FALSE(ch.busy(1));
}

TEST(Channel, ActivityNotificationsFire) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);
  ch.start_tx(0, test_packet(0, 1), Time::microseconds(500));
  sim.run();
  EXPECT_GE(l1.notifications, 2);  // at least arrival start + end
}

// One begin + one end event per transmission, under collisions: the
// deliveries, collision count and per-node receive lists are pinned to the
// outcome of the removed per-neighbor scheduling, which was identical.
TEST(Channel, BatchedArrivalsMatchLegacyScheduling) {
  util::Rng rng{99};
  const Topology topo = Topology::uniform_random(12, 260.0, 125.0, rng);
  sim::Simulator sim;
  Channel ch{sim, topo};
  std::vector<Listener> listeners(12);
  for (NodeId n = 0; n < 12; ++n) {
    listeners[static_cast<std::size_t>(n)].listen_on(ch, n);
  }
  // Overlapping transmissions from several senders, including exact ties.
  for (int i = 0; i < 8; ++i) {
    const NodeId src = static_cast<NodeId>(i);
    sim.schedule_at(Time::microseconds(40 * (i / 2)), [&ch, src] {
      ch.start_tx(src, test_packet(src, kNoNode), Time::microseconds(120));
    });
  }
  sim.run();
  std::vector<std::vector<std::pair<NodeId, bool>>> seen;
  for (const auto& l : listeners) {
    std::vector<std::pair<NodeId, bool>> per_node;
    for (const auto& [p, ok] : l.received) {
      per_node.emplace_back(p.link_src, ok);
    }
    seen.push_back(std::move(per_node));
  }
  EXPECT_EQ(ch.delivered(), 2u);
  EXPECT_EQ(ch.collisions(), 10u);
  const std::vector<std::vector<std::pair<NodeId, bool>>> expected{
      {},           {},           {{1, false}}, {{0, false}},
      {},           {{1, false}}, {{0, false}}, {{0, false}},
      {{1, true}},  {{1, true}},  {{1, false}}, {{1, false}}};
  EXPECT_EQ(seen, expected);
}

// Each carrier-sense edge carries its direction, and it is always the
// state busy() reports. The sender's own end comes last, after its idle
// edge, and carries the id start_tx returned.
TEST(Channel, EdgesCarryBusyAndSenderEndCarriesTxId) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  struct Recorder : ChannelListener {
    Channel* ch = nullptr;
    NodeId self = kNoNode;
    std::vector<std::string> log;
    void on_rx_complete(const Packet&, bool ok) override {
      log.push_back(ok ? "rx ok" : "rx bad");
    }
    void on_channel_activity(bool busy) override {
      log.push_back(busy == ch->busy(self) ? (busy ? "busy" : "idle")
                                           : "wrong edge");
    }
    void on_tx_end(std::uint64_t tx_id) override {
      log.push_back("end " + std::to_string(tx_id));
    }
  };
  Recorder r0, r1;
  r0.ch = r1.ch = &ch;
  r0.self = 0;
  r1.self = 1;
  ch.attach(0, &r0);
  ch.attach(1, &r1);
  ch.set_listening(1, true);

  const std::uint64_t first = ch.start_tx(0, test_packet(0, 1),
                                          Time::microseconds(200));
  sim.schedule_at(Time::microseconds(300), [&] {
    EXPECT_EQ(ch.start_tx(0, test_packet(0, 1), Time::microseconds(200)),
              first + 1);
  });
  sim.run();
  EXPECT_EQ(r0.log, (std::vector<std::string>{
                        "busy", "idle", "end " + std::to_string(first),
                        "busy", "idle", "end " + std::to_string(first + 1)}));
  EXPECT_EQ(r1.log, (std::vector<std::string>{"busy", "rx ok", "idle", "busy",
                                              "rx ok", "idle"}));
  EXPECT_EQ(ch.transmissions(), 2u);
}

// A sender outside the roster is refused before anything happens: no
// frame is counted, no tx id is taken, no event is scheduled.
TEST(Channel, RefusedSenderPutsNothingOnTheAir) {
  sim::Simulator sim;
  Topology topo = line_topo();
  auto roster = std::make_shared<util::SlotIndex>(topo.num_nodes());
  roster->add(1);
  roster->add(2);
  Channel ch{sim, topo, roster};
  Listener l1;
  l1.listen_on(ch, 1);
  EXPECT_THROW(ch.start_tx(0, test_packet(0, 1), Time::microseconds(200)),
               std::out_of_range);
  EXPECT_EQ(ch.transmissions(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The next accepted frame takes the first tx id.
  EXPECT_EQ(ch.start_tx(1, test_packet(1, 2), Time::microseconds(200)), 1u);
  EXPECT_EQ(ch.transmissions(), 1u);
}

TEST(Channel, BackToBackFramesBothDeliver) {
  sim::Simulator sim;
  Topology topo = line_topo();
  Channel ch{sim, topo};
  Listener l1;
  l1.listen_on(ch, 1);

  ch.start_tx(0, test_packet(0, 1), Time::microseconds(200));
  sim.schedule_at(Time::microseconds(300), [&] {
    ch.start_tx(0, test_packet(0, 1), Time::microseconds(200));
  });
  sim.run();
  ASSERT_EQ(l1.received.size(), 2u);
  EXPECT_TRUE(l1.received[0].second);
  EXPECT_TRUE(l1.received[1].second);
}

}  // namespace
}  // namespace essat::net
