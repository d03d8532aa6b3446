// Steady-state allocation tests for the simulation hot path: after
// warm-up, event push/pop, timer re-arms, and broadcast delivery must not
// touch the heap at all, and whole trials stay within a per-node and a
// per-event allocation budget. A counting global operator new/delete is
// the tracking hook; counting is scoped so gtest's own bookkeeping stays
// out of the numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bench/alloc_hook.h"
#include "src/essat.h"

namespace essat {
namespace {

using CountScope = bench_alloc::AllocationCounter;
using util::Time;

// A capture the size the simulator actually schedules (five words — wider
// than libstdc++'s std::function SBO, the case that used to allocate).
struct WideCapture {
  void* a = nullptr;
  void* b = nullptr;
  void* c = nullptr;
  std::uint64_t k = 0;
  std::uint64_t j = 0;
};

TEST(SteadyStateAlloc, EventPushPopIsAllocationFree) {
  sim::EventQueue q;
  q.reserve(256);
  WideCapture w;
  std::uint64_t sink = 0;
  // Warm-up: populate slots, the entry pool, and the overflow list.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 128; ++i) {
      w.k = static_cast<std::uint64_t>(i);
      q.push(Time::microseconds(137 * i), [w, &sink] { sink += w.k; });
    }
    while (!q.empty()) q.pop().second();
  }
  {
    CountScope scope;
    for (int i = 0; i < 128; ++i) {
      w.k = static_cast<std::uint64_t>(i);
      q.push(Time::microseconds(137 * i), [w, &sink] { sink += w.k; });
    }
    while (!q.empty()) q.pop().second();
    EXPECT_EQ(scope.count(), 0u) << "event push/pop allocated after warm-up";
  }
  EXPECT_GT(sink, 0u);
}

// Every wheel bucket ahead of the drain cursor keeps its entries in one
// shared node pool, and the cursor's bucket is one vector, so the wheel's
// storage follows the entries it holds rather than the largest cluster
// each bucket ever saw: once a 1 000-event cluster has drained, an equal
// cluster in another bucket of a later epoch allocates nothing. Setting up
// a queue costs a handful of allocations, none per bucket.
TEST(SteadyStateAlloc, BucketsShareOneEntryPool) {
  constexpr int kCluster = 1000;
  {
    CountScope setup;
    sim::EventQueue reserved;
    reserved.reserve(kCluster);
    EXPECT_LE(setup.count(), 8u)
        << "construction and reserve() allocated per bucket";
  }
  sim::EventQueue q;  // unreserved, so the first cluster sizes everything
  std::uint64_t fired = 0;
  auto cluster_at = [&](Time t) {
    for (int i = 0; i < kCluster; ++i) q.push(t, [&fired] { ++fired; });
    while (!q.empty()) q.pop().second();
  };
  // Wheel geometry: 2^14 ns buckets, 1 024 of them per 2^24 ns epoch.
  const auto instant = [](std::int64_t epoch, std::int64_t bucket) {
    return Time::nanoseconds(epoch << 24 | bucket << 14);
  };
  cluster_at(instant(2, 5));
  {
    CountScope scope;
    cluster_at(instant(7, 700));
    EXPECT_EQ(scope.count(), 0u) << "a cluster in a fresh bucket allocated";
  }
  EXPECT_EQ(fired, 2u * kCluster);
}

TEST(SteadyStateAlloc, TimerRearmIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(16);
  sim::Timer t{sim};
  int fired = 0;
  // Warm-up one arm/fire cycle plus re-arms.
  t.arm_in(Time::microseconds(5), [&fired] { ++fired; });
  t.arm_in(Time::microseconds(7), [&fired] { ++fired; });
  sim.run();
  {
    CountScope scope;
    t.arm_in(Time::microseconds(5), [&fired] { ++fired; });
    t.arm_in(Time::microseconds(9), [&fired] { ++fired; });  // rearm fast path
    t.arm_in(Time::microseconds(3), [&fired] { ++fired; });  // rearm earlier
    sim.run();
    EXPECT_EQ(scope.count(), 0u) << "timer re-arm allocated after warm-up";
  }
  EXPECT_EQ(fired, 2);
}

// A radio counts each completed sleep into inline bins, so OFF/ON cycles in
// the measurement window stay off the heap however many sleeps a trial has.
TEST(SteadyStateAlloc, RadioSleepCycleIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(16);
  energy::Radio r{sim, energy::RadioParams{}};
  r.begin_measurement();
  Time t = sim.now();
  auto sleep_cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      r.turn_off();
      sim.run_until(t + Time::milliseconds(5));  // OFF after 1.25 ms
      r.turn_on();
      t += Time::milliseconds(10);
      sim.run_until(t);
    }
  };
  sleep_cycles(16);  // warm-up
  {
    CountScope scope;
    sleep_cycles(10000);
    EXPECT_EQ(scope.count(), 0u) << "sleep cycles allocated after warm-up";
  }
  EXPECT_EQ(r.sleep_histogram().total(), 10016u);
}

TEST(SteadyStateAlloc, BroadcastDeliveryIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(64);
  const net::Topology topo = net::Topology::line(3, 100.0, 125.0);
  net::Channel ch{sim, topo};
  struct Counting : net::ChannelListener {
    int delivered = 0;
    void on_rx_complete(const net::Packet&, bool ok) override {
      if (ok) ++delivered;
    }
    void on_channel_activity() override {}
  } listener;
  int& delivered = listener.delivered;
  for (net::NodeId n = 0; n < 3; ++n) {
    ch.attach(n, &listener);
    ch.set_listening(n, true);
  }
  net::AtimDestinations dests{1, 2};
  auto broadcast = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      sim.schedule_in(Time::microseconds(1 + 700 * i), [&ch, &dests] {
        ch.start_tx(0, net::make_atim_packet(0, dests),
                    Time::microseconds(400));
      });
    }
    sim.run();
  };
  broadcast(8);  // warm-up: packet pool, event slots, entry pool
  const int before = delivered;
  {
    CountScope scope;
    broadcast(8);
    EXPECT_EQ(scope.count(), 0u) << "broadcast delivery allocated after warm-up";
  }
  EXPECT_GT(delivered, before);
}

// Epoch rollover across a full 4-node aggregation chain: after the first
// few epochs populate the pools (epoch records, MAC rings, packet blocks,
// event slots), each further epoch — generate, aggregate hop by hop,
// deliver at the root, open the next — must be allocation-free. This is
// the query agent's steady state; the legacy per-epoch std::map/std::set
// records paid four-plus allocations per epoch here.
TEST(SteadyStateAlloc, EpochRolloverIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(256);
  const net::Topology topo = net::Topology::line(4, 100.0, 125.0);
  const routing::Tree tree = routing::build_bfs_tree(topo, 0, 10000.0);
  net::Channel ch{sim, topo};
  const mac::MacParams mp;
  std::vector<std::unique_ptr<energy::Radio>> radios;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
  std::vector<std::unique_ptr<core::NtsShaper>> shapers;
  std::vector<std::unique_ptr<query::QueryAgent>> agents;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    radios.push_back(std::make_unique<energy::Radio>(sim, energy::RadioParams{}));
    macs.push_back(std::make_unique<mac::CsmaMac>(
        sim, ch, *radios.back(), id, mp, util::Rng{50 + i}));
    shapers.push_back(std::make_unique<core::NtsShaper>());
    shapers.back()->set_context(query::ShaperContext{&tree, id, nullptr});
    agents.push_back(std::make_unique<query::QueryAgent>(
        sim, *macs.back(), tree, id, *shapers.back(),
        query::QueryAgentParams{.t_comp = Time::milliseconds(2)}));
    macs.back()->set_rx_handler(
        [&agents, i](const net::Packet& p) { agents[i]->handle_packet(p); });
  }
  int root_arrivals = 0;
  agents[0]->set_root_arrival_hook(
      [&root_arrivals](const query::Query&, std::int64_t, Time, int) {
        ++root_arrivals;
      });
  // Backoff jitter lands each epoch's event cluster in different wheel
  // buckets; they all share one entry pool, so that costs nothing.
  const Time period = Time::seconds(1);
  query::Query q;
  q.id = 0;
  q.period = period;
  q.phase = period;
  for (auto& a : agents) a->register_query(q);

  sim.run_until(period * 5);  // warm-up: several full epochs
  const int before = root_arrivals;
  {
    CountScope scope;
    sim.run_until(period * 10);
    EXPECT_EQ(scope.count(), 0u) << "epoch rollover allocated after warm-up";
  }
  EXPECT_GE(root_arrivals - before, 4);  // epochs really rolled in the window
}

// MAC queue churn: bursts that stack frames behind a busy medium and then
// drain to empty, repeated. The legacy std::deque returned its chunk on
// every drain and re-bought it on the next burst; the ring must keep its
// high-water storage, making fill/drain cycles allocation-free.
TEST(SteadyStateAlloc, MacQueueChurnIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(256);
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  net::Channel ch{sim, topo};
  energy::Radio r0{sim, energy::RadioParams{}};
  energy::Radio r1{sim, energy::RadioParams{}};
  // Single sender, so backoff never resolves contention here — zero the
  // contention window so that every burst stacks the queue to the same
  // depth, the one the warm-up bursts reach.
  mac::MacParams mp;
  mp.cw_min = 0;
  mp.cw_max = 0;
  mp.initial_data_cw = 0;
  mac::CsmaMac m0{sim, ch, r0, 0, mp, util::Rng{7}};
  mac::CsmaMac m1{sim, ch, r1, 1, mp, util::Rng{8}};
  int received = 0;
  m1.set_rx_handler([&received](const net::Packet&) { ++received; });

  const Time spacing = Time::milliseconds(10);
  int round = 0;  // bursts at absolute times round*spacing
  auto burst = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      sim.schedule_at(spacing * round++, [&m0] {
        // Six frames at once: the queue stacks up behind the in-flight
        // head, then drains to empty before the next burst.
        for (int j = 0; j < 6; ++j) {
          net::DataHeader h;
          h.query = 1;
          m0.send(net::make_data_packet(0, 1, h));
        }
      });
    }
    sim.run();
  };
  burst(4);  // warm-up: ring high water, ACK/backoff timers, packet pool
  const int before = received;
  {
    CountScope scope;
    burst(4);
    EXPECT_EQ(scope.count(), 0u) << "queue fill/drain allocated after warm-up";
  }
  EXPECT_GT(received, before);
}

// Mobility epochs at the dynamic workload's shape: 120 random-waypoint
// nodes at the paper's density (80 per 500 m x 500 m), 0.5-2 m/s with 20 s
// pauses, 0.1 s epochs, and one broadcast per epoch that starts 1 ms before
// the tick and so spans the rebuild. Once the Verlet candidates, the list
// buffers and the event and packet pools are warm, an epoch — re-sample,
// re-filter or rebuild the candidates, deliver — allocates nothing.
TEST(SteadyStateAlloc, MobilityEpochIsAllocationFree) {
  const double side = 500.0 * std::sqrt(120.0 / 80.0);
  util::Rng placement{1};
  net::Topology topo = net::Topology::uniform_random(120, side, 125.0, placement);
  net::RandomWaypointParams params;
  params.speed_min_mps = 0.5;
  params.speed_max_mps = 2.0;
  params.pause_s = 20.0;
  const Time epoch = Time::milliseconds(100);
  topo.set_mobility_model(std::make_shared<net::RandomWaypointMobility>(
                              topo.positions(), side, side, params, util::Rng{2}),
                          epoch);
  sim::Simulator sim;
  sim.reserve_events(1024);
  net::Channel ch{sim, topo};
  struct Counting : net::ChannelListener {
    int delivered = 0;
    void on_rx_complete(const net::Packet&, bool ok) override {
      if (ok) ++delivered;
    }
    void on_channel_activity() override {}
  } listener;
  for (net::NodeId n = 0; n < 120; ++n) {
    ch.attach(n, &listener);
    ch.set_listening(n, true);
  }
  int next = 1;  // the next epoch to enter
  auto run_epochs = [&](int count) {
    for (int i = 0; i < count; ++i, ++next) {
      const Time tick = epoch * next;
      const auto sender = static_cast<net::NodeId>(next % 120);
      sim.schedule_at(tick - Time::milliseconds(1), [&ch, sender] {
        ch.start_tx(sender, net::make_data_packet(sender, net::kNoNode, {}),
                    Time::milliseconds(3));
      });
      sim.schedule_at(tick, [&topo, tick] { topo.advance_to(tick); });
    }
    sim.run();
  };
  // Warm-up: 100 s, long enough for the nodes to leave the uniform start
  // for the waypoint model's centre-heavy spread, where the pair count and
  // with it the candidate and buffer capacity settle; plus the pools.
  run_epochs(1000);
  const int before = listener.delivered;
  const std::uint64_t rebuilds = topo.neighbor_rebuilds();
  {
    CountScope scope;
    run_epochs(200);
    EXPECT_EQ(scope.count(), 0u) << "mobility epochs allocated after warm-up";
  }
  EXPECT_EQ(topo.neighbor_rebuilds(), rebuilds + 200);
  EXPECT_GT(listener.delivered, before);
}

// The packet pool recycles its control blocks: a long tx sequence keeps a
// bounded pool instead of allocating per frame.
TEST(SteadyStateAlloc, PacketPoolRecyclesBlocks) {
  net::PacketPool pool;
  {
    net::PacketRef a = pool.acquire(net::Packet{});
    net::PacketRef b = pool.acquire(net::Packet{});
  }
  EXPECT_EQ(pool.recycled_blocks(), 2u);
  {
    CountScope scope;
    for (int i = 0; i < 100; ++i) {
      net::PacketRef r = pool.acquire(net::Packet{});
    }
    EXPECT_EQ(scope.count(), 0u) << "pool acquire allocated with free blocks";
  }
  EXPECT_EQ(pool.recycled_blocks(), 2u);
}

// A stream is its seed until its first draw builds the engine, so a node
// that never draws (a MAC outside the routing tree) costs 16 bytes and no
// seeding; after that first allocation, drawing stays off the heap.
TEST(SteadyStateAlloc, RngEngineIsBuiltOnFirstDraw) {
  EXPECT_LE(sizeof(util::Rng), 16u);
  CountScope setup;
  const util::Rng master{1};
  util::Rng forked = master.fork(100);
  util::Rng stream = std::move(forked);
  EXPECT_EQ(setup.count(), 0u) << "constructing, forking or moving allocated";
  std::int64_t sum = 0;
  {
    CountScope first;
    sum += stream.uniform_int(0, 1 << 30);
    const std::uint64_t bytes = first.bytes();  // before a failure allocates
    EXPECT_EQ(first.count(), 1u) << "the first draw must build the engine";
    EXPECT_EQ(bytes, sizeof(std::mt19937_64));
  }
  {
    CountScope rest;
    for (int i = 0; i < 1000; ++i) sum += stream.uniform_int(0, 1 << 30);
    EXPECT_EQ(rest.count(), 0u) << "draws after the first allocated";
  }
  EXPECT_GT(sum, 0);
}

// A static topology builds each list on its first read. Placing 20 000
// nodes at the paper's density allocates their positions, list slots and
// cell index: O(n) bytes, no list (33 B per node; building every list
// up front took 235). Reading one list then allocates one storage chunk,
// plus the chunk directory's first entry.
TEST(SteadyStateAlloc, StaticTopologyBuildsListsOnFirstRead) {
  constexpr std::size_t kNodes = 20000;
  const double side = 500.0 * std::sqrt(static_cast<double>(kNodes) / 80.0);
  util::Rng placement{1};
  CountScope build;
  const net::Topology topo = net::Topology::uniform_random(kNodes, side, 125.0, placement);
  const double per_node = static_cast<double>(build.bytes()) / kNodes;
  EXPECT_LE(per_node, 64.0) << "construction allocated " << build.bytes() << " B";
  CountScope read;
  const std::size_t degree = topo.neighbors(0).size();
  const std::uint64_t read_bytes = read.bytes();
  EXPECT_LE(read.count(), 2u);
  EXPECT_LE(read_bytes, net::Topology::kListChunkIds * sizeof(net::NodeId) + 64)
      << "reading one list allocated " << read_bytes << " B";
  EXPECT_GT(degree, 0u);
}

// Whole-trial budgets. They count allocations, not host time, so they hold
// on any machine. The workload is DTS-SS with nodes uniform in a 500 m
// square; 160 nodes are denser than the paper's 80, so arrival fan-out
// dominates.
harness::ScenarioConfig uniform_dts_ss(int num_nodes, double rate_hz,
                                       Time measure) {
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = num_nodes;
  c.deployment.area_m = 500.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.workload.base_rate_hz = rate_hz;
  c.measure_duration = measure;
  c.seed = 1;
  return c;
}

// Allocation volume of a 1 s trial at `num_nodes` nodes.
double trial_alloc_bytes(int num_nodes) {
  const harness::ScenarioConfig c =
      uniform_dts_ss(num_nodes, 1.0, Time::seconds(1));
  CountScope scope;
  (void)harness::run_scenario(c);
  return static_cast<double>(scope.bytes());
}

// Bytes per node at 1000 nodes bound the per-node footprint; differencing
// 1000 against 160 nodes cancels the fixed harness overhead and leaves the
// marginal cost of one stack (radio, MAC, tree state, agent, channel slot).
// The budgets are 1.25x the 17 851 and 19 442 B measured with the event
// queue's wheel buckets in one shared entry pool.
TEST(SteadyStateAlloc, PerNodeFootprintWithinBudget) {
  const double bytes_160 = trial_alloc_bytes(160);
  const double bytes_1000 = trial_alloc_bytes(1000);
  EXPECT_LE(bytes_1000 / 1000.0, 22314.0);
  EXPECT_LE((bytes_1000 - bytes_160) / (1000.0 - 160.0), 24303.0);
}

// Same seed, 2 s and 4 s windows at 4 Hz: setup and teardown allocations
// cancel in the difference, leaving 2 s of steady state, which must stay
// under 0.005 allocations per executed event.
TEST(SteadyStateAlloc, WholeTrialAllocsPerEventBounded) {
  const harness::ScenarioConfig short_run =
      uniform_dts_ss(160, 4.0, Time::seconds(2));
  harness::ScenarioConfig long_run = short_run;
  long_run.measure_duration = Time::seconds(4);
  const std::uint64_t a0 = bench_alloc::allocations();
  const harness::RunMetrics m_short = harness::run_scenario(short_run);
  const std::uint64_t a1 = bench_alloc::allocations();
  const harness::RunMetrics m_long = harness::run_scenario(long_run);
  const std::uint64_t a2 = bench_alloc::allocations();
  ASSERT_GT(m_long.sim_events, m_short.sim_events);
  const double events =
      static_cast<double>(m_long.sim_events - m_short.sim_events);
  const double allocs =
      static_cast<double>(a2 - a1) - static_cast<double>(a1 - a0);
  EXPECT_LE(allocs / events, 0.005);
}

}  // namespace
}  // namespace essat
