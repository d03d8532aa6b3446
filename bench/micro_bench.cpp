// Microbenchmarks of the hot paths: event queue operations, broadcast
// packet delivery through zero-copy shared frames, channel broadcast
// scheduling, topology neighbor rebuilds and mobility epochs, listener
// dispatch, Safe Sleep bookkeeping, shaper updates, and a full
// small-scenario run.
#include <benchmark/benchmark.h>

#include <cmath>
#include <functional>
#include <memory>

#include "src/essat.h"

namespace {

using namespace essat;
using util::Time;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{1};
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(256)->Arg(4096);

// The MAC/timer pattern the simulator hammers: every armed timer is
// re-armed (push + cancel) many times before it finally fires.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{2};
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {}));
    }
    // Rearm every event three times: cancel + fresh push.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < n; ++i) {
        q.cancel(ids[static_cast<std::size_t>(i)]);
        ids[static_cast<std::size_t>(i)] =
            q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {});
      }
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(256)->Arg(4096);

// Push/pop with the capture size the simulator actually carries on the hot
// path (a Timer's thunk plus its stored callback state is ~40 bytes),
// which the InlineCallback queue stores in the slot.
struct RealisticCapture {
  void* a = nullptr;
  void* b = nullptr;
  void* c = nullptr;
  std::uint64_t k = 0;
  std::uint64_t j = 0;
};

void BM_EventPushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{1};
  RealisticCapture payload;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      payload.k = static_cast<std::uint64_t>(i);
      q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)),
             [payload, &sink] { sink += payload.k; });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventPushPop)->Arg(256)->Arg(4096);

// Broadcast packet delivery end-to-end through the event core, at
// realistic MAC timing (one frame every 120 us): one begin and one end
// event per transmission fan the frame out to `receivers` nodes. The
// events hold a 16-byte PacketRef from the recycling pool, the ATIM
// destinations live inline in the header, and receivers bump a refcount.
constexpr int kDeliveryTxs = 64;
constexpr int kAtimDests = 6;

void BM_BroadcastDelivery(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  net::AtimDestinations dests;
  for (net::NodeId d = 1; d <= kAtimDests; ++d) dests.push_back(d);
  for (auto _ : state) {
    sim::EventQueue q;
    net::PacketPool pool;
    std::vector<net::PacketRef> rx_state(static_cast<std::size_t>(receivers));
    for (int i = 0; i < kDeliveryTxs; ++i) {
      net::Packet p = net::make_atim_packet(0, dests);
      p.channel_tx_id = static_cast<std::uint64_t>(i) + 1;
      net::PacketRef frame = pool.acquire(std::move(p));
      q.push(Time::microseconds(i * 120), [&rx_state, frame] {
        for (auto& rx : rx_state) rx = frame;  // refcount bump per receiver
      });
      q.push(Time::microseconds(i * 120 + 100), [&rx_state, &sink, frame] {
        for (auto& rx : rx_state) {
          const net::PacketRef delivered = std::move(rx);
          sink += static_cast<std::uint64_t>(delivered->atim().destinations.size());
        }
      });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kDeliveryTxs *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_BroadcastDelivery)->Arg(12)->Arg(32)->ArgNames({"receivers"});

// Timer re-arm fast path: the nav/wake-timer pattern (re-arm while armed)
// against the cancel+push it replaces, on the same queue.
void BM_TimerRearm(benchmark::State& state) {
  const bool fast_path = state.range(0) == 1;
  for (auto _ : state) {
    sim::EventQueue q;
    const Time far = Time::seconds(1000);
    sim::EventId id = q.push(far, [] {});
    for (int i = 0; i < 1024; ++i) {
      const Time t = far + Time::microseconds(i);
      if (fast_path) {
        q.rearm(id, t);
      } else {
        q.cancel(id);
        id = q.push(t, [] {});
      }
    }
    while (!q.empty()) q.pop().second();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TimerRearm)->Arg(0)->Arg(1)->ArgNames({"fast"});

// Channel broadcast scheduling on a dense clique (every node hears every
// transmission), the worst case for per-arrival work.
void BM_ChannelBroadcast(benchmark::State& state) {
  const int num_nodes = static_cast<int>(state.range(0));
  util::Rng rng{3};
  const net::Topology topo = net::Topology::uniform_random(
      static_cast<std::size_t>(num_nodes), 80.0, 125.0, rng);  // clique
  for (auto _ : state) {
    sim::Simulator sim;
    net::Channel ch{sim, topo};
    for (int i = 0; i < 64; ++i) {
      const auto src = static_cast<net::NodeId>(i % num_nodes);
      sim.schedule_at(Time::microseconds(i * 500), [&ch, src] {
        net::DataHeader h;
        ch.start_tx(src, net::make_data_packet(src, net::kNoNode, h),
                    Time::microseconds(400));
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChannelBroadcast)->Arg(16)->Arg(64)->ArgNames({"nodes"});

// Neighbor-set build: index the nodes and build every list, as a trial
// that reads them all does. Density is held constant (~12 neighbors/node)
// as n grows, the regime where the grid index inside Topology is expected
// O(n).
std::vector<net::Position> scaled_positions(std::size_t n) {
  util::Rng rng{7};
  // Area grows with n so density stays fixed: ~n * pi * 125^2 / area = const.
  const double area = 500.0 * std::sqrt(static_cast<double>(n) / 80.0);
  std::vector<net::Position> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{rng.uniform(0.0, area), rng.uniform(0.0, area)});
  }
  return pos;
}

void BM_NeighborRebuildGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<net::Position> pos = scaled_positions(n);
  for (auto _ : state) {
    net::Topology topo{pos, 125.0};
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(topo.neighbors(static_cast<net::NodeId>(i)).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NeighborRebuildGrid)->Arg(80)->Arg(1000)->Arg(4000);

// One mobility epoch, Topology::advance_to, at the same fixed density under
// the dynamic workload's random waypoint (0.5-2 m/s, 20 s pauses, 0.1 s
// epochs): re-sample the model, then re-filter the Verlet candidates or,
// once nodes have moved far enough, rebuild them. Items are nodes.
void BM_MobilityEpoch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = 500.0 * std::sqrt(static_cast<double>(n) / 80.0);
  const std::vector<net::Position> pos = scaled_positions(n);
  net::Topology topo{pos, 125.0};
  net::RandomWaypointParams params;
  params.speed_min_mps = 0.5;
  params.speed_max_mps = 2.0;
  params.pause_s = 20.0;
  const Time epoch = Time::milliseconds(100);
  topo.set_mobility_model(
      std::make_shared<net::RandomWaypointMobility>(pos, side, side, params, util::Rng{8}),
      epoch);
  std::int64_t k = 0;
  for (auto _ : state) {
    topo.advance_to(epoch * ++k);
    benchmark::DoNotOptimize(topo.neighbors(0).size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MobilityEpoch)->Arg(120)->Arg(4000)->ArgNames({"nodes"});

// Per-arrival listener dispatch: the loop replays the channel's per-arrival
// sequence (activity notification + cached listening check + delivery)
// over a neighborhood of nodes, through one ChannelListener pointer each.
struct DevirtListener final : net::ChannelListener {
  std::uint64_t delivered = 0;
  std::uint64_t activity = 0;
  void on_rx_complete(const net::Packet&, bool ok) override {
    delivered += ok ? 1 : 0;
  }
  void on_channel_activity() override { ++activity; }
};

constexpr int kDispatchArrivals = 1024;

void BM_ListenerDispatchDevirtualized(benchmark::State& state) {
  const int neighbors = static_cast<int>(state.range(0));
  DevirtListener listener;
  // The channel's per-node record: one pointer + the cached flag.
  struct PerNode {
    net::ChannelListener* listener = nullptr;
    bool listening = false;
  };
  std::vector<PerNode> nodes(static_cast<std::size_t>(neighbors));
  for (auto& n : nodes) n = PerNode{&listener, true};
  net::DataHeader h;
  const net::Packet p = net::make_data_packet(0, net::kNoNode, h);
  for (auto _ : state) {
    for (int i = 0; i < kDispatchArrivals; ++i) {
      for (auto& n : nodes) {
        if (n.listener != nullptr) n.listener->on_channel_activity();
        if (n.listening) n.listener->on_rx_complete(p, true);
      }
    }
  }
  benchmark::DoNotOptimize(listener.delivered);
  benchmark::DoNotOptimize(listener.activity);
  state.SetItemsProcessed(state.iterations() * kDispatchArrivals * neighbors);
}
BENCHMARK(BM_ListenerDispatchDevirtualized)->Arg(12)->ArgNames({"neighbors"});

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Timer t{sim};
    int fired = 0;
    std::function<void()> rearm = [&] {
      if (++fired < 1000) t.arm_in(Time::microseconds(10), rearm);
    };
    t.arm_in(Time::microseconds(10), rearm);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_SafeSleepCheckState(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  net::Channel channel{sim, topo};
  energy::Radio radio{sim, energy::RadioParams{}};
  mac::CsmaMac mac{sim, channel, radio, 0, mac::MacParams{}, util::Rng{1}};
  core::SafeSleep ss{sim, radio, mac, core::SafeSleepParams{}};
  // Ten queries with three children each: realistic bookkeeping size.
  for (net::QueryId q = 0; q < 10; ++q) {
    ss.update_next_send(q, Time::seconds(1000 + q));
    for (net::NodeId c = 1; c <= 3; ++c) {
      ss.update_next_receive(q, c, Time::seconds(1000 + q + c));
    }
  }
  for (auto _ : state) {
    ss.check_state();
    benchmark::DoNotOptimize(ss.next_wakeup());
  }
}
BENCHMARK(BM_SafeSleepCheckState);

void BM_DtsShaperUpdate(benchmark::State& state) {
  net::Topology topo = net::Topology::line(3, 100.0, 125.0);
  routing::Tree tree = routing::build_bfs_tree(topo, 0, 10000.0);
  core::DtsShaper shaper;
  shaper.set_context(query::ShaperContext{&tree, 1, nullptr});
  query::Query q;
  q.id = 0;
  q.period = Time::seconds(1);
  q.phase = Time::zero();
  shaper.register_query(q);
  std::int64_t k = 0;
  for (auto _ : state) {
    shaper.on_report_received(q, k, 2, std::nullopt);
    const auto plan = shaper.plan_send(q, k, q.epoch_start(k));
    shaper.on_report_sent(q, k, plan.send_at);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DtsShaperUpdate);

void BM_SmallScenario(benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig c;
    c.protocol = harness::Protocol::kDtsSs;
    c.deployment.num_nodes = 30;
    c.workload.base_rate_hz = 1.0;
    c.measure_duration = Time::seconds(10);
    c.seed = 3;
    benchmark::DoNotOptimize(harness::run_scenario(c));
  }
}
BENCHMARK(BM_SmallScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
