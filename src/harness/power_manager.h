// PowerManager: the pluggable power-management policy interface.
//
// A policy is everything that differs between the paper's protocols once
// the shared substrate (radio, CSMA MAC, routing tree, query agent) is in
// place: which traffic shaper each node runs, how the radio is put to
// sleep (Safe Sleep, duty schedules, always-on backbones), and any
// protocol-private control traffic. run_scenario assembles the common
// stack and delegates every policy decision here — it contains no
// per-protocol branching. The paper's six policies are the rows of one
// closed table (power_manager.cpp), named by harness::protocol_name; a
// seventh is a PowerManager, one row there and one Protocol enumerator.
#pragma once

#include <memory>
#include <string>

#include "src/core/safe_sleep.h"
#include "src/energy/radio.h"
#include "src/mac/csma.h"
#include "src/net/packet.h"
#include "src/net/topology.h"
#include "src/net/types.h"
#include "src/query/traffic_shaper.h"
#include "src/routing/tree.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::harness {

struct ScenarioConfig;

// Everything a policy can see while assembling one run. References stay
// valid for the lifetime of the run (the PowerManager is destroyed first).
struct StackContext {
  sim::Simulator& sim;
  const net::Topology& topo;
  const routing::Tree& tree;
  net::NodeId root;
  const ScenarioConfig& config;
  util::Time setup_end;
  util::Rng& rng;  // policy-private stream (e.g. SPAN's election shuffle)
};

// Per-node substrate handles the policy may wire into.
struct NodeHandles {
  net::NodeId id;
  energy::Radio& radio;
  mac::CsmaMac& mac;
};

// One instance is created per scenario run by make_power_manager; it owns
// whatever protocol-private state it allocates (SafeSleep schedulers,
// beacon nodes, elected backbones).
class PowerManager {
 public:
  virtual ~PowerManager() = default;

  // Invoked once on the finished routing tree, before any per-node stack
  // is built. E.g. SPAN elects its coordinator backbone here.
  virtual void on_tree_ready(const StackContext& /*ctx*/) {}

  // The traffic shaper for one tree member (never null).
  virtual std::unique_ptr<query::TrafficShaper> make_shaper(
      const StackContext& ctx, const NodeHandles& node) = 0;

  // Wires radio power management for one tree member. Returns the node's
  // SafeSleep (which the shaper feeds expected times into), or nullptr
  // when the policy manages the radio some other way.
  virtual core::SafeSleep* attach_node(const StackContext& /*ctx*/,
                                       const NodeHandles& /*node*/) {
    return nullptr;
  }

  // Protocol-private packets (anything the core demux does not route, e.g.
  // PSM's ATIM announcements) received by node `id`.
  virtual void handle_packet(net::NodeId /*id*/, const net::Packet& /*packet*/) {}

  // Number of nodes the policy keeps always-on (RunMetrics::backbone_size).
  virtual int backbone_size() const { return 0; }

  // Snapshot hook covering all protocol-private state the policy allocated
  // (SafeSleep schedulers, beacon nodes, backbones). The default writes
  // nothing: a stateless policy has nothing to attest.
  virtual void save_state(snap::Serializer& /*out*/) const {}
};

// Builds the policy named `name`, one of the six protocol_name()s. Throws
// std::invalid_argument on any other name, listing the six.
std::unique_ptr<PowerManager> make_power_manager(const std::string& name);

}  // namespace essat::harness
