// Network topology: node positions and unit-disc connectivity, plus the
// declarative DeploymentSpec the harness sweeps over.
//
// The paper's setup: 80 nodes uniformly random in a 500x500 m^2 area with a
// 125 m communication range. The extra generators (grid, line, clustered,
// corridor) open the deployment axis the paper left fixed.
//
// Positions are a snapshot, optionally backed by a MobilityModel
// (net/mobility.h): advance_to(t) re-samples the model and refreshes the
// neighbor lists once per epoch, so consumers (channel, tree construction,
// repair) keep reading through the same accessors while the geometry — and
// with it every link — drifts over time. Without a model the topology is
// frozen, exactly the seed's behavior.
//
// Storage: a topology buckets its nodes into range-sized grid cells (a
// counting sort, expected O(n)) and builds node n's list from its 3x3
// cell block the first time anything reads it. A city trial thus lists
// only the nodes its tree and channel touch. A built list is never moved:
// lists live in fixed-size chunks, so a view stays valid while later reads
// build more lists. Because a read may build a list, a const Topology is
// not safe for two threads to read at once; every trial owns its own.
// A mobile topology keeps those lazy t = 0 lists until its first epoch
// tick. From then on it keeps Verlet candidate lists (L. Verlet, Phys.
// Rev. 159, 98, 1967): every pair within range + skin at the last
// candidate build, found by a grid pass over the same cell index and
// stored in flat CSR buffers (one offsets array plus one ids array per
// buffer) that a warm epoch reuses without allocating. Each epoch only
// re-filters the candidates with the exact range test; the candidates are
// rebuilt once the two largest displacements since that build sum to half
// the skin, before any pair outside them could reach range. Every list is
// in ascending id order and equal to an all-pairs scan.
//
// Views and pinning: neighbors(n) is a pointer pair into the current
// buffer, valid until the next advance_to that enters a new epoch. A
// consumer that must keep one list across epochs — the channel, for the
// receivers of a frame in flight — pins the current generation, reads it
// through neighbors(n, generation), and unpins it when done. A rebuild
// only writes into an unpinned buffer and adds a buffer only when every
// buffer is pinned, so any epoch/frame ratio is safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/mobility.h"
#include "src/net/position.h"
#include "src/net/types.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::net {

class Topology {
 public:
  // Explicit placement (tests and small examples).
  Topology(std::vector<Position> positions, double range_m);

  // Uniform random placement in [0, area_m)^2 (the paper's deployment).
  static Topology uniform_random(std::size_t num_nodes, double area_m,
                                 double range_m, util::Rng& rng);
  // Regular chain: node i at (i * spacing_m, 0). Handy for rank-specific
  // unit tests where the tree shape must be exact.
  static Topology line(std::size_t num_nodes, double spacing_m, double range_m);
  // Regular sqrt(n) x sqrt(n) grid with the given spacing.
  static Topology grid(std::size_t side, double spacing_m, double range_m);
  // Near-square grid of exactly num_nodes spanning [0, area_m]^2 (the last
  // row may be partial). Deterministic: no RNG is consumed.
  static Topology grid_area(std::size_t num_nodes, double area_m, double range_m);
  // Gaussian clusters: `clusters` centres evenly spaced on a circle of
  // radius area_m/4 around the area centre (plus one central cluster when
  // clusters > 4); nodes assigned round-robin with N(0, sigma_m) offsets,
  // clamped to the area. Models dense sensor patches with sparse bridges.
  static Topology clustered(std::size_t num_nodes, double area_m, double range_m,
                            std::size_t clusters, double sigma_m, util::Rng& rng);
  // Sparse corridor: uniform placement in [0, length_m) x [0, width_m) —
  // an elongated deployment (road / pipeline / perimeter) that produces
  // deep routing trees.
  static Topology corridor(std::size_t num_nodes, double length_m,
                           double width_m, double range_m, util::Rng& rng);

  std::size_t num_nodes() const { return positions_.size(); }
  const Position& position(NodeId n) const { return positions_.at(static_cast<std::size_t>(n)); }
  const std::vector<Position>& positions() const { return positions_; }
  double range() const { return range_m_; }

  bool in_range(NodeId a, NodeId b) const;

  // Read-only view of one neighbor list, in ascending id order. It points
  // into the topology's buffers: valid until the next advance_to that
  // enters a new epoch (copy it to keep it longer). Reading other lists,
  // which may build them, never moves it.
  class NeighborView {
   public:
    NeighborView(const NodeId* begin, const NodeId* end) : begin_{begin}, end_{end} {}
    const NodeId* begin() const { return begin_; }
    const NodeId* end() const { return end_; }
    std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    NodeId operator[](std::size_t i) const { return begin_[i]; }

   private:
    const NodeId* begin_;
    const NodeId* end_;
  };

  // Node n's current neighbors.
  NeighborView neighbors(NodeId n) const { return neighbors(n, current_); }

  // Generation pinning: pin_generation() holds the current lists unchanged
  // across later epochs until the matching unpin_generation(g); between
  // the two, neighbors(n, g) reads them. Const because a pin is a reader's
  // lease: it never changes what neighbors(n) returns.
  std::uint32_t pin_generation() const {
    ++buffers_[current_].pins;
    return current_;
  }
  void unpin_generation(std::uint32_t g) const { --buffers_[g].pins; }
  NeighborView neighbors(NodeId n, std::uint32_t g) const {
    const auto i = static_cast<std::size_t>(n);
    if (i >= num_nodes()) throw std::out_of_range{"Topology::neighbors: no such node"};
    const ListBuffer& b = buffers_[g];
    if (b.lazy) {
      if (slots_[i].chunk == ListSlot::kUnbuilt) build_list_(i);
      const ListSlot& s = slots_[i];
      const NodeId* ids = chunks_[s.chunk].data();
      return NeighborView{ids + s.begin, ids + s.end};
    }
    return NeighborView{b.lists.ids.data() + b.lists.offsets[i],
                        b.lists.ids.data() + b.lists.offsets[i + 1]};
  }

  // Ids per chunk of the t = 0 lists; a list whose cell block needs more
  // room than that gets a chunk of its own size.
  static constexpr std::size_t kListChunkIds = 4096;

  // Node closest to the given point (the paper roots the tree at the node
  // nearest the centre of the area).
  NodeId nearest(const Position& p) const;

  // True if every node can reach every other node over in-range hops.
  bool connected() const;

  // --- Time-varying backing (mobility) ----------------------------------
  // Installs a position source; accessors keep returning the most recent
  // epoch snapshot, advance_to() refreshes it. Shared so Topology stays
  // copyable (copies share the model; in practice one topology per trial).
  void set_mobility_model(std::shared_ptr<MobilityModel> model,
                          util::Time epoch);
  bool time_varying() const { return mobility_ != nullptr; }
  util::Time mobility_epoch() const { return epoch_; }
  // Re-samples positions from the mobility model and refreshes the
  // neighbor lists when `t` has entered a new epoch since the last call.
  // No-op for a static topology. `t` must be non-decreasing across calls.
  void advance_to(util::Time t);
  // Neighbor-list refreshes so far: 1 after construction (the t = 0
  // lists, however many have been read), plus one per epoch entered,
  // whether it rebuilt the candidates or only re-filtered them.
  std::uint64_t neighbor_rebuilds() const { return rebuilds_; }

  // Snapshot hook: positions, neighbor lists, and the mobility epoch
  // cursor, plus the installed model's state. Buffers, pins and Verlet
  // candidates are storage, not state: the bytes do not depend on them.
  // Every list is written, so any t = 0 list not yet read is built.
  void save_state(snap::Serializer& out) const;

 private:
  // Flat adjacency: node i's ids are ids[offsets[i], offsets[i + 1]).
  struct Csr {
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> ids;
  };
  struct ListBuffer {
    Csr lists;
    bool lazy = false;  // the t = 0 lists, read through slots_ and chunks_
    mutable std::uint32_t pins = 0;  // frames in flight reading this buffer
  };
  // Uniform-grid spatial index: nodes bucketed into square cells at least
  // `radius` wide, so every pair within the radius lies in a 3x3 block of
  // cells. The nodes of cell c are ids[start[c], start[c + 1]), in
  // ascending id order.
  struct CellIndex {
    double min_x = 0.0, min_y = 0.0, cell = 0.0;
    std::size_t cols = 0, rows = 0;
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> ids;

    // Buckets `positions` (at least one) by a counting sort.
    void build(const std::vector<Position>& positions, double radius);
    std::size_t cell_x(const Position& p) const;
    std::size_t cell_y(const Position& p) const;
    // The block around p's cell, clipped to the grid: columns x0..x1 of
    // rows y0..y1, holding `nodes` nodes. One block row's cells are
    // adjacent in `ids`.
    struct Block {
      std::size_t x0, x1, y0, y1, nodes;
    };
    Block block(const Position& p) const;
  };
  // A lazily built list: chunks_[chunk][begin, end).
  struct ListSlot {
    static constexpr std::uint32_t kUnbuilt = 0xffffffffu;
    std::uint32_t chunk = kUnbuilt;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // Builds node i's t = 0 list from its cell block into the chunks.
  void build_list_(std::size_t i) const;
  // Fills `out` with every pair within `radius`, each list sorted. It
  // re-buckets index_ at that radius, so it runs only once no t = 0 list
  // is left to build: a tick builds those a pinned frame may still read.
  void fill_within_(double radius, Csr& out);
  // True once the candidates may miss a pair now within range.
  bool candidates_stale_() const;
  // Writes the in-range subset of the candidates into an unpinned buffer
  // and makes it current.
  void refilter_();

  std::vector<Position> positions_;
  double range_m_;
  std::vector<ListBuffer> buffers_;  // one, unless frames pinned others
  std::uint32_t current_ = 0;
  CellIndex index_;  // at the range for the t = 0 lists, then range + skin
  // The t = 0 lists, built on first read. A chunk never resizes, so a
  // built list never moves; the last chunk's first chunk_used_ ids are
  // taken.
  mutable std::vector<ListSlot> slots_;
  mutable std::vector<std::vector<NodeId>> chunks_;
  mutable std::size_t chunk_used_ = 0;
  // Mobile topologies only; empty (no heap) for a static one.
  Csr candidates_;                 // pairs within range + skin at anchors_
  std::vector<Position> anchors_;  // positions at the last candidate build
  std::vector<NodeId> found_;      // the grid pass's unsorted lists
  std::shared_ptr<MobilityModel> mobility_;
  util::Time epoch_ = util::Time::seconds(5);
  std::int64_t epoch_index_ = 0;
  std::uint64_t rebuilds_ = 0;
};

// ---------------------------------------------------------------------------
// Declarative deployment description: which generator, how many nodes, and
// the geometry knobs — everything run_scenario needs to materialize a
// Topology. Sweepable as a unit (exp::SweepSpec::axis_topology).

enum class TopologyKind { kUniform, kGrid, kLine, kClustered, kCorridor };

// Stable lower-case names ("uniform", "grid", ...). Throws
// std::invalid_argument on an out-of-range kind.
const char* topology_kind_name(TopologyKind k);

struct DeploymentSpec {
  TopologyKind kind = TopologyKind::kUniform;
  int num_nodes = 80;
  // Square side for uniform/grid/clustered; total extent for line/corridor.
  double area_m = 500.0;
  double range_m = 125.0;
  // Tree construction: only nodes within this distance of the root join
  // (the paper's 300 m cap on its 500 m area). Scaled by build callers when
  // the area changes.
  double max_tree_dist_m = 300.0;

  // kClustered knobs.
  int clusters = 4;
  double cluster_sigma_m = 40.0;

  // kCorridor knob.
  double corridor_width_m = 60.0;

  // Materializes the deployment. `rng` is consumed only by the random
  // kinds; regular shapes (grid, line) are purely deterministic.
  Topology build(util::Rng& rng) const;

  // Geometric centre of the deployed region (the paper roots the routing
  // tree at the node nearest the centre). Shape-aware: a corridor's centre
  // sits on its spine, a line's on the chain.
  Position centre() const;

  // Width/height of the deployed rectangle — the bounds mobility models
  // roam in (a line's height is 0: waypoints stay on the chain).
  Position extent() const;
};

}  // namespace essat::net
