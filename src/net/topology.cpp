#include "src/net/topology.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <queue>
#include <stdexcept>

#include "src/snap/serializer.h"

namespace essat::net {

namespace {

// Verlet skin as a share of the range (range / 12.5: 10 m at 125 m). A
// larger skin re-filters more candidates per epoch; a smaller one rebuilds
// them more often.
constexpr double kSkinPerRange = 0.08;

// Grid-cell budget: the cell side doubles until the grid holds at most
// this many cells, so a sparse deployment over a huge extent cannot blow
// up memory.
std::size_t max_grid_cells(std::size_t n) { return std::max<std::size_t>(64, 4 * n); }

// Cells in a node's block, so ascending runs in a list under construction.
constexpr std::size_t kBlockCells = 9;

// Closes each run of a list under construction: it compares above every
// id, so a merge step needs no bounds check.
constexpr NodeId kRunEnd = std::numeric_limits<NodeId>::max();
constexpr NodeId kEmptyRun[1] = {kRunEnd};

// Merges the ascending runs at a and b, each closed by kRunEnd and together
// holding `ids` ids, into `out`, closed by kRunEnd; returns the end. Each
// step takes the smaller head by arithmetic rather than a branch: which
// head is smaller follows no pattern.
NodeId* merge_runs(const NodeId* a, const NodeId* b, std::size_t ids, NodeId* out) {
  for (std::size_t t = 0; t < ids; ++t) {
    const NodeId x = *a;
    const NodeId y = *b;
    const std::size_t take_b = y < x ? 1 : 0;
    out[t] = y < x ? y : x;
    a += 1 - take_b;
    b += take_b;
  }
  out[ids] = kRunEnd;
  return out + ids + 1;
}

}  // namespace

Topology::Topology(std::vector<Position> positions, double range_m)
    : positions_{std::move(positions)}, range_m_{range_m}, buffers_(1) {
  if (range_m_ <= 0.0) throw std::invalid_argument{"Topology: range must be positive"};
  // The t = 0 lists are built on first read, from an index at the range.
  buffers_[0].lazy = true;
  if (!positions_.empty()) index_.build(positions_, range_m_);
  slots_.resize(positions_.size());
  ++rebuilds_;
}

Topology Topology::uniform_random(std::size_t num_nodes, double area_m,
                                  double range_m, util::Rng& rng) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::line(std::size_t num_nodes, double spacing_m, double range_m) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{static_cast<double>(i) * spacing_m, 0.0});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::grid(std::size_t side, double spacing_m, double range_m) {
  std::vector<Position> pos;
  pos.reserve(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      pos.push_back(Position{static_cast<double>(c) * spacing_m,
                             static_cast<double>(r) * spacing_m});
    }
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::grid_area(std::size_t num_nodes, double area_m,
                             double range_m) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  if (num_nodes > 0) {
    const auto cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_nodes))));
    const std::size_t rows = (num_nodes + cols - 1) / cols;
    const double dx = cols > 1 ? area_m / static_cast<double>(cols - 1) : 0.0;
    const double dy = rows > 1 ? area_m / static_cast<double>(rows - 1) : 0.0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      pos.push_back(Position{static_cast<double>(i % cols) * dx,
                             static_cast<double>(i / cols) * dy});
    }
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::clustered(std::size_t num_nodes, double area_m,
                             double range_m, std::size_t clusters,
                             double sigma_m, util::Rng& rng) {
  if (clusters == 0) clusters = 1;
  // Centres on a circle of radius area/4 around the middle; a central
  // cluster is added past four so large counts keep the hub bridged.
  const double cx = area_m / 2.0, cy = area_m / 2.0, r = area_m / 4.0;
  std::vector<Position> centres;
  centres.reserve(clusters);
  const std::size_t ring = clusters > 4 ? clusters - 1 : clusters;
  for (std::size_t c = 0; c < ring; ++c) {
    const double theta =
        2.0 * 3.14159265358979323846 * static_cast<double>(c) /
        static_cast<double>(ring);
    centres.push_back(Position{cx + r * std::cos(theta), cy + r * std::sin(theta)});
  }
  if (clusters > 4) centres.push_back(Position{cx, cy});

  auto clamp = [area_m](double v) {
    return v < 0.0 ? 0.0 : (v > area_m ? area_m : v);
  };
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const Position& c = centres[i % centres.size()];
    pos.push_back(Position{clamp(c.x + rng.normal(0.0, sigma_m)),
                           clamp(c.y + rng.normal(0.0, sigma_m))});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::corridor(std::size_t num_nodes, double length_m,
                            double width_m, double range_m, util::Rng& rng) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{rng.uniform(0.0, length_m), rng.uniform(0.0, width_m)});
  }
  return Topology{std::move(pos), range_m};
}

void Topology::set_mobility_model(std::shared_ptr<MobilityModel> model,
                                  util::Time epoch) {
  if (model && epoch <= util::Time::zero()) {
    throw std::invalid_argument{"Topology: mobility epoch must be positive"};
  }
  mobility_ = std::move(model);
  epoch_ = epoch;
  epoch_index_ = 0;  // positions_ already hold the t = 0 snapshot
  // The first epoch builds the candidates. The cell array is sized for the
  // largest grid up front, so a changing bounding box never regrows it.
  anchors_.clear();
  if (mobility_) index_.start.reserve(max_grid_cells(positions_.size()) + 2);
}

void Topology::advance_to(util::Time t) {
  if (!mobility_) return;
  const std::int64_t e = t.ns() / epoch_.ns();
  if (e == epoch_index_) return;
  epoch_index_ = e;
  const std::size_t n = positions_.size();
  // The t = 0 lists come from the t = 0 positions and index, which this
  // tick replaces. A frame in flight that pinned them may still read any
  // of them, so build the rest first.
  if (buffers_[0].lazy && buffers_[0].pins != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i].chunk == ListSlot::kUnbuilt) build_list_(i);
    }
  }
  mobility_->positions_at(t, positions_);
  if (positions_.size() != n) {
    // Consumers (channel, trees) size per-node state at construction; a
    // model for a different node count must not silently resize the world.
    throw std::logic_error{"Topology::advance_to: mobility model node count mismatch"};
  }
  ++rebuilds_;
  if (candidates_stale_()) {
    fill_within_(range_m_ * (1.0 + kSkinPerRange), candidates_);
    anchors_ = positions_;
  }
  refilter_();
}

bool Topology::candidates_stale_() const {
  if (anchors_.size() != positions_.size()) return true;  // never built
  // A pair outside the candidates was more than range + skin apart at the
  // anchors, so it is still out of range while the two largest
  // displacements sum to less than the skin. Rebuilding at half the skin
  // leaves a margin far above any rounding in the distance test.
  double first = 0.0, second = 0.0;  // two largest squared displacements
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const double dx = positions_[i].x - anchors_[i].x;
    const double dy = positions_[i].y - anchors_[i].y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > first) {
      second = first;
      first = d2;
    } else if (d2 > second) {
      second = d2;
    }
  }
  return std::sqrt(first) + std::sqrt(second) >= 0.5 * kSkinPerRange * range_m_;
}

void Topology::refilter_() {
  // Frames in flight pin the buffers they read; write into a free one.
  std::size_t b = 0;
  while (b < buffers_.size() && buffers_[b].pins != 0) ++b;
  if (b == buffers_.size()) buffers_.emplace_back();
  if (buffers_[b].lazy) {
    // Nothing reads the t = 0 lists again.
    buffers_[b].lazy = false;
    slots_ = std::vector<ListSlot>{};
    chunks_ = std::vector<std::vector<NodeId>>{};
    chunk_used_ = 0;
  }
  Csr& out = buffers_[b].lists;
  const std::size_t n = positions_.size();
  out.offsets.resize(n + 1);
  // Grow with the candidates' capacity, so a buffer regrows only when the
  // candidates did.
  out.ids.reserve(candidates_.ids.capacity());
  out.ids.resize(candidates_.ids.size());
  // The same range test as the grid pass, written branch-free like its
  // scan; candidate lists are sorted, so the filtered lists are too.
  std::uint32_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.offsets[i] = w;
    const Position& p = positions_[i];
    for (std::uint32_t k = candidates_.offsets[i]; k < candidates_.offsets[i + 1]; ++k) {
      const NodeId j = candidates_.ids[k];
      out.ids[w] = j;
      w += distance(p, positions_[static_cast<std::size_t>(j)]) <= range_m_ ? 1 : 0;
    }
  }
  out.offsets[n] = w;
  out.ids.resize(w);
  current_ = static_cast<std::uint32_t>(b);
}

void Topology::CellIndex::build(const std::vector<Position>& positions,
                                double radius) {
  // Bucketing nodes into radius-sized cells confines every pair within the
  // radius to a 3x3 block: expected O(n) work at bounded density, against
  // an O(n^2) all-pairs scan.
  min_x = positions[0].x;
  min_y = positions[0].y;
  double max_x = min_x, max_y = min_y;
  for (const Position& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Cell size starts at the radius (the 3x3 block then provably covers
  // every pair within it) and doubles until the grid fits the cell budget;
  // larger cells only widen buckets, never miss a neighbor.
  const std::size_t n = positions.size();
  const std::size_t max_cells = max_grid_cells(n);
  const auto dim = [max_cells](double extent, double c) {
    const double f = extent / c;  // compare as double: the cast is UB out of range
    return f >= static_cast<double>(max_cells) ? max_cells + 1
                                               : static_cast<std::size_t>(f) + 1;
  };
  cell = radius;
  for (;;) {
    cols = dim(max_x - min_x, cell);
    rows = dim(max_y - min_y, cell);
    if (cols <= max_cells && rows <= max_cells && cols * rows <= max_cells) break;
    cell *= 2.0;
  }

  // Counting sort by cell: cell c's count goes to start[c + 2]; after the
  // prefix sum start[c + 1] is c's first slot, and placing advances it to
  // c's end, which leaves cell c at [start[c], start[c + 1]). Placing in
  // ascending id order keeps each cell ascending.
  start.assign(cols * rows + 2, 0);
  ids.resize(n);
  for (const Position& p : positions) ++start[cell_y(p) * cols + cell_x(p) + 2];
  for (std::size_t c = 2; c < start.size(); ++c) start[c] += start[c - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const Position& p = positions[i];
    ids[start[cell_y(p) * cols + cell_x(p) + 1]++] = static_cast<std::uint32_t>(i);
  }
}

std::size_t Topology::CellIndex::cell_x(const Position& p) const {
  const auto c = static_cast<std::size_t>((p.x - min_x) / cell);
  return c >= cols ? cols - 1 : c;  // FP guard at the max edge
}

std::size_t Topology::CellIndex::cell_y(const Position& p) const {
  const auto c = static_cast<std::size_t>((p.y - min_y) / cell);
  return c >= rows ? rows - 1 : c;
}

Topology::CellIndex::Block Topology::CellIndex::block(const Position& p) const {
  const std::size_t cx = cell_x(p);
  const std::size_t cy = cell_y(p);
  Block b{cx > 0 ? cx - 1 : 0, std::min(cx + 1, cols - 1),
          cy > 0 ? cy - 1 : 0, std::min(cy + 1, rows - 1), 0};
  for (std::size_t by = b.y0; by <= b.y1; ++by) {
    b.nodes += start[by * cols + b.x1 + 1] - start[by * cols + b.x0];
  }
  return b;
}

void Topology::build_list_(std::size_t i) const {
  const Position& p = positions_[i];
  const CellIndex::Block b = index_.block(p);
  const std::vector<std::uint32_t>& start = index_.start;
  const std::size_t cols = index_.cols;
  // The scan writes up to b.nodes ids and a run end per cell, and the
  // merge as many again after them; a chunk that lacks the room keeps its
  // tail unused.
  const std::size_t room = 2 * (b.nodes + kBlockCells);
  if (chunks_.empty() || chunks_.back().size() - chunk_used_ < room) {
    chunks_.emplace_back(std::max(kListChunkIds, room));
    chunk_used_ = 0;
  }
  NodeId* const list = chunks_.back().data() + chunk_used_;

  // Scan: each cell's in-range ids, kept as one ascending run per
  // non-empty cell and closed by kRunEnd. Every block node is written and
  // only those within range are kept, so the scan has no unpredictable
  // branch.
  std::array<std::uint32_t, kBlockCells + 1> runs{};  // run r: [runs[r], runs[r + 1])
  std::size_t k = 0;
  std::uint32_t w = 0;
  for (std::size_t by = b.y0; by <= b.y1; ++by) {
    for (std::size_t c = by * cols + b.x0; c <= by * cols + b.x1; ++c) {
      for (std::uint32_t q = start[c]; q < start[c + 1]; ++q) {
        const std::uint32_t j = index_.ids[q];
        list[w] = static_cast<NodeId>(j);
        w += j != i && distance(p, positions_[j]) <= range_m_ ? 1 : 0;
      }
      list[w] = kRunEnd;
      const std::uint32_t kept = w > runs[k] ? 1 : 0;
      w += kept;
      k += kept;
      runs[k] = w;
    }
  }
  const std::uint32_t size = w - static_cast<std::uint32_t>(k);

  // Merge adjacent runs pairwise, back and forth between the list and the
  // slots after it, until one run is left: at most nine ascending runs
  // take four rounds, cheaper than a general sort.
  NodeId* from = list;
  NodeId* to = list + w;
  while (k > 1) {
    NodeId* out = to;
    std::size_t merged = 0;
    for (std::size_t r = 0; r < k; r += 2) {
      // A last odd run merges with an empty one, which copies it. Each
      // run holds its ids and one kRunEnd.
      const bool pair = r + 1 < k;
      const NodeId* second = pair ? from + runs[r + 1] : kEmptyRun;
      const std::uint32_t end = runs[pair ? r + 2 : r + 1];
      out = merge_runs(from + runs[r], second, end - runs[r] - (pair ? 2 : 1), out);
      runs[++merged] = static_cast<std::uint32_t>(out - to);
    }
    k = merged;
    std::swap(from, to);
  }
  if (from != list) std::copy(from, from + size, list);
  slots_[i] = ListSlot{static_cast<std::uint32_t>(chunks_.size() - 1),
                       static_cast<std::uint32_t>(chunk_used_),
                       static_cast<std::uint32_t>(chunk_used_ + size)};
  chunk_used_ += size;
}

void Topology::fill_within_(double radius, Csr& out) {
  const std::size_t n = positions_.size();
  out.offsets.resize(n + 1);
  out.offsets[0] = 0;
  if (n == 0) {
    out.ids.clear();
    return;
  }
  index_.build(positions_, radius);
  const std::vector<std::uint32_t>& start = index_.start;
  const std::size_t cols = index_.cols;

  // Scan: node i's block, unsorted, into found_[offsets[i], offsets[i + 1]).
  // Each row of the block is one contiguous run of the index's ids. Every
  // block node is written and only those within the radius are kept, so
  // the scan has no unpredictable branch.
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Position& p = positions_[i];
    const CellIndex::Block b = index_.block(p);
    if (found_.size() < w + b.nodes) found_.resize(w + b.nodes);
    for (std::size_t by = b.y0; by <= b.y1; ++by) {
      for (std::uint32_t k = start[by * cols + b.x0]; k < start[by * cols + b.x1 + 1]; ++k) {
        const std::uint32_t j = index_.ids[k];
        found_[w] = static_cast<NodeId>(j);
        w += j != i && distance(p, positions_[j]) <= radius ? 1 : 0;
      }
    }
    if (w > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error{"Topology: too many neighbor pairs"};
    }
    out.offsets[i + 1] = static_cast<std::uint32_t>(w);
  }

  // Transpose: scatter each i into the lists of its neighbors, in
  // ascending i, which leaves every list sorted without a sort. The
  // relation is symmetric (the same distance both ways, the same block
  // both ways), so list j holds exactly as many entries as j's scan found
  // and `out` keeps the scan's offsets. The index's ids serve as the write
  // cursors: nothing reads the index until the next candidate build.
  std::vector<std::uint32_t>& cursor = index_.ids;
  std::copy(out.offsets.begin(), out.offsets.end() - 1, cursor.begin());
  out.ids.resize(w);  // from the old size: a reused buffer grows geometrically
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t k = out.offsets[i]; k < out.offsets[i + 1]; ++k) {
      const auto j = static_cast<std::size_t>(found_[k]);
      assert(cursor[j] < out.offsets[j + 1]);
      out.ids[cursor[j]++] = static_cast<NodeId>(i);
    }
  }
}

bool Topology::in_range(NodeId a, NodeId b) const {
  if (a == b) return false;
  return distance(position(a), position(b)) <= range_m_;
}

NodeId Topology::nearest(const Position& p) const {
  NodeId best = kNoNode;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const double d = distance(positions_[i], p);
    if (d < best_d) {
      best_d = d;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

bool Topology::connected() const {
  if (positions_.empty()) return true;
  std::vector<bool> seen(positions_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        ++reached;
        frontier.push(v);
      }
    }
  }
  return reached == positions_.size();
}

const char* topology_kind_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kUniform: return "uniform";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kClustered: return "clustered";
    case TopologyKind::kCorridor: return "corridor";
  }
  throw std::invalid_argument{"topology_kind_name: unknown TopologyKind"};
}

Topology DeploymentSpec::build(util::Rng& rng) const {
  const auto n = static_cast<std::size_t>(num_nodes < 0 ? 0 : num_nodes);
  switch (kind) {
    case TopologyKind::kUniform:
      return Topology::uniform_random(n, area_m, range_m, rng);
    case TopologyKind::kGrid:
      return Topology::grid_area(n, area_m, range_m);
    case TopologyKind::kLine:
      // The chain spans the area; spacing shrinks with node count.
      return Topology::line(n, n > 1 ? area_m / static_cast<double>(n - 1) : 0.0,
                            range_m);
    case TopologyKind::kClustered:
      return Topology::clustered(n, area_m, range_m,
                                 static_cast<std::size_t>(clusters < 1 ? 1 : clusters),
                                 cluster_sigma_m, rng);
    case TopologyKind::kCorridor:
      return Topology::corridor(n, area_m, corridor_width_m, range_m, rng);
  }
  throw std::invalid_argument{"DeploymentSpec::build: unknown TopologyKind"};
}

Position DeploymentSpec::centre() const {
  switch (kind) {
    case TopologyKind::kLine: return Position{area_m / 2.0, 0.0};
    case TopologyKind::kCorridor:
      return Position{area_m / 2.0, corridor_width_m / 2.0};
    default: return Position{area_m / 2.0, area_m / 2.0};
  }
}

Position DeploymentSpec::extent() const {
  switch (kind) {
    case TopologyKind::kLine: return Position{area_m, 0.0};
    case TopologyKind::kCorridor: return Position{area_m, corridor_width_m};
    default: return Position{area_m, area_m};
  }
}

void Topology::save_state(snap::Serializer& out) const {
  out.begin("TOPO");
  out.f64(range_m_);
  out.u64(positions_.size());
  for (const Position& p : positions_) {
    out.f64(p.x);
    out.f64(p.y);
  }
  out.u64(positions_.size());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const NeighborView list = neighbors(static_cast<NodeId>(i));
    out.u64(list.size());
    for (NodeId n : list) out.i32(n);
  }
  out.boolean(mobility_ != nullptr);
  out.time(epoch_);
  out.i64(epoch_index_);
  out.u64(rebuilds_);
  if (mobility_ != nullptr) mobility_->save_state(out);
  out.end();
}

}  // namespace essat::net
