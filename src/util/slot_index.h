// Dense slot numbers for a subset of the ids [0, universe).
//
// A trial keeps per-node state only for its roster, the routing tree's
// members at t = 0 (routing::tree_roster), though every id of a large
// topology may appear in a neighbour list. One SlotIndex maps an id to its
// roster slot with 4 bytes per id of the universe, and the harness, the
// channel and the tree share it and size their per-node arrays by size().
// Slots follow ascending id order, so a slot-order scan visits ids in
// ascending order.
//
// Built once, by add() in any order and then sort(), and read-only after:
// a shared index is held through std::shared_ptr<const SlotIndex>.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace essat::util {

class SlotIndex {
 public:
  using Id = std::int32_t;
  using Slot = std::int32_t;
  static constexpr Slot kNoSlot = -1;

  // An empty index over [0, universe).
  explicit SlotIndex(std::size_t universe) : slot_of_(universe, kNoSlot) {}

  // Every id of [0, universe) in slot id, shared.
  static std::shared_ptr<const SlotIndex> all(std::size_t universe) {
    auto index = std::make_shared<SlotIndex>(universe);
    index->ids_.reserve(universe);
    for (std::size_t i = 0; i < universe; ++i) index->add(static_cast<Id>(i));
    return index;
  }

  std::size_t universe() const { return slot_of_.size(); }
  std::size_t size() const { return ids_.size(); }

  // `id`'s slot; kNoSlot outside the index, including outside [0, universe).
  Slot slot(Id id) const {
    const auto i = static_cast<std::size_t>(id);  // a negative id wraps high
    return i < slot_of_.size() ? slot_of_[i] : kNoSlot;
  }
  bool contains(Id id) const { return slot(id) != kNoSlot; }
  Id id(Slot s) const { return ids_[static_cast<std::size_t>(s)]; }
  const std::vector<Id>& ids() const { return ids_; }
  // The id -> slot table (kNoSlot outside the index), for a hot loop that
  // indexes it with ids it knows are in [0, universe).
  const Slot* slot_table() const { return slot_of_.data(); }

  // Gives `id` the next slot unless it has one; returns its slot. Until
  // sort(), slots follow insertion order, so ids() doubles as a
  // breadth-first queue while the index is built.
  Slot add(Id id) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= slot_of_.size()) {
      throw std::out_of_range{"SlotIndex::add: id outside the universe"};
    }
    if (slot_of_[i] == kNoSlot) {
      slot_of_[i] = static_cast<Slot>(ids_.size());
      ids_.push_back(id);
    }
    return slot_of_[i];
  }

  // Renumbers the slots in ascending id order.
  void sort() {
    std::sort(ids_.begin(), ids_.end());
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      slot_of_[static_cast<std::size_t>(ids_[s])] = static_cast<Slot>(s);
    }
  }

 private:
  std::vector<Slot> slot_of_;
  std::vector<Id> ids_;
};

}  // namespace essat::util
