// Minimal open-addressed hash map for hot-path sparse per-link state.
//
// Linear probing over a power-of-two table with an in-band empty-key
// sentinel: one contiguous allocation, no per-entry nodes, no tombstones
// (erase is deliberately unsupported — every current user only accumulates).
// Compared to std::unordered_map this keeps a lookup to one multiply, one
// mask, and a short contiguous probe run, and — more importantly for the
// city-scale topologies — makes memory O(inserted keys) with a small
// constant instead of O(buckets + nodes + pointers).
//
// Key must be an unsigned integer type; kEmpty is a key value that callers
// never insert (the channel packs (src,dst) node ids into a uint64, so the
// all-ones pattern is unreachable; the MAC's dup table uses the kNoSeq-style
// all-ones sender id).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace essat::util {

template <typename Key, typename Value, Key kEmpty = static_cast<Key>(-1)>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned integers");

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Heap footprint, for the memory-budget benches.
  std::size_t capacity_bytes() const { return slots_.size() * sizeof(Slot); }

  // Returns the value for `key`, default-constructing it on first access.
  Value& operator[](Key key) {
    assert(key != kEmpty);
    if (size_ + 1 > (slots_.size() * 7) / 8) grow_();
    std::size_t i = probe_(key);
    if (slots_[i].key == kEmpty) {
      slots_[i].key = key;
      slots_[i].value = Value{};
      ++size_;
    }
    return slots_[i].value;
  }

  Value* find(Key key) {
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe_(key);
    return slots_[i].key == kEmpty ? nullptr : &slots_[i].value;
  }
  const Value* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  // Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  // Snapshot hook (attestation only: restore replays). The exact slot
  // layout (capacity + occupied slot indices) is serialized, not just the
  // key→value mapping: for_each order feeds metric aggregation, so "same
  // entries, different slots" is a divergence the attestation must catch.
  // `save_value` handles the Value payload; keys travel as u64.
  template <typename Ser, typename SaveValue>
  void save_state(Ser& out, SaveValue&& save_value) const {
    out.u64(static_cast<std::uint64_t>(slots_.size()));
    out.u64(static_cast<std::uint64_t>(size_));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key != kEmpty) {
        out.u64(static_cast<std::uint64_t>(i));
        out.u64(static_cast<std::uint64_t>(slots_[i].key));
        save_value(out, slots_[i].value);
      }
    }
  }

 private:
  struct Slot {
    Key key = kEmpty;
    Value value{};
  };

  // First slot whose key is `key` or kEmpty. Callers guarantee the table is
  // non-empty and below the 7/8 load ceiling, so the probe terminates.
  std::size_t probe_(Key key) const {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci-style multiplicative scatter: adjacent packed (src,dst)
    // keys land in unrelated slots, keeping probe runs short.
    std::size_t i =
        static_cast<std::size_t>(static_cast<std::uint64_t>(key) *
                                 0x9E3779B97F4A7C15ull) &
        mask;
    while (slots_[i].key != kEmpty && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow_() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (Slot& s : old) {
      if (s.key != kEmpty) {
        std::size_t i = probe_(s.key);
        slots_[i].key = s.key;
        slots_[i].value = std::move(s.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace essat::util
