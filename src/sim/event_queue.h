// Calendar-wheel event scheduler with O(1) amortized insertion and pop,
// and O(1) cancellation and in-place re-arm. Events at the same timestamp
// fire in insertion order, which makes simulation runs fully deterministic
// for a given seed.
//
// Structure: virtual time is cut into fixed-width buckets (16.4 us — the
// scale of MAC slots and inter-frame spaces); kBuckets consecutive buckets
// form one wheel epoch. Entries are 16-byte PODs (time, packed seq+slot).
// A bucket ahead of the drain cursor is an unsorted doubly-linked list
// threaded through one node pool shared by every bucket, so its storage
// follows its entries (Brown's calendar queue, CACM 31(10), 1988): a node
// returns to the pool's LIFO free list when its entry is cancelled or
// re-timed, or when the cursor takes its bucket, so the pool holds as many
// nodes as the lists ever held entries at once. When the cursor reaches a
// bucket, its list moves into the one cursor vector and is sorted by
// (time, seq) once, so ordering costs O(n log b) over tiny contiguous runs
// instead of a binary heap's cache-hostile sift per operation. Events
// beyond the current epoch wait in an unsorted overflow list and migrate
// wheel-ward at epoch boundaries; an occupancy bitmap skips empty buckets
// in O(1), so sparse stretches (sleeping networks) cost nothing. The pop
// sequence is the total order (time, seq) regardless of bucket geometry —
// determinism never depends on the wheel parameters.
//
// Callbacks and liveness state live in a slot table indexed directly by
// the high half of the EventId, split into a 16-byte metadata record (the
// live entry's seq, a generation, and the pool node of a listed entry) and
// a 64-byte InlineCallback (loaded exactly once, on pop). Pushing never
// touches the heap allocator; with reserve() sized to the expected event
// population, steady-state push/pop is allocation-free. An entry is live
// iff its seq is its slot's live seq; seqs are never reused, so a slot is
// free again the moment its event fires or is cancelled. cancel() and
// rearm() unlink a listed entry from its bucket on the spot, so no dead
// entry (tombstone) ever lies ahead of the cursor. Two places still hold
// tombstones: the cursor bucket, whose sorted vector a cancelled or
// re-timed entry stays in until the head skims it, and the overflow list,
// which drops its dead entries at the next epoch boundary instead of
// migrating them. So the head only ever skims entries of the cursor's own
// bucket. rearm() keeps the slot, its callback and its id, and files the
// event afresh with a new seq, exactly as cancel+push would order it. A
// generation counter folded into the EventId makes stale cancels (of an
// already-fired or recycled id) harmless no-ops.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = InlineCallback;

  // Enqueues `cb` to fire at `t`. Returns a handle usable with `cancel`
  // and `rearm`.
  EventId push(util::Time t, Callback&& cb);
  // Removes a pending event: its slot is free at once and its entry, when
  // it sits in a bucket ahead of the cursor, leaves the wheel with it.
  // Cancelling an unknown or already-fired id is a harmless no-op.
  void cancel(EventId id);
  // Re-times a still-pending event, keeping its slot, callback, and id.
  // Returns false (a no-op) if `id` is stale — already fired, cancelled,
  // or recycled — in which case the caller pushes a fresh event.
  // Equivalent to cancel+push with the same callback: the new position
  // takes a fresh insertion sequence number, so same-timestamp FIFO
  // ordering is preserved bit-for-bit.
  bool rearm(EventId id, util::Time t);

  bool empty() const;
  // Timestamp of the next live event. Precondition: !empty().
  util::Time next_time() const;
  // Removes and returns the next live event (the callback is moved out of
  // its slot, never copied). Precondition: !empty().
  std::pair<util::Time, Callback> pop();
  // Fused empty()/next_time()/pop() for the simulator's run loop: pops the
  // next live event into (t, cb, id) iff its timestamp is <= `limit`. One
  // head skim instead of three. `id` is the popped event's handle (the same
  // value push() returned), so tracing can correlate pops with pushes.
  bool pop_until(util::Time limit, util::Time& t, Callback& cb, EventId& id);

  std::size_t size() const { return live_; }  // live events only
  // High-water mark of live events — the event population a harness should
  // reserve() for on the next comparable run.
  std::size_t peak_live() const { return peak_live_; }
  // Dead entries the head has skimmed so far. Only a cancelled or re-timed
  // entry of the cursor's own bucket can get there.
  std::uint64_t skimmed() const { return skimmed_; }

  // Pre-sizes the slot table, free list, overflow list, bucket node pool
  // and cursor bucket for `expected_events` entries: a handful of
  // allocations, none per bucket. A slot is free again once its event
  // fires or is cancelled, so the table holds the most events ever pending
  // at once; the overflow list and the cursor bucket also hold dead
  // entries until they drain.
  void reserve(std::size_t expected_events);

  // Snapshot hook: serializes the live-event digest — every pending
  // (time, seq) pair in pop order, plus the sequence counter and live/peak
  // counts. Callbacks are code, not data; restore replays the scenario to
  // the snapshot barrier (rebuilding identical callbacks along the way) and
  // this digest is what the attestation byte-compares. Wheel geometry
  // (bucket cursors, free lists) is excluded: the digest plus next_seq_
  // fully determines all future pop ordering.
  void save_state(snap::Serializer& out) const;

 private:
  // 16-byte wheel entry: the slot index rides in the low bits of the seq
  // word (seq is unique, so comparing the packed word IS comparing seq),
  // which keeps bucket sorts and migrations pure 16-byte POD shuffles.
  struct Entry {
    util::Time time;
    std::uint64_t seq_slot = 0;

    static constexpr int kSlotBits = 24;  // 16.7M concurrent events
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
    static Entry make(util::Time t, std::uint64_t seq, std::uint32_t slot) {
      return Entry{t, seq << kSlotBits | slot};
    }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
    std::uint64_t seq() const { return seq_slot >> kSlotBits; }
    // Fires strictly before `other`. (time, seq) is a total order — seq is
    // unique — so the pop sequence is independent of the wheel's internal
    // layout; determinism never depends on the bucket geometry.
    bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq_slot < other.seq_slot;
    }
  };

  // Slot bookkeeping, split from the callbacks so the head-skimming loop
  // (drop_dead_) touches only this 16-byte record — four per cache line —
  // and the 64-byte callback line is loaded exactly once, on pop.
  struct SlotMeta {
    // Seq of the entry that fires this slot; kNoSeq while nothing is
    // pending (fired, cancelled, or free). Seqs stay below 2^40, so a
    // dead entry never matches.
    std::uint64_t live_seq = kNoSeq;
    std::uint32_t generation = 0;
    // Pool link of the live entry while it sits in a bucket list ahead of
    // the cursor; 0 while it is in the cursor bucket or the overflow list.
    std::uint32_t node = 0;

    static constexpr std::uint64_t kNoSeq = ~0ull;
    bool pending() const { return live_seq != kNoSeq; }
  };

  // EventId layout: (slot + 1) in the high 32 bits, generation in the low
  // 32. The +1 keeps every valid id distinct from kInvalidEventId.
  static EventId encode_(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }
  // The slot of a pending event, or meta_.size() for an invalid, fired,
  // cancelled or recycled id.
  std::uint32_t pending_slot_(EventId id) const {
    const std::uint64_t slot_plus_1 = id >> 32;
    const auto none = static_cast<std::uint32_t>(meta_.size());
    if (slot_plus_1 == 0 || slot_plus_1 > none) return none;
    const auto slot = static_cast<std::uint32_t>(slot_plus_1 - 1);
    const SlotMeta& s = meta_[slot];
    return s.pending() && s.generation == static_cast<std::uint32_t>(id)
               ? slot
               : none;
  }
  bool is_live_(const Entry& e) const {
    return meta_[e.slot()].live_seq == e.seq();
  }

  // --- Calendar wheel geometry -------------------------------------------
  // 16.4 us buckets; 1024 of them cover a 16.8 ms epoch — wide enough that
  // MAC timing (slots, SIFS/DIFS, backoff, ACK timeouts) stays in-wheel
  // and only second-scale protocol timers take the overflow path.
  static constexpr int kBucketShift = 14;  // bucket width = 2^14 ns
  static constexpr std::size_t kBucketsLog2 = 10;
  static constexpr std::size_t kBuckets = 1u << kBucketsLog2;  // per epoch
  static constexpr std::size_t kBitmapWords = kBuckets / 64;

  // Global bucket index of `t` (negative times clamp to bucket 0; the
  // simulator never schedules in the past, this only guards raw users).
  static std::int64_t bucket_of_(util::Time t) {
    return (t.ns() < 0 ? 0 : t.ns()) >> kBucketShift;
  }
  static std::int64_t epoch_of_(std::int64_t g) {
    return g >> kBucketsLog2;
  }
  // Position of global bucket `g` within its epoch.
  static std::size_t wheel_slot_(std::int64_t g) {
    return static_cast<std::size_t>(g) & (kBuckets - 1);
  }

  // Gives `slot` a fresh seq and files its entry at `t`: into a bucket
  // list, the overflow list, or — for times at or behind the drain cursor —
  // the sorted remainder of the cursor bucket.
  void file_(std::uint32_t slot, util::Time t);
  // Prepends `e` to the list of bucket `bucket`, ahead of the cursor, and
  // returns its node's link.
  std::uint32_t list_push_(std::size_t bucket, Entry e) const;
  // Removes a listed entry from its bucket and frees its node.
  void unlink_(std::uint32_t link);
  // Moves the cursor bucket's list into the empty cur_, sorts it by
  // (time, seq), and returns its nodes to the pool.
  void take_cursor_bucket_() const;
  void bitmap_set_(std::size_t bucket) const {
    occupancy_[bucket >> 6] |= 1ull << (bucket & 63);
  }
  void bitmap_clear_(std::size_t bucket) const {
    occupancy_[bucket >> 6] &= ~(1ull << (bucket & 63));
  }
  // First occupied bucket at position >= from, or kBuckets when none.
  std::size_t bitmap_find_from_(std::size_t from) const;
  // Advances the drain cursor to the next entry (taking and sorting its
  // bucket on arrival, migrating overflow entries at epoch boundaries).
  // Returns false when no entries remain anywhere.
  bool ensure_head_() const;
  // Precondition: ensure_head_() returned true.
  const Entry& head_() const { return cur_[drain_]; }
  void pop_head_() const { ++drain_; }

  // Skims dead entries (cancelled or re-timed, all in the cursor bucket)
  // off the head; they are unobservable, so this is observably const.
  // Returns false when no live entry remains.
  bool drop_dead_() const;
  // Ends the pending state of `slot` (fired or cancelled) and frees it.
  void release_slot_(std::uint32_t slot);

  // One entry of a bucket ahead of the cursor, or a free node. Links are
  // pool index + 1, so 0 ends a list and a zeroed head is an empty bucket.
  struct Node {
    Entry entry;
    std::uint32_t next = 0;  // toward the tail; the free list's link
    std::uint32_t prev = 0;  // toward the head; 0 at the head
  };

  // Buckets ahead of the cursor: list heads into one node pool shared by
  // every bucket; free nodes form a LIFO list from free_node_.
  mutable std::uint32_t heads_[kBuckets] = {};
  mutable std::vector<Node> pool_;
  mutable std::uint32_t free_node_ = 0;
  mutable std::uint64_t occupancy_[kBitmapWords] = {};
  mutable std::vector<Entry> far_;     // entries beyond the current epoch
  mutable std::int64_t cur_g_ = 0;     // global bucket index being drained
  // The cursor bucket: its list's entries, sorted when the cursor
  // arrives, plus those filed at or behind the cursor since, each
  // inserted in order; drained from drain_ onward.
  mutable std::vector<Entry> cur_;
  mutable std::size_t drain_ = 0;  // next position in cur_
  mutable std::vector<SlotMeta> meta_;
  std::vector<Callback> cbs_;  // parallel to meta_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  mutable std::uint64_t skimmed_ = 0;
};

}  // namespace essat::sim
