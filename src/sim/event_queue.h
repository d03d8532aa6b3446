// Calendar-wheel event scheduler with O(1) amortized insertion and pop,
// O(1) cancellation, and an O(1) in-place re-arm. Events at the same
// timestamp fire in insertion order, which makes simulation runs fully
// deterministic for a given seed.
//
// Structure: virtual time is cut into fixed-width buckets (16.4 us — the
// scale of MAC slots and inter-frame spaces); kBuckets consecutive buckets
// form one wheel epoch. Entries are 16-byte PODs (time, packed seq+slot)
// appended unsorted to their bucket; a bucket is sorted by (time, seq)
// once, when the drain cursor reaches it, so ordering costs O(n log b)
// over tiny contiguous runs instead of a binary heap's cache-hostile
// sift per operation. Events beyond the current epoch wait in an unsorted
// overflow list and migrate wheel-ward at epoch boundaries; an occupancy
// bitmap skips empty buckets in O(1), so sparse stretches (sleeping
// networks) cost nothing. The pop sequence is the total order (time, seq)
// regardless of bucket geometry — determinism never depends on the wheel
// parameters.
//
// Callbacks and liveness state live in a slot table indexed directly by
// the high half of the EventId, split into a 16-byte metadata record
// (four per cache line, all the skim loop touches) and a 64-byte
// InlineCallback (loaded exactly once, on pop). Pushing never touches the
// heap allocator; with reserve() sized to the expected event population,
// steady-state push/pop is allocation-free. Cancellation flips the slot's
// state — no hash lookups anywhere — and dead entries are skimmed when
// they surface. rearm() retimes a pending event without releasing its
// slot or touching its callback: the old wheel entry becomes a tombstone
// (its seq no longer matches the slot's live seq) and a fresh entry is
// filed, which is exactly what cancel+push would have produced minus the
// callback churn. Slots are recycled through a free list; a generation
// counter folded into the EventId makes stale cancels (of an already-
// fired or recycled id) harmless no-ops.
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
  EventId push(util::Time t, Callback cb);
  // Marks an event as cancelled; it is discarded when it reaches the head.
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

  // Pre-sizes the slot table, free list, overflow list, and wheel-bucket
  // capacities for `expected_events` slots. A slot stays taken until the
  // tombstones its rearms left have drained, so the table can outgrow a
  // size taken from the live-event population and then doubles: a
  // 1 000-node trial with 4 786 live events at its peak took 7 765 slots.
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
    std::uint64_t live_seq = 0;   // seq of the entry that may fire this slot
    std::uint32_t generation = 0;
    // Bit 31: pending (pushed, not yet popped or cancelled). Bits 0..30:
    // count of wheel entries (live + tombstone) pointing at this slot.
    std::uint32_t entries_pending = 0;

    static constexpr std::uint32_t kPendingBit = 0x80000000u;
    bool pending() const { return (entries_pending & kPendingBit) != 0; }
    void set_pending(bool p) {
      entries_pending = p ? entries_pending | kPendingBit
                          : entries_pending & ~kPendingBit;
    }
    std::uint32_t entries() const { return entries_pending & ~kPendingBit; }
  };

  // EventId layout: (slot + 1) in the high 32 bits, generation in the low
  // 32. The +1 keeps every valid id distinct from kInvalidEventId.
  static EventId encode_(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }
  // Slot index for a valid-looking id, or >= meta_.size() when out of range.
  std::uint32_t decode_slot_(EventId id) const {
    const std::uint64_t slot_plus_1 = id >> 32;
    return slot_plus_1 == 0 ? static_cast<std::uint32_t>(meta_.size())
                            : static_cast<std::uint32_t>(slot_plus_1 - 1);
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

  // Files an entry into the wheel, the overflow list, or — for times at or
  // behind the drain cursor — the sorted remainder of the current bucket.
  void file_(Entry e) const;
  void bitmap_set_(std::size_t slot) const {
    occupancy_[slot >> 6] |= 1ull << (slot & 63);
  }
  void bitmap_clear_(std::size_t slot) const {
    occupancy_[slot >> 6] &= ~(1ull << (slot & 63));
  }
  // First occupied bucket at position >= from, or kBuckets when none.
  std::size_t bitmap_find_from_(std::size_t from) const;
  // Advances the drain cursor to the next entry (sorting its bucket on
  // arrival, migrating overflow entries at epoch boundaries). Returns
  // false when no entries remain anywhere.
  bool ensure_head_() const;
  // Precondition: ensure_head_() returned true.
  const Entry& head_() const { return buckets_[cur_slot_()][drain_]; }
  void pop_head_() const { ++drain_; }
  std::size_t cur_slot_() const {
    return static_cast<std::size_t>(cur_g_) & (kBuckets - 1);
  }

  // Skims dead entries (cancelled, fired, or rearm tombstones) off the
  // head; they are unobservable, so this is observably const. Returns
  // false when no live entry remains.
  bool drop_dead_() const;
  // One wheel entry referencing `slot` has surfaced; release the slot once
  // no entry references it and nothing is pending.
  void entry_surfaced_(std::uint32_t slot) const;
  void release_slot_(std::uint32_t slot) const;

  mutable std::vector<std::vector<Entry>> buckets_{kBuckets};
  mutable std::uint64_t occupancy_[kBitmapWords] = {};
  mutable std::vector<Entry> far_;     // entries beyond the current epoch
  mutable std::int64_t cur_g_ = 0;     // global bucket index being drained
  mutable std::size_t drain_ = 0;      // next position in the current bucket
  // The current bucket is sorted from drain_ onward — by insertion for
  // entries filed at the cursor, or by the deferred bulk sort below.
  mutable bool cur_sorted_ = true;
  mutable std::vector<SlotMeta> meta_;
  mutable std::vector<Callback> cbs_;  // parallel to meta_
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace essat::sim
