#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/snap/serializer.h"

namespace essat::sim {

void EventQueue::file_(Entry e) const {
  const std::int64_t g = bucket_of_(e.time);
  if (g <= cur_g_) {
    // At or behind the drain cursor: keep the cursor bucket's undrained
    // tail sorted so the entry fires in (time, seq) order.
    // Fast path: most cursor-bucket pushes (propagation-delay events a few
    // microseconds out) land at or past the bucket's current tail.
    if (cur_.size() == drain_ || !e.before(cur_.back())) {
      cur_.push_back(e);
      return;
    }
    const auto it = std::upper_bound(
        cur_.begin() + static_cast<std::ptrdiff_t>(drain_), cur_.end(), e,
        [](const Entry& a, const Entry& c) { return a.before(c); });
    cur_.insert(it, e);
    return;
  }
  if (epoch_of_(g) == epoch_of_(cur_g_)) {
    list_push_(static_cast<std::size_t>(g) & (kBuckets - 1), e);
    return;
  }
  far_.push_back(e);
}

void EventQueue::list_push_(std::size_t slot, Entry e) const {
  std::uint32_t link = free_node_;
  if (link != 0) {
    free_node_ = pool_[link - 1].next;
  } else {
    assert(pool_.size() < std::numeric_limits<std::uint32_t>::max());
    pool_.emplace_back();
    link = static_cast<std::uint32_t>(pool_.size());
  }
  pool_[link - 1] = Node{e, heads_[slot]};
  heads_[slot] = link;
  bitmap_set_(slot);
}

void EventQueue::take_cursor_bucket_() const {
  assert(cur_.empty());
  const std::size_t slot = cur_slot_();
  for (std::uint32_t link = heads_[slot]; link != 0;) {
    Node& n = pool_[link - 1];
    cur_.push_back(n.entry);
    const std::uint32_t next = n.next;
    n.next = free_node_;
    free_node_ = link;
    link = next;
  }
  heads_[slot] = 0;
  bitmap_clear_(slot);
  // The list is newest-first; filing order is closer to (time, seq) order,
  // which is the cheap case for the small-run sort.
  std::reverse(cur_.begin(), cur_.end());
  std::sort(cur_.begin(), cur_.end(),
            [](const Entry& a, const Entry& c) { return a.before(c); });
}

std::size_t EventQueue::bitmap_find_from_(std::size_t from) const {
  if (from >= kBuckets) return kBuckets;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
    }
    if (++word == kBitmapWords) return kBuckets;
    bits = occupancy_[word];
  }
}

bool EventQueue::ensure_head_() const {
  for (;;) {
    if (drain_ < cur_.size()) return true;
    // Cursor bucket exhausted: keep the vector's capacity for the next
    // bucket and hop to the next occupied one.
    cur_.clear();
    drain_ = 0;
    const std::size_t next = bitmap_find_from_(cur_slot_() + 1);
    if (next < kBuckets) {
      cur_g_ += static_cast<std::int64_t>(next - cur_slot_());
      take_cursor_bucket_();
      continue;
    }
    // Epoch drained. Jump straight to the earliest overflow epoch and pull
    // its entries wheel-ward; everything later keeps waiting in far_.
    if (far_.empty()) return false;
    std::int64_t min_epoch = std::numeric_limits<std::int64_t>::max();
    for (const Entry& e : far_) {
      min_epoch = std::min(min_epoch, epoch_of_(bucket_of_(e.time)));
    }
    cur_g_ = min_epoch << kBucketsLog2;
    for (std::size_t i = 0; i < far_.size();) {
      const std::int64_t g = bucket_of_(far_[i].time);
      if (epoch_of_(g) == min_epoch) {
        list_push_(static_cast<std::size_t>(g) & (kBuckets - 1), far_[i]);
        far_[i] = far_.back();
        far_.pop_back();
      } else {
        ++i;
      }
    }
    take_cursor_bucket_();
  }
}

void EventQueue::reserve(std::size_t expected_events) {
  meta_.reserve(expected_events);
  cbs_.reserve(expected_events);
  free_slots_.reserve(expected_events);
  far_.reserve(expected_events);
  // Every bucket draws its nodes from the one pool, so the wheel's storage
  // tracks the entries it holds, not the largest cluster each bucket ever
  // saw.
  pool_.reserve(expected_events);
  cur_.reserve(expected_events);
}

EventId EventQueue::push(util::Time t, Callback cb) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    cbs_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  assert(slot <= Entry::kSlotMask && "live-event population exceeds 2^24");
  // Entry packs seq into 64 - kSlotBits bits; past that the liveness
  // compare in drop_dead_ would treat every entry as a tombstone.
  assert(next_seq_ < (1ull << (64 - Entry::kSlotBits)) &&
         "event seq space exhausted (~1.1e12 pushes per queue)");
  SlotMeta& s = meta_[slot];
  cbs_[slot] = std::move(cb);
  s.live_seq = next_seq_;
  assert(s.entries() == 0);
  s.entries_pending = 1 | SlotMeta::kPendingBit;
  file_(Entry::make(t, next_seq_++, slot));
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  return encode_(slot, s.generation);
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t slot = decode_slot_(id);
  if (slot >= meta_.size()) return;
  SlotMeta& s = meta_[slot];
  // Only a pending event of the matching generation gets cancelled; a
  // recycled slot (different generation) or an already-fired id is a no-op.
  if (!s.pending() || s.generation != static_cast<std::uint32_t>(id)) return;
  s.set_pending(false);
  cbs_[slot] = nullptr;  // free the closure eagerly; wheel entries are tombstones
  --live_;
}

bool EventQueue::rearm(EventId id, util::Time t) {
  if (id == kInvalidEventId) return false;
  const std::uint32_t slot = decode_slot_(id);
  if (slot >= meta_.size()) return false;
  SlotMeta& s = meta_[slot];
  if (!s.pending() || s.generation != static_cast<std::uint32_t>(id)) {
    return false;
  }
  // The previous wheel entry's seq stops matching live_seq, turning it
  // into a tombstone that drop_dead_ skims when it surfaces. The slot (and
  // its callback) stay exactly where they are.
  s.live_seq = next_seq_;
  ++s.entries_pending;  // pending bit unchanged, entry count +1
  file_(Entry::make(t, next_seq_++, slot));
  return true;
}

void EventQueue::entry_surfaced_(std::uint32_t slot) const {
  SlotMeta& s = meta_[slot];
  assert(s.entries() > 0);
  --s.entries_pending;
  if (s.entries_pending == 0) release_slot_(slot);  // no entries, not pending
}

void EventQueue::release_slot_(std::uint32_t slot) const {
  ++meta_[slot].generation;
  free_slots_.push_back(slot);
}

bool EventQueue::drop_dead_() const {
  while (ensure_head_()) {
    const Entry& top = head_();
    const SlotMeta& s = meta_[top.slot()];
    if (s.pending() && s.live_seq == top.seq()) return true;  // live head
    entry_surfaced_(top.slot());
    pop_head_();
  }
  return false;
}

bool EventQueue::empty() const { return !drop_dead_(); }

util::Time EventQueue::next_time() const {
  const bool live = drop_dead_();
  assert(live);
  (void)live;
  return head_().time;
}

std::pair<util::Time, EventQueue::Callback> EventQueue::pop() {
  const bool live = drop_dead_();
  assert(live);
  (void)live;
  const Entry top = head_();  // POD copy; the callback lives in the slot
  SlotMeta& s = meta_[top.slot()];
  // Moving out leaves the slot's callback null — no copy, no destructor
  // work beyond the moved-from shell.
  std::pair<util::Time, Callback> out{top.time, std::move(cbs_[top.slot()])};
  s.set_pending(false);
  entry_surfaced_(top.slot());
  pop_head_();
  --live_;
  return out;
}

bool EventQueue::pop_until(util::Time limit, util::Time& t, Callback& cb,
                           EventId& id) {
  if (!drop_dead_()) return false;
  const Entry top = head_();
  if (top.time > limit) return false;
  SlotMeta& s = meta_[top.slot()];
  t = top.time;
  id = encode_(top.slot(), s.generation);  // before surfacing recycles the slot
  cb = std::move(cbs_[top.slot()]);
  s.set_pending(false);
  entry_surfaced_(top.slot());
  pop_head_();
  --live_;
  return true;
}

void EventQueue::save_state(snap::Serializer& out) const {
  // Collect every live entry: an entry is live iff its slot is pending and
  // it carries the slot's current seq (rearm tombstones, cancelled, and
  // already-fired entries fail the seq match). Walking the cursor bucket,
  // every bucket list and the overflow list visits dead entries too; the
  // filter drops them.
  std::vector<Entry> live;
  live.reserve(live_);
  auto consider = [&](const Entry& e) {
    const std::uint32_t slot = e.slot();
    if (slot < meta_.size() && meta_[slot].pending() &&
        meta_[slot].live_seq == e.seq()) {
      live.push_back(e);
    }
  };
  for (std::size_t i = drain_; i < cur_.size(); ++i) consider(cur_[i]);
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t link = head; link != 0; link = pool_[link - 1].next) {
      consider(pool_[link - 1].entry);
    }
  }
  for (const Entry& e : far_) consider(e);
  assert(live.size() == live_);
  // Pop order, independent of wheel geometry.
  std::sort(live.begin(), live.end(),
            [](const Entry& a, const Entry& b) { return a.before(b); });

  out.begin("EVTQ");
  out.u64(next_seq_);
  out.u64(live_);
  out.u64(peak_live_);
  for (const Entry& e : live) {
    out.time(e.time);
    out.u64(e.seq());
  }
  out.end();
}

}  // namespace essat::sim
