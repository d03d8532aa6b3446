#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/snap/serializer.h"

namespace essat::sim {

void EventQueue::file_(std::uint32_t slot, util::Time t) {
  SlotMeta& s = meta_[slot];
  s.live_seq = next_seq_;
  s.node = 0;
  const Entry e = Entry::make(t, next_seq_++, slot);
  const std::int64_t g = bucket_of_(t);
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
    s.node = list_push_(wheel_slot_(g), e);
    return;
  }
  far_.push_back(e);
}

std::uint32_t EventQueue::list_push_(std::size_t bucket, Entry e) const {
  std::uint32_t link = free_node_;
  if (link != 0) {
    free_node_ = pool_[link - 1].next;
  } else {
    assert(pool_.size() < std::numeric_limits<std::uint32_t>::max());
    pool_.emplace_back();
    link = static_cast<std::uint32_t>(pool_.size());
  }
  const std::uint32_t head = heads_[bucket];
  pool_[link - 1] = Node{e, head, 0};
  if (head != 0) pool_[head - 1].prev = link;
  heads_[bucket] = link;
  bitmap_set_(bucket);
  return link;
}

void EventQueue::unlink_(std::uint32_t link) {
  Node& n = pool_[link - 1];
  if (n.prev != 0) {
    pool_[n.prev - 1].next = n.next;
  } else {
    const std::size_t bucket = wheel_slot_(bucket_of_(n.entry.time));
    heads_[bucket] = n.next;
    if (n.next == 0) bitmap_clear_(bucket);
  }
  if (n.next != 0) pool_[n.next - 1].prev = n.prev;
  n.next = free_node_;
  free_node_ = link;
}

void EventQueue::take_cursor_bucket_() const {
  assert(cur_.empty());
  const std::size_t bucket = wheel_slot_(cur_g_);
  for (std::uint32_t link = heads_[bucket]; link != 0;) {
    Node& n = pool_[link - 1];
    assert(is_live_(n.entry) && "a bucket list holds a dead entry");
    cur_.push_back(n.entry);
    meta_[n.entry.slot()].node = 0;  // now in the cursor bucket
    const std::uint32_t next = n.next;
    n.next = free_node_;
    free_node_ = link;
    link = next;
  }
  heads_[bucket] = 0;
  bitmap_clear_(bucket);
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
    const std::size_t here = wheel_slot_(cur_g_);
    const std::size_t next = bitmap_find_from_(here + 1);
    if (next < kBuckets) {
      cur_g_ += static_cast<std::int64_t>(next - here);
      take_cursor_bucket_();
      continue;
    }
    // Epoch drained. Drop the overflow list's dead entries, jump straight
    // to the earliest epoch among the rest and pull its entries wheel-ward;
    // everything later keeps waiting in far_.
    std::int64_t min_epoch = std::numeric_limits<std::int64_t>::max();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const Entry e = far_[i];
      if (!is_live_(e)) continue;
      min_epoch = std::min(min_epoch, epoch_of_(bucket_of_(e.time)));
      far_[kept++] = e;
    }
    far_.resize(kept);
    if (far_.empty()) return false;
    cur_g_ = min_epoch << kBucketsLog2;
    for (std::size_t i = 0; i < far_.size();) {
      const Entry e = far_[i];
      const std::int64_t g = bucket_of_(e.time);
      if (epoch_of_(g) == min_epoch) {
        meta_[e.slot()].node = list_push_(wheel_slot_(g), e);
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

EventId EventQueue::push(util::Time t, Callback&& cb) {
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
  // Entry packs seq into 64 - kSlotBits bits; past that a live entry's
  // seq would no longer match its slot's live_seq.
  assert(next_seq_ < (1ull << (64 - Entry::kSlotBits)) &&
         "event seq space exhausted (~1.1e12 pushes per queue)");
  cbs_[slot] = std::move(cb);
  file_(slot, t);
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  return encode_(slot, meta_[slot].generation);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = pending_slot_(id);
  if (slot == meta_.size()) return;
  // A listed entry leaves the wheel now; one in the cursor bucket or the
  // overflow list stays behind, dead, until it is skimmed or dropped.
  if (meta_[slot].node != 0) unlink_(meta_[slot].node);
  cbs_[slot] = nullptr;  // free the closure eagerly
  release_slot_(slot);
  --live_;
}

bool EventQueue::rearm(EventId id, util::Time t) {
  const std::uint32_t slot = pending_slot_(id);
  if (slot == meta_.size()) return false;
  // The slot (and its callback) stay exactly where they are; only the
  // entry moves, as in cancel.
  if (meta_[slot].node != 0) unlink_(meta_[slot].node);
  file_(slot, t);
  return true;
}

void EventQueue::release_slot_(std::uint32_t slot) {
  SlotMeta& s = meta_[slot];
  s.live_seq = SlotMeta::kNoSeq;
  s.node = 0;
  ++s.generation;
  free_slots_.push_back(slot);
}

bool EventQueue::drop_dead_() const {
  while (ensure_head_()) {
    if (is_live_(head_())) return true;
    ++skimmed_;
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
  pop_head_();
  // Moving out leaves the slot's callback null — no copy, no destructor
  // work beyond the moved-from shell.
  std::pair<util::Time, Callback> out{top.time, std::move(cbs_[top.slot()])};
  release_slot_(top.slot());
  --live_;
  return out;
}

bool EventQueue::pop_until(util::Time limit, util::Time& t, Callback& cb,
                           EventId& id) {
  if (!drop_dead_()) return false;
  const Entry top = head_();
  if (top.time > limit) return false;
  pop_head_();
  t = top.time;
  id = encode_(top.slot(), meta_[top.slot()].generation);  // before release
  cb = std::move(cbs_[top.slot()]);
  release_slot_(top.slot());
  --live_;
  return true;
}

void EventQueue::save_state(snap::Serializer& out) const {
  // Collect every live entry: an entry is live iff it carries its slot's
  // live seq (cancelled, re-timed and already-fired entries fail the
  // match). The cursor bucket and the overflow list hold dead entries too;
  // the filter drops them.
  std::vector<Entry> live;
  live.reserve(live_);
  auto consider = [&](const Entry& e) {
    if (is_live_(e)) live.push_back(e);
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
