// Vector-backed ring buffer replacing std::deque on MAC hot paths.
//
// std::deque cycles fixed-size chunks through the allocator: a queue that
// oscillates between empty and one element (the steady state of every MAC
// send queue) keeps allocating and freeing chunks. This ring keeps one
// power-of-two buffer that only grows, so steady-state push/pop is
// allocation-free — and the buffer starts empty (no heap touch at all for
// nodes that never enqueue, which matters when there are a million of them).
//
// Supports the exact operations CsmaMac needs: push_back, pop_front,
// indexed access from the front, and erase-at-index (the tx-filter path
// pulls admitted frames out of the middle). Elements are moved, not
// required to be trivially copyable.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace essat::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(RingQueue&&) = default;
  RingQueue& operator=(RingQueue&&) = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  // Heap footprint, for the memory-budget benches.
  std::size_t capacity_bytes() const { return cap_ * sizeof(T); }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    return const_cast<RingQueue*>(this)->operator[](i);
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T v) {
    if (size_ == cap_) grow_();
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(v);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T out = std::move(buf_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return out;
  }

  // Removes and returns the element at index `i` (from the front),
  // preserving the relative order of the rest. Shifts whichever side is
  // shorter, so popping near the head or the tail stays O(1)-ish.
  T take_at(std::size_t i) {
    assert(i < size_);
    T out = std::move((*this)[i]);
    if (i < size_ - i - 1) {
      for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
      head_ = (head_ + 1) & (cap_ - 1);
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
    }
    --size_;
    return out;
  }

  void clear() {
    while (size_ > 0) (void)pop_front();
  }

  // Snapshot hook (attestation only: restore replays). Capacity and the
  // head offset are serialized alongside the live elements, so a replay
  // whose wrap-around or growth diverged is caught. `save_elem` handles the
  // element payload.
  template <typename Ser, typename SaveElem>
  void save_state(Ser& out, SaveElem&& save_elem) const {
    out.u64(static_cast<std::uint64_t>(cap_));
    out.u64(static_cast<std::uint64_t>(head_));
    out.u64(static_cast<std::uint64_t>(size_));
    for (std::size_t i = 0; i < size_; ++i) save_elem(out, (*this)[i]);
  }

 private:
  void grow_() {
    const std::size_t new_cap = cap_ == 0 ? 4 : cap_ * 2;
    std::unique_ptr<T[]> fresh(new T[new_cap]);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace essat::util
