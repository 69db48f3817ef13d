#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace repseq::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  REPSEQ_CHECK(slots_.size() < kNil, "event slot space exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // kills every outstanding handle and heap record for this slot
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::cancel(Handle h) {
  if (h.slot == kNil || h.slot >= slots_.size() || slots_[h.slot].gen != h.gen) {
    return;  // never scheduled, already ran, already cancelled, or recycled
  }
  release_slot(h.slot);
  --live_;
}

void EventQueue::sift_up(std::size_t i) const {
  Item it = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!it.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = it;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  Item it = heap_[i];
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(it)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = it;
}

void EventQueue::heap_pop_top() const {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && item_dead(heap_[0])) {
    heap_pop_top();
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty();
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  REPSEQ_CHECK(!heap_.empty(), "next_time() on empty event queue");
  return heap_[0].time;
}

EventQueue::Popped EventQueue::pop() {
  drop_cancelled();
  REPSEQ_CHECK(!heap_.empty(), "pop() on empty event queue");
  const Item top = heap_[0];
  Popped out{top.time, std::move(slots_[top.slot].fn)};
  release_slot(top.slot);
  heap_pop_top();
  --live_;
  return out;
}

}  // namespace repseq::sim
