// Cancellable event queue for the discrete-event engine, built for zero
// steady-state allocation: entries live in a slab of pooled slots reused
// through a free list, callbacks are stored inline (no per-event
// std::function heap cell), and the ready structure is an implicit 4-ary
// heap of 24-byte plain records.
//
// Ties on the timestamp are broken by insertion sequence number, which makes
// the event order -- and therefore the whole simulation -- deterministic
// (the (time, seq) order is total).  Four children per node beat a binary
// heap on the schedule/pop microbenchmark of the 256-node sweeps (shallower
// tree, sift-down touches one cache line of children per level).
//
// Cancellation is O(1) and eager on the slot, lazy on the heap: the slot's
// callback is destroyed and the slot recycled immediately (generation
// counters make the stale heap record inert), while the 24-byte heap record
// is skipped when it surfaces.  The CPU-preemption model cancels and
// reschedules wake events frequently, so cancel must not pay a heap
// removal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/clock.hpp"

namespace repseq::sim {

/// Type-erased one-shot callback with inline storage sized so that every
/// event closure in the simulator (the largest captures a net::Message plus
/// a receiver list) fits without a heap allocation.  A callable that does
/// not fit is a compile error, so no event ever pays a heap cell.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 104;

  EventFn() = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t),
                  "event closure does not fit EventFn's inline buffer (kInlineBytes)");
    reset();
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
    manage_ = [](Action a, void* p, void* other) {
      if (a == Action::Destroy) {
        static_cast<D*>(p)->~D();
      } else {
        ::new (other) D(std::move(*static_cast<D*>(p)));
        static_cast<D*>(p)->~D();
      }
    };
  }

  void reset() {
    if (manage_ != nullptr) {
      manage_(Action::Destroy, buf_, nullptr);
      manage_ = nullptr;
      invoke_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  enum class Action : std::uint8_t { Destroy, MoveTo };

  void move_from(EventFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Action::MoveTo, o.buf_, buf_);
      o.manage_ = nullptr;
      o.invoke_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Action, void*, void*) = nullptr;
};

class EventQueue {
 public:
  using Callback = EventFn;

  /// Generation-counted reference to a scheduled event.  Handles are small
  /// values; a handle whose event already ran (or was cancelled, or whose
  /// slot was recycled) is simply inert -- cancel() on it is a no-op.
  struct Handle {
    std::uint32_t slot = kNil;
    std::uint32_t gen = 0;

    Handle() = default;
    Handle(std::uint32_t s, std::uint32_t g) : slot(s), gen(g) {}
    Handle(std::nullptr_t) {}  // NOLINT: ergonomic `handle = nullptr` reset
    Handle& operator=(std::nullptr_t) {
      slot = kNil;
      gen = 0;
      return *this;
    }
    [[nodiscard]] explicit operator bool() const { return slot != kNil; }
    [[nodiscard]] bool operator==(std::nullptr_t) const { return slot == kNil; }
    [[nodiscard]] bool operator!=(std::nullptr_t) const { return slot != kNil; }
  };

  /// An event surfaced by pop(): its timestamp and the callback, moved out
  /// of the pool (the slot is recycled before pop() returns, so the
  /// callback may freely schedule new events).
  struct Popped {
    SimTime time;
    EventFn fn;
  };

  /// Schedules `fn` to run at absolute time `t`.  Returns a handle usable
  /// with cancel().  The callback is constructed directly in its pooled
  /// slot; no allocation happens unless the slab or heap must grow.
  template <typename F>
  Handle schedule(SimTime t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].fn.emplace(std::forward<F>(fn));
    const Handle h{slot, slots_[slot].gen};
    heap_.push_back(Item{t, next_seq_++, slot, h.gen});
    sift_up(heap_.size() - 1);
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return h;
  }

  /// Cancels an event: O(1), safe to call twice or on a handle whose event
  /// already ran.  The callback is destroyed and the slot recycled
  /// immediately; the stale heap record is pruned when it surfaces.
  void cancel(Handle h);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const;

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event.  Precondition: !empty().
  Popped pop();

  [[nodiscard]] std::size_t live_count() const { return live_; }
  /// High-water mark of simultaneously scheduled live events.
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
  };

  /// One heap record.  `gen` pins the slot generation this record refers
  /// to; a mismatch means the event was cancelled and the record is dead.
  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    [[nodiscard]] bool before(const Item& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  [[nodiscard]] bool item_dead(const Item& it) const { return slots_[it.slot].gen != it.gen; }

  /// Removes dead records from the heap top so that the public observers
  /// never see a cancelled head.  Called from const observers: the heap and
  /// pool are mutable because pruning is a pure cache-maintenance effect
  /// (live_ and the pop order are unchanged).
  void drop_cancelled() const;

  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Removes the heap top (no slot bookkeeping).
  void heap_pop_top() const;

  // mutable: drop_cancelled() prunes dead records from const observers.
  mutable std::vector<Item> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace repseq::sim
