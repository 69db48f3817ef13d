// An unbounded FIFO channel between fibers (message inboxes, reply slots).
// One fiber reads a channel: a node's request server reads its NIC inbox,
// its application fiber every other channel.  Mesa semantics: push wakes
// the reader, which re-checks the queue.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace repseq::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(eng) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; callable from fibers or event callbacks.
  void push(T v) {
    queue_.push_back(std::move(v));
    if (waiter_ != nullptr) waiter_->signal();
  }

  /// Blocks the calling fiber until a value is available.
  T pop() {
    while (queue_.empty()) park();
    return take();
  }

  /// Blocks up to `timeout`; empty optional on expiry.
  std::optional<T> pop_with_timeout(SimDuration timeout) {
    const SimTime deadline = eng_.now() + timeout;
    while (queue_.empty()) {
      const SimDuration remaining = deadline - eng_.now();
      if (remaining.ns <= 0) return std::nullopt;
      if (!park(remaining) && queue_.empty()) return std::nullopt;
    }
    return take();
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  /// Parks the reader until a push or the timeout (none when negative);
  /// false on timeout.
  bool park(SimDuration timeout = SimDuration{-1}) {
    REPSEQ_CHECK(waiter_ == nullptr, "two fibers read one channel");
    WaitToken tok(eng_);
    waiter_ = &tok;
    const bool signalled = tok.wait(timeout);
    waiter_ = nullptr;
    return signalled;
  }

  T take() {
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  Engine& eng_;
  std::deque<T> queue_;
  WaitToken* waiter_ = nullptr;
};

}  // namespace repseq::sim
