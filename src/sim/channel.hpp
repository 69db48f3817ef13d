// An unbounded FIFO channel between fibers (message inboxes, reply slots).
// Mesa semantics: push wakes one waiter, waiters re-check the queue.
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
    wake_one();
  }

  /// Blocks the calling fiber until a value is available.
  T pop() {
    while (queue_.empty()) {
      WaitToken tok(eng_);
      waiters_.push_back(&tok);
      tok.wait();
      remove_waiter(&tok);
    }
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  /// Blocks up to `timeout`; empty optional on expiry.
  std::optional<T> pop_with_timeout(SimDuration timeout) {
    const SimTime deadline = eng_.now() + timeout;
    while (queue_.empty()) {
      const SimDuration remaining = deadline - eng_.now();
      if (remaining.ns <= 0) return std::nullopt;
      WaitToken tok(eng_);
      waiters_.push_back(&tok);
      const bool signalled = tok.wait(remaining);
      remove_waiter(&tok);
      if (!signalled && queue_.empty()) return std::nullopt;
    }
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  void wake_one() {
    // Signal the first waiter that accepts the wake (signal() is a no-op on
    // tokens that already timed out).
    for (WaitToken* w : waiters_) {
      if (w->signal()) return;
    }
  }

  void remove_waiter(WaitToken* tok) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == tok) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Engine& eng_;
  std::deque<T> queue_;
  std::deque<WaitToken*> waiters_;
};

}  // namespace repseq::sim
