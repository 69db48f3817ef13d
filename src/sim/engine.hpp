// The discrete-event engine: owns the virtual clock, the event queue and the
// node fibers, and provides the blocking primitives (sleep / park / unpark)
// everything else is built from.
//
// Execution model: the engine pops the earliest event, advances the clock to
// its timestamp and runs its callback.  Callbacks either perform bookkeeping
// or unpark a fiber; unparked fibers run immediately (still at the current
// virtual instant) until they park again.  There is exactly one thread of
// host execution, so a fiber's code between yields is atomic with respect to
// every other fiber -- the simulated cluster's nondeterminism is entirely
// captured by virtual-time ordering, which is deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "util/check.hpp"

namespace repseq::sim {

using FiberRef = Fiber*;

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Creates a fiber and marks it runnable at the current time.
  FiberRef spawn(std::string name, std::function<void()> fn);

  /// Runs the simulation until no live events remain and no fiber is
  /// runnable.  Rethrows the first exception that escaped any fiber.
  /// Fibers still parked at exit are considered terminated (daemon fibers,
  /// e.g. request servers waiting for messages that will never come).
  void run();

  /// Schedules a callback `delay` from now.  May be called from fibers or
  /// from event callbacks.  Templated so the closure is constructed
  /// directly in its pooled event slot (see EventQueue::schedule).
  template <typename F>
  EventQueue::Handle schedule_in(SimDuration delay, F&& fn) {
    REPSEQ_CHECK(delay.ns >= 0, "negative delay");
    return events_.schedule(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  EventQueue::Handle schedule_at(SimTime t, F&& fn) {
    REPSEQ_CHECK(t >= now_, "cannot schedule in the past");
    return events_.schedule(t, std::forward<F>(fn));
  }
  void cancel(EventQueue::Handle h) { events_.cancel(h); }

  // ---- fiber-side primitives (must be called from inside a fiber) ----

  /// Advances this fiber's virtual time by `d` (uninterruptible sleep).
  void sleep_for(SimDuration d);

  /// Parks the current fiber until some event calls unpark() on it.
  void park();

  /// Makes `f` runnable at the current virtual instant.  Callable from event
  /// callbacks or from other fibers.
  void unpark(FiberRef f);

  /// The fiber currently executing (nullptr from event callbacks).
  [[nodiscard]] FiberRef current_fiber() const { return Fiber::current(); }

  /// Total events executed; a cheap progress / determinism probe.
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// High-water mark of simultaneously live events (perf telemetry).
  [[nodiscard]] std::size_t peak_live_events() const { return events_.peak_live(); }

 private:
  void make_runnable(FiberRef f);
  void drain_runnable();

  SimTime now_{};
  EventQueue events_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::deque<FiberRef> runnable_;
  std::uint64_t events_executed_ = 0;
  bool running_ = false;
};

/// A parking slot used to build condition-like blocking: a fiber registers,
/// parks, and is woken either by signal() or by a timeout event.
class WaitToken {
 public:
  explicit WaitToken(Engine& eng) : eng_(eng), fiber_(eng.current_fiber()) {}

  /// Wakes the owner if it is still waiting.  Returns true when this call
  /// performed the wake (loser of signal/timeout races gets false).
  bool signal();

  /// Parks until signalled.  Returns true if signalled, false if the
  /// optional timeout expired first.  No timeout when `timeout.ns < 0`.
  bool wait(SimDuration timeout = SimDuration{-1});

 private:
  Engine& eng_;
  FiberRef fiber_;
  bool signalled_ = false;
  bool done_ = false;
};

}  // namespace repseq::sim
