// Per-node CPU model with interrupt-style request servicing.
//
// TreadMarks services remote requests from a SIGIO handler: an incoming diff
// request *preempts* the application, the node spends the service time, and
// the application's computation resumes where it left off.  That preemption
// is exactly what makes a node with many pending requests slow to respond --
// the paper's definition of contention.  This class reproduces it:
//
//   * the application fiber calls compute(d) (usually via accrue()/flush());
//   * the request-server fiber calls service(d) for each message, which
//     suspends any in-flight compute, consumes d, and then lets the
//     remaining compute continue.
//
// accrue()/flush() let application code charge fine-grained work (hundreds
// of millions of floating point operations) without one event per charge:
// accrued time is flushed to compute() whenever it crosses `quantum` or when
// the node is about to interact with the outside world (fault, sync, send).
#pragma once

#include <cstdint>

#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace repseq::sim {

class Cpu {
 public:
  Cpu(Engine& eng, SimDuration quantum) : eng_(eng), quantum_(quantum) {}

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Charges `d` of computation on the application fiber (a second
  /// computing fiber aborts).  Interruptible: concurrent service() calls
  /// extend the wall (virtual) time this takes.
  void compute(SimDuration d);

  /// Adds fine-grained work to the pending pile; flushes when it exceeds
  /// the quantum so remote requests observe a realistically busy CPU.
  void accrue(SimDuration d) {
    pending_ += d;
    if (pending_ >= quantum_) flush();
  }

  /// Converts all accrued work into simulated compute time.  Call before
  /// any communication or synchronization so virtual timestamps are exact.
  void flush() {
    if (pending_.ns > 0) {
      SimDuration d = pending_;
      pending_ = SimDuration{};
      compute(d);
    }
  }

  /// Charges `d` of request-service time on the server fiber, preempting
  /// any in-flight application compute (interrupt semantics).
  void service(SimDuration d);

  /// Total virtual time spent in compute() by the application fiber.
  [[nodiscard]] SimDuration busy_time() const { return busy_; }
  /// Total virtual time spent servicing requests.
  [[nodiscard]] SimDuration service_time() const { return serviced_; }

 private:
  Engine& eng_;
  SimDuration quantum_;
  SimDuration pending_{};

  // ---- preemption state ----
  FiberRef app_fiber_ = nullptr;        // fiber currently inside compute()
  EventQueue::Handle app_wake_{};       // its pending completion event
  SimTime app_started_{};               // when the current compute leg began
  bool app_interrupted_ = false;
  int service_depth_ = 0;
  WaitToken* cpu_free_waiter_ = nullptr;  // compute() waiting out a service

  SimDuration busy_{};
  SimDuration serviced_{};
};

}  // namespace repseq::sim
