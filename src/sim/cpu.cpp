#include "sim/cpu.hpp"

#include "util/check.hpp"

namespace repseq::sim {

void Cpu::compute(SimDuration d) {
  REPSEQ_CHECK(d.ns >= 0, "negative compute");
  FiberRef self = eng_.current_fiber();
  REPSEQ_CHECK(self != nullptr, "compute() must run on a fiber");
  REPSEQ_CHECK(app_fiber_ == nullptr, "nested compute() on one CPU");

  SimDuration remaining = d;
  while (remaining.ns > 0) {
    // Wait until no service is monopolizing the CPU.
    while (service_depth_ > 0) {
      REPSEQ_CHECK(cpu_free_waiter_ == nullptr, "two fibers compute on one CPU");
      WaitToken tok(eng_);
      cpu_free_waiter_ = &tok;
      tok.wait();
      cpu_free_waiter_ = nullptr;
    }
    app_fiber_ = self;
    app_started_ = eng_.now();
    app_interrupted_ = false;
    app_wake_ = eng_.schedule_in(remaining, [this, self] {
      app_wake_ = nullptr;
      eng_.unpark(self);
    });
    eng_.park();
    const SimDuration ran = eng_.now() - app_started_;
    busy_ += ran;
    app_fiber_ = nullptr;
    if (!app_interrupted_) {
      return;  // completed the full leg
    }
    remaining -= ran;
  }
}

void Cpu::service(SimDuration d) {
  REPSEQ_CHECK(d.ns >= 0, "negative service");
  FiberRef self = eng_.current_fiber();
  REPSEQ_CHECK(self != nullptr, "service() must run on a fiber");

  // Interrupt an in-flight application compute leg.
  if (app_fiber_ != nullptr && app_wake_ != nullptr) {
    eng_.cancel(app_wake_);
    app_wake_ = nullptr;
    app_interrupted_ = true;
    eng_.unpark(app_fiber_);  // it will account partial progress and requeue
  }

  ++service_depth_;
  eng_.sleep_for(d);
  serviced_ += d;
  --service_depth_;
  if (service_depth_ == 0 && cpu_free_waiter_ != nullptr) {
    cpu_free_waiter_->signal();  // the computing fiber waiting for the CPU
  }
}

}  // namespace repseq::sim
