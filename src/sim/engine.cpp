#include "sim/engine.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repseq::sim {

FiberRef Engine::spawn(std::string name, std::function<void()> fn) {
  fibers_.push_back(std::make_unique<Fiber>(std::move(name), std::move(fn)));
  FiberRef f = fibers_.back().get();
  make_runnable(f);
  return f;
}

void Engine::make_runnable(FiberRef f) {
  REPSEQ_CHECK(!f->finished(), "cannot schedule finished fiber " + f->name());
  runnable_.push_back(f);
}

void Engine::drain_runnable() {
  while (!runnable_.empty()) {
    FiberRef f = runnable_.front();
    runnable_.pop_front();
    if (f->finished()) continue;  // duplicate wake after completion
    if (obs::enabled(obs::Cat::Sim)) [[unlikely]] {
      obs::tracer().instant(obs::Cat::Sim, now_, f->trace_pid(), "sched",
                            obs::tracer().intern(f->name()));
    }
    f->resume();
    if (f->finished()) {
      f->rethrow_if_failed();
    }
  }
}

void Engine::run() {
  REPSEQ_CHECK(!running_, "Engine::run is not reentrant");
  running_ = true;
  drain_runnable();
  while (!events_.empty()) {
    EventQueue::Popped e = events_.pop();
    REPSEQ_CHECK(e.time >= now_, "event scheduled in the past");
    now_ = e.time;
    ++events_executed_;
    if (obs::enabled(obs::Cat::Sim)) [[unlikely]] {
      // Sampled, not per-event: the depth curve matters, not every step.
      if ((events_executed_ & 255u) == 0) {
        obs::tracer().counter(obs::Cat::Sim, now_, 0, "eventq-depth",
                              static_cast<double>(events_.live_count()));
      }
    }
    e.fn();
    drain_runnable();
  }
  running_ = false;
}

void Engine::sleep_for(SimDuration d) {
  REPSEQ_CHECK(d.ns >= 0, "negative sleep");
  FiberRef self = current_fiber();
  REPSEQ_CHECK(self != nullptr, "sleep_for must be called from a fiber");
  schedule_in(d, [this, self] { unpark(self); });
  Fiber::yield();
}

void Engine::park() {
  FiberRef self = current_fiber();
  REPSEQ_CHECK(self != nullptr, "park must be called from a fiber");
  Fiber::yield();
}

void Engine::unpark(FiberRef f) {
  REPSEQ_CHECK(f != nullptr, "unpark(nullptr)");
  make_runnable(f);
}

bool WaitToken::signal() {
  if (done_ || signalled_) return false;
  signalled_ = true;
  eng_.unpark(fiber_);
  return true;
}

bool WaitToken::wait(SimDuration timeout) {
  REPSEQ_CHECK(eng_.current_fiber() == fiber_, "WaitToken::wait from wrong fiber");
  EventQueue::Handle timer;
  if (timeout.ns >= 0) {
    timer = eng_.schedule_in(timeout, [this] {
      if (!done_ && !signalled_) {
        done_ = true;  // timed out: mark resolved so a late signal() is a no-op
        eng_.unpark(fiber_);
      }
    });
  }
  while (!signalled_ && !done_) {
    eng_.park();
  }
  if (timer) eng_.cancel(timer);
  const bool ok = signalled_;
  done_ = true;
  return ok;
}

}  // namespace repseq::sim
