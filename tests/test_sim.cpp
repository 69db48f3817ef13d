#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"

namespace repseq::sim {
namespace {

TEST(Fiber, RunsToCompletionAcrossYields) {
  std::vector<int> order;
  Fiber f("t", [&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f("t", [&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesOnReap) {
  Fiber f("t", [] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_THROW(f.rethrow_if_failed(), std::runtime_error);
}

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{5}, [&] { fired.push_back(2); });
  q.schedule(SimTime{10}, [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, CancelSkipsEntry) {
  EventQueue q;
  std::vector<int> fired;
  auto h = q.schedule(SimTime{1}, [&] { fired.push_back(1); });
  q.schedule(SimTime{2}, [&] { fired.push_back(2); });
  q.cancel(h);
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_EQ(q.next_time(), SimTime{2});
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, CancelledHeadNeverObservedThenPopped) {
  // Cancel the event sitting at the heap head: empty()/next_time() must not
  // see it, and the subsequent pop must surface the live successor.
  EventQueue q;
  std::vector<int> fired;
  auto head = q.schedule(SimTime{1}, [&] { fired.push_back(1); });
  q.schedule(SimTime{5}, [&] { fired.push_back(2); });
  q.cancel(head);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime{5});
  auto popped = q.pop();
  EXPECT_EQ(popped.time, SimTime{5});
  popped.fn();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceAtHeapHeadIsIdempotent) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(SimTime{1}, [&] { ++fired; });
  q.schedule(SimTime{2}, [&] { ++fired; });
  q.cancel(h);
  q.cancel(h);  // second cancel must not disturb live accounting
  EXPECT_EQ(q.live_count(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
  q.cancel(h);  // and a cancel after everything drained is still inert
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, CancelAfterPopIsInertDespiteSlotReuse) {
  // A handle whose event already ran must stay dead even after its pooled
  // slot has been recycled for a newer event (generation counting).
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(SimTime{1}, [&] { ++fired; });
  q.pop().fn();
  auto h2 = q.schedule(SimTime{2}, [&] { fired += 10; });  // reuses the slot
  q.cancel(h);                                             // stale: must be a no-op
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_EQ(q.next_time(), SimTime{2});
  q.pop().fn();
  EXPECT_EQ(fired, 11);
  (void)h2;
}

TEST(EventQueue, CancelWholeQueueLeavesItEmpty) {
  EventQueue q;
  std::vector<EventQueue::Handle> hs;
  hs.reserve(10);
  for (int i = 0; i < 10; ++i) {
    hs.push_back(q.schedule(SimTime{i}, [] {}));
  }
  for (auto& h : hs) q.cancel(h);
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_live(), 10u);
}

TEST(EventQueue, CollisionsAndCancelsPopInTimeThenSequenceOrder) {
  // The (time, seq) order is total: surviving events pop by timestamp, and
  // events sharing one pop in scheduling order, whatever the heap shape
  // the cancellations leave behind.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventQueue::Handle> hs;
  const auto time_of = [](int i) { return (i * 37) % 50; };  // heavy collisions
  for (int i = 0; i < 100; ++i) {
    hs.push_back(q.schedule(SimTime{time_of(i)}, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 7) q.cancel(hs[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();

  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 7 != 0) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return time_of(a) < time_of(b); });
  EXPECT_EQ(fired, expected);
}

TEST(Engine, VirtualTimeAdvancesThroughSleeps) {
  Engine eng;
  std::vector<std::int64_t> wakes;
  eng.spawn("a", [&] {
    eng.sleep_for(microseconds(10));
    wakes.push_back(eng.now().ns);
    eng.sleep_for(microseconds(5));
    wakes.push_back(eng.now().ns);
  });
  eng.run();
  EXPECT_EQ(wakes, (std::vector<std::int64_t>{10'000, 15'000}));
}

TEST(Engine, FibersInterleaveDeterministically) {
  Engine eng;
  std::vector<std::string> log;
  eng.spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      eng.sleep_for(microseconds(10));
      std::string entry(1, 'a');
      entry += std::to_string(i);
      log.push_back(entry);
    }
  });
  eng.spawn("b", [&] {
    for (int i = 0; i < 3; ++i) {
      eng.sleep_for(microseconds(15));
      std::string entry(1, 'b');
      entry += std::to_string(i);
      log.push_back(entry);
    }
  });
  eng.run();
  // Wakes at a:10,20,30 and b:15,30,45.  The t=30 tie goes to b1: its event
  // was scheduled at t=15, before a2's at t=20 (FIFO tie-break by sequence).
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Engine, ParkUnparkRoundTrip) {
  Engine eng;
  bool woke = false;
  FiberRef sleeper = eng.spawn("sleeper", [&] {
    eng.park();
    woke = true;
  });
  eng.spawn("waker", [&] {
    eng.sleep_for(microseconds(1));
    eng.unpark(sleeper);
  });
  eng.run();
  EXPECT_TRUE(woke);
}

TEST(Engine, ExceptionInFiberEscapesRun) {
  Engine eng;
  eng.spawn("bad", [] { throw std::logic_error("fiber failure"); });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(WaitToken, TimeoutFiresWhenNotSignalled) {
  Engine eng;
  bool signalled = true;
  eng.spawn("t", [&] {
    WaitToken tok(eng);
    signalled = tok.wait(microseconds(50));
  });
  eng.run();
  EXPECT_FALSE(signalled);
  EXPECT_EQ(eng.now(), SimTime{} + microseconds(50));
}

TEST(Channel, FifoAcrossFibers) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  eng.spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) got.push_back(ch.pop());
  });
  eng.spawn("producer", [&] {
    for (int i = 0; i < 3; ++i) {
      eng.sleep_for(microseconds(5));
      ch.push(i);
    }
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Channel, PopWithTimeoutExpires) {
  Engine eng;
  Channel<int> ch(eng);
  std::optional<int> got = 42;
  eng.spawn("consumer", [&] { got = ch.pop_with_timeout(microseconds(10)); });
  eng.run();
  EXPECT_FALSE(got.has_value());
}

TEST(Channel, PopWithTimeoutReceivesValueInTime) {
  Engine eng;
  Channel<int> ch(eng);
  std::optional<int> got;
  eng.spawn("consumer", [&] { got = ch.pop_with_timeout(microseconds(100)); });
  eng.spawn("producer", [&] {
    eng.sleep_for(microseconds(10));
    ch.push(7);
  });
  eng.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(ChannelDeathTest, TwoReadersAbort) {
  // A channel has one reader: its wait slot holds one fiber.
  EXPECT_DEATH(
      {
        Engine eng;
        Channel<int> ch(eng);
        eng.spawn("reader-a", [&] { (void)ch.pop(); });
        eng.spawn("reader-b", [&] { (void)ch.pop(); });
        eng.run();
      },
      "two fibers read one channel");
}

TEST(Cpu, UncontestedComputeTakesExactTime) {
  Engine eng;
  Cpu cpu(eng, microseconds(50));
  eng.spawn("app", [&] { cpu.compute(microseconds(100)); });
  eng.run();
  EXPECT_EQ(eng.now(), SimTime{} + microseconds(100));
  EXPECT_EQ(cpu.busy_time(), microseconds(100));
}

TEST(Cpu, ServicePreemptsAndExtendsCompute) {
  Engine eng;
  Cpu cpu(eng, microseconds(50));
  SimTime app_done{};
  SimTime svc_done{};
  eng.spawn("app", [&] {
    cpu.compute(microseconds(100));
    app_done = eng.now();
  });
  eng.spawn("server", [&] {
    eng.sleep_for(microseconds(30));
    cpu.service(microseconds(40));
    svc_done = eng.now();
  });
  eng.run();
  // App computed 30us, was preempted for 40us of service, then finished the
  // remaining 70us: total 140us.
  EXPECT_EQ(svc_done, SimTime{} + microseconds(70));
  EXPECT_EQ(app_done, SimTime{} + microseconds(140));
  EXPECT_EQ(cpu.busy_time(), microseconds(100));
  EXPECT_EQ(cpu.service_time(), microseconds(40));
}

TEST(Cpu, BackToBackServicesQueueDelay) {
  Engine eng;
  Cpu cpu(eng, microseconds(50));
  std::vector<std::int64_t> done;
  eng.spawn("server", [&] {
    for (int i = 0; i < 3; ++i) {
      cpu.service(microseconds(10));
      done.push_back(eng.now().ns);
    }
  });
  eng.run();
  EXPECT_EQ(done, (std::vector<std::int64_t>{10'000, 20'000, 30'000}));
}

TEST(CpuDeathTest, TwoComputingFibersAbort) {
  // One application fiber computes on a CPU.  The second caller arrives
  // while the first waits out a service, when no compute leg is running.
  EXPECT_DEATH(
      {
        Engine eng;
        Cpu cpu(eng, microseconds(50));
        eng.spawn("server", [&] { cpu.service(microseconds(100)); });
        eng.spawn("app-a", [&] { cpu.compute(microseconds(10)); });
        eng.spawn("app-b", [&] { cpu.compute(microseconds(10)); });
        eng.run();
      },
      "two fibers compute on one CPU");
}

TEST(Cpu, AccrueFlushesAtQuantum) {
  Engine eng;
  Cpu cpu(eng, microseconds(10));
  eng.spawn("app", [&] {
    for (int i = 0; i < 100; ++i) cpu.accrue(microseconds(1));
    cpu.flush();
  });
  eng.run();
  EXPECT_EQ(eng.now(), SimTime{} + microseconds(100));
  EXPECT_EQ(cpu.busy_time(), microseconds(100));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ChanceRespectsProbabilityRoughly) {
  Rng r(7);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.01);
}

TEST(Rng, SplitStreamsDiverge) {
  Rng a(99);
  Rng b = a.split();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace repseq::sim
