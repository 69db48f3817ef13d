// Micro-benchmarks: vector timestamps, interval logs and the simulation
// engine's event dispatch -- the bookkeeping layer under every
// synchronization operation.
#include <string>
#include <utility>

#include "micro_runner.hpp"
#include "sim/engine.hpp"
#include "tmk/interval.hpp"
#include "tmk/vector_clock.hpp"

int main() {
  using namespace repseq;
  using microbench::bench;
  using microbench::do_not_optimize;
  using tmk::VectorClock;

  microbench::print_header();

  for (std::size_t n : {8, 32, 128}) {
    VectorClock a(n);
    VectorClock b(n);
    for (std::size_t i = 0; i < n; ++i) b.set(static_cast<std::uint32_t>(i), i * 3 % 17);
    const std::string name = "vector_clock_max/n_" + std::to_string(n);
    bench(name.c_str(), [&] {
      a.max_with(b);
      do_not_optimize(a);
    });
  }
  VectorClock covered(32);
  covered.set(7, 100);
  bench("vector_clock_covers", [&] { do_not_optimize(covered.covers(7, 99)); });

  // ns/op from here on is per batch: 64 inserts (each raising the log's
  // clock and indexing its two pages) plus one query, 1000 events, 1000
  // sleeps (two fiber switches each).
  bench("interval_log/insert_64_and_query", [] {
    tmk::IntervalLog log(32);
    for (std::uint32_t i = 1; i <= 64; ++i) {
      auto rec = util::make_pooled<tmk::IntervalRecord>();
      rec->owner = i % 32;
      rec->index = log.known(i % 32) + 1;
      rec->lamport = i;
      rec->pages = {i, i + 1};
      log.insert(std::move(rec));
    }
    do_not_optimize(log.records_after(VectorClock(32)).size());
  });
  bench("engine_dispatch/per_run_1000_events", [] {
    sim::Engine eng;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) eng.schedule_in(sim::microseconds(i), [&fired] { ++fired; });
    eng.run();
    do_not_optimize(fired);
  });
  bench("fiber_sleep/per_run_1000_sleeps", [] {
    sim::Engine eng;
    eng.spawn("spinner", [&eng] {
      for (int i = 0; i < 1000; ++i) eng.sleep_for(sim::microseconds(1));
    });
    eng.run();
  });
  return 0;
}
