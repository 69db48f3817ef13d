// Micro-benchmarks for the observability layer's hot-path cost.
//
// The claim to pin: a DISABLED tracer hook is one load-and-test of the
// global category mask, indistinguishable from the unhooked loop -- the
// simulator's hot paths (event dispatch, sends, faults) pay nothing when
// REPSEQ_TRACE is unset.  The enabled rows quantify what a recording run
// pays per event, and that the Accumulator percentile path stays
// allocation-free in steady state.
#include <cstdint>

#include "micro_runner.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "util/stats_accum.hpp"

int main() {
  using namespace repseq;
  using microbench::bench;
  using microbench::do_not_optimize;

  microbench::print_header();

  // Baseline: the kind of integer work a hook would sit next to.
  std::uint64_t acc = 0;
  std::uint64_t x = 0;
  bench("loop/baseline", [&] {
    acc += ++x * 2654435761u;
    do_not_optimize(acc);
  });

  // The same loop with a disabled tracer hook in the body: the overhead of
  // the enabled() branch must vanish into noise against the row above.
  obs::tracer().configure("", 0);
  bench("loop/disabled-trace-hook", [&] {
    acc += ++x * 2654435761u;
    if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
      obs::tracer().instant(obs::Cat::Tmk, sim::SimTime{static_cast<std::int64_t>(x)}, 1,
                            "bench", "tick", {{"x", static_cast<double>(x)}});
    }
    do_not_optimize(acc);
  });

  // Enabled recording cost per event (slab append, no write): the price a
  // traced run pays, amortized-allocation-free once the slabs exist.
  obs::tracer().configure("/dev/null");
  std::int64_t t = 0;
  bench("trace/instant-enabled", [&] {
    obs::tracer().instant(obs::Cat::Tmk, sim::SimTime{++t}, 1, "bench", "tick",
                          {{"x", static_cast<double>(t)}});
    if ((t & 0xffff) == 0) obs::tracer().configure("/dev/null");  // cap memory
  });
  bench("trace/span-enabled", [&] {
    ++t;
    obs::tracer().begin(obs::Cat::Rse, sim::SimTime{t}, 1, "bench", "section");
    obs::tracer().end(obs::Cat::Rse, sim::SimTime{t + 1}, 1, "bench");
    if ((t & 0xffff) == 0) obs::tracer().configure("/dev/null");
  });
  obs::tracer().configure("", 0);

  // Accumulator with the streaming-percentile histogram: add stays O(1)
  // and allocation-free after the first sample's bucket allocation.
  util::Accumulator a;
  a.add(1.0);
  double v = 1.0;
  bench("accumulator/add", [&] {
    v = v * 1.0000001 + 0.001;
    a.add(v);
  });
  bench("accumulator/p99", [&] { do_not_optimize(a.percentile(0.99)); });

  return 0;
}
