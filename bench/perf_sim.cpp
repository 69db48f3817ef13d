// perf_sim: the simulator's own performance trajectory.
//
// Unlike the table_* benches (which reproduce the paper's *simulated*
// numbers), this harness measures the simulator as a program: host
// wall-clock, executed events per second, peak live events and allocator
// traffic, over a pinned sweep of cluster sizes on the two paper workloads.
// Everything that could move the numbers is pinned here -- workload sizes,
// seeds, transport, flow control, heap size -- so runs are comparable
// across commits; results are emitted machine-readably to BENCH_sim.json
// for CI's regression gate (see .github/workflows/ci.yml and
// scripts/check_perf_regression.py).
//
// REPSEQ_NODES caps the sweep (e.g. REPSEQ_NODES=256 keeps {32,64,128,256})
// so CI can bound its budget; the full default sweep reaches 1024 nodes.
// A cap below the sweep's smallest size, 32, exits 2: there is no fallback
// row, so every row printed is one the cap admits.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "bench_common.hpp"
// Its operator new/delete replacements count this binary's allocations.
#include "micro_runner.hpp"

namespace repseq::bench {
namespace {

using apps::harness::Mode;
using apps::harness::RunOptions;
using apps::harness::RunReport;

/// The pinned run configuration.  Nothing here reads the usual REPSEQ_*
/// workload axes on purpose: a perf trajectory is only meaningful against
/// fixed inputs.
RunOptions pinned_options(std::size_t nodes) {
  RunOptions o;
  o.mode = Mode::Optimized;
  o.nodes = nodes;
  o.flow = rse::FlowControl::Chained;
  o.net = net::NetConfig{};  // hub switch, default timing
  o.tmk.heap_bytes = 24u << 20;
  // One diff server fields O(N) queued requests for a hot page; the
  // retransmit timeout must cover that service backlog at large N or the
  // protocol spends the run re-requesting (and eventually aborts).
  if (nodes > 256) {
    o.tmk.request_timeout = sim::milliseconds(static_cast<std::int64_t>(nodes));
  }
  return o;
}

struct PerfRow {
  const char* app;
  std::size_t nodes;
  double wall_s;
  std::uint64_t sim_events;
  double events_per_sec;
  std::size_t peak_live;
  std::uint64_t allocs;
  std::uint64_t alloc_bytes;
  double checksum;
  std::uint64_t msgs;
};

PerfRow measure(const char* app, std::size_t nodes, const RunReport& r,
                std::uint64_t allocs, std::uint64_t alloc_bytes) {
  PerfRow row;
  row.app = app;
  row.nodes = nodes;
  row.wall_s = r.host_wall_s;
  row.sim_events = r.sim_events;
  row.events_per_sec = r.host_wall_s > 0 ? static_cast<double>(r.sim_events) / r.host_wall_s : 0;
  row.peak_live = r.peak_live_events;
  row.allocs = allocs;
  row.alloc_bytes = alloc_bytes;
  row.checksum = r.checksum;
  row.msgs = r.total_msgs;
  return row;
}

/// Pre-PR reference for the headline comparison: the same pinned 256-node
/// Barnes-Hut run measured on the shared_ptr/std::function engine before
/// this optimization pass (ucontext fibers, per-event heap allocations,
/// eager page metadata).  The event count is engine-independent -- the
/// virtual-time schedule is identical -- so events/sec follows from the
/// recorded wall time.
constexpr double kPrePrBh256WallS = 60.48;

}  // namespace
}  // namespace repseq::bench

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using microbench::g_alloc_bytes;
  using microbench::g_allocs;

  const auto cap = static_cast<std::size_t>(util::env_long("NODES", 1024, 32));
  std::vector<std::size_t> node_counts;
  for (std::size_t n : {32, 64, 128, 256, 512, 1024}) {
    if (n <= cap) node_counts.push_back(n);
  }

  print_header("perf_sim: simulator host-performance sweep",
               "engineering telemetry (no paper table)",
               "pinned workloads; REPSEQ_NODES caps the sweep");

  apps::bh::BhConfig bh;
  bh.bodies = 2048;
  bh.steps = 2;

  apps::ilink::IlinkConfig il;  // pinned at struct defaults, seed included
  il.iterations = 4;

  std::vector<PerfRow> rows;
  std::printf("%-11s %6s %10s %12s %14s %10s %12s\n", "app", "nodes", "wall_s", "events",
              "events/sec", "peak_live", "allocs");
  for (std::size_t n : node_counts) {
    {
      const std::uint64_t a0 = g_allocs;
      const std::uint64_t b0 = g_alloc_bytes;
      RunReport r = run_barnes_hut(pinned_options(n), bh);
      rows.push_back(measure("barnes_hut", n, r, g_allocs - a0, g_alloc_bytes - b0));
    }
    {
      const std::uint64_t a0 = g_allocs;
      const std::uint64_t b0 = g_alloc_bytes;
      RunReport r = run_ilink(pinned_options(n), il);
      rows.push_back(measure("ilink", n, r, g_allocs - a0, g_alloc_bytes - b0));
    }
    for (std::size_t i = rows.size() - 2; i < rows.size(); ++i) {
      const PerfRow& row = rows[i];
      std::printf("%-11s %6zu %10.3f %12llu %14.0f %10zu %12llu\n", row.app, row.nodes,
                  row.wall_s, static_cast<unsigned long long>(row.sim_events),
                  row.events_per_sec, row.peak_live,
                  static_cast<unsigned long long>(row.allocs));
    }
  }

  // Headline: 256-node Barnes-Hut vs the recorded pre-PR engine.
  double headline_eps = 0;
  std::uint64_t headline_events = 0;
  for (const PerfRow& row : rows) {
    if (std::string(row.app) == "barnes_hut" && row.nodes == 256) {
      headline_eps = row.events_per_sec;
      headline_events = row.sim_events;
    }
  }

  std::FILE* f = std::fopen("BENCH_sim.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_sim.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"perf_sim\",\n");
  std::fprintf(f,
               "  \"pinned\": {\"mode\": \"Optimized\", \"transport\": \"hub\", "
               "\"flow\": \"chained\", \"heap_mb\": 24, \"bh_bodies\": 2048, "
               "\"bh_steps\": 2, \"ilink_iterations\": 4},\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PerfRow& row = rows[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"nodes\": %zu, \"wall_s\": %.4f, "
                 "\"sim_events\": %llu, \"events_per_sec\": %.1f, "
                 "\"peak_live_events\": %zu, \"allocations\": %llu, "
                 "\"alloc_bytes\": %llu, \"checksum\": %.6f, \"msgs\": %llu}%s\n",
                 row.app, row.nodes, row.wall_s,
                 static_cast<unsigned long long>(row.sim_events), row.events_per_sec,
                 row.peak_live, static_cast<unsigned long long>(row.allocs),
                 static_cast<unsigned long long>(row.alloc_bytes), row.checksum,
                 static_cast<unsigned long long>(row.msgs),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (headline_events > 0) {
    const double pre_eps = static_cast<double>(headline_events) / kPrePrBh256WallS;
    std::fprintf(f,
                 "  \"headline\": {\"workload\": \"barnes_hut_n256\", "
                 "\"events_per_sec\": %.1f, \"pre_pr_wall_s\": %.2f, "
                 "\"pre_pr_events_per_sec\": %.1f, \"speedup\": %.2f}\n",
                 headline_eps, kPrePrBh256WallS, pre_eps, headline_eps / pre_eps);
    std::printf("\nheadline: barnes_hut n=256  %.0f events/sec  (pre-PR %.0f; %.1fx)\n",
                headline_eps, pre_eps, headline_eps / pre_eps);
  } else {
    std::fprintf(f, "  \"headline\": null\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sim.json (%zu runs)\n", rows.size());
  return 0;
}
