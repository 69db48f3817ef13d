// Contention explorer: a synthetic hot-spot workload that makes the paper's
// Section 3 visible.  The master writes K pages in a sequential section;
// all other nodes then read disjoint slices simultaneously.  The tool
// prints, for growing cluster sizes, the average and worst diff-request
// response time and an ASCII bar of the master's service backlog effect.
//
// Build & run:   ./build/contention_explorer
//                    [hub|tree|direct|sharded] [shards]
//                    [--mode base|replicated|broadcast|adaptive]
//
// --mode selects what the second column runs against the base system;
// adaptive mode routes every section through the rse::policy engine and
// reports its per-strategy decision counts.  Every other argument is a
// command-line spelling of a REPSEQ_* axis (see usage()).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

using namespace repseq;

namespace {

struct Sample {
  double avg_ms;
  double max_ms;
  double busy_max_s;  // busiest multicast-medium shard's transmit time
  std::array<std::uint64_t, rse::policy::kStrategyCount> by_strategy{};
};

// The one sequential-section site the workload opens.
constexpr std::uint32_t kSite = 1;

Sample probe(std::size_t nodes, ompnow::SeqMode mode, const net::NetConfig& ncfg,
             const rse::policy::PolicyConfig& pcfg) {
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 8u << 20;
  // One diff server fields O(N) queued requests for a hot page; the
  // retransmit timeout must cover that backlog at large N (same scaling as
  // bench/perf_sim).
  if (nodes > 256) {
    cfg.request_timeout = sim::milliseconds(static_cast<std::int64_t>(nodes));
  }
  tmk::Cluster cl(cfg, ncfg, nodes);
  rse::RseController rse(cl, bench::bench_flow());
  std::unique_ptr<rse::policy::PolicyEngine> policy;
  if (mode == ompnow::SeqMode::Adaptive) {
    policy = std::make_unique<rse::policy::PolicyEngine>(cl, pcfg);
  }
  ompnow::Team team(cl, mode, &rse, policy.get());

  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  const std::size_t elems = 64 * kIntsPerPage;  // 64 hot pages
  auto data = tmk::ShArray<int>::alloc(cl, elems, /*page_aligned=*/true);

  cl.run([&](tmk::NodeRuntime&) {
    // Two rounds, so an adaptive policy gets past its replicated bootstrap
    // and the steady-state decision shows in the second section.
    for (int round = 0; round < 2; ++round) {
      team.sequential(kSite, [&](const ompnow::Ctx&) {
        for (std::size_t i = 0; i < elems; ++i) data.store(i, static_cast<int>(i));
      });
      team.parallel([&](const ompnow::Ctx& ctx) {
        const auto r = ompnow::block_range(0, static_cast<long>(elems), ctx.tid, ctx.nthreads);
        long sum = 0;
        for (long i = r.lo; i < r.hi; ++i) sum += data.load(static_cast<std::size_t>(i));
        if (sum < 0) std::abort();  // keep the loop alive
      });
    }
  });

  util::Accumulator acc;
  for (net::NodeId n = 0; n < nodes; ++n) {
    acc.merge(cl.node(n).stats().par.response_ms);
  }
  double busy_max_s = 0;
  for (const tmk::HubOccupancy& o : cl.hub_occupancy()) {
    busy_max_s = std::max(busy_max_s, o.busy.seconds());
  }
  Sample s{acc.mean(), acc.max(), busy_max_s, {}};
  if (policy) s.by_strategy = policy->strategy_counts();
  return s;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [hub|tree|direct|sharded] [shards]"
               "   (= REPSEQ_TRANSPORT, REPSEQ_HUB_SHARDS)\n"
               "          [--mode base|replicated|broadcast|adaptive]\n"
               "          [--batch-window <microseconds>]   (= REPSEQ_BATCH_WINDOW)\n"
               "          [--trace <path>]   write a Perfetto trace (= REPSEQ_TRACE)\n"
               "          [--check races,protocol|all]   correctness checking (= REPSEQ_CHECK)\n"
               "REPSEQ_FLOW is checked, but the workload never faults inside a replicated\n"
               "section, so no flow-control variant changes its numbers.  REPSEQ_PIN_SITE\n"
               "takes site %u only, the one site the workload opens.\n",
               argv0, kSite);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ompnow::SeqMode mode = ompnow::SeqMode::Replicated;
  int positional = 0;

  // Every argument but --mode sets (overwrites) the variable it spells
  // before anything reads it, so a flag and its variable are one setting,
  // parsed and rejected by the same reader.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (positional == 2) return usage(argv[0]);
      ::setenv(positional++ == 0 ? "REPSEQ_TRANSPORT" : "REPSEQ_HUB_SHARDS", argv[i], 1);
      continue;
    }
    if (++i >= argc) return usage(argv[0]);
    if (arg == "--mode") {
      const auto m = apps::harness::parse_mode(argv[i]);
      if (!m || *m == apps::harness::Mode::Sequential) return usage(argv[0]);
      mode = apps::harness::seq_mode_for(*m);
    } else if (arg == "--batch-window") {
      ::setenv("REPSEQ_BATCH_WINDOW", argv[i], 1);
    } else if (arg == "--trace") {
      ::setenv("REPSEQ_TRACE", argv[i], 1);
    } else if (arg == "--check") {
      ::setenv("REPSEQ_CHECK", argv[i], 1);
    } else {
      return usage(argv[0]);
    }
  }
  // REPSEQ_TRACE and REPSEQ_CHECK are read at cluster construction.
  const net::NetConfig ncfg = bench::bench_net_config();
  bench::check_pin_sites({kSite});
  const rse::policy::PolicyConfig pcfg{bench::bench_pin_sites()};
  const std::size_t cap = bench::bench_nodes(1024);

  const bool adaptive = mode == ompnow::SeqMode::Adaptive;
  const char* right_label = "replicated avg/max (ms)";
  switch (mode) {
    case ompnow::SeqMode::MasterOnly:
      right_label = "base avg/max (ms)";
      break;
    case ompnow::SeqMode::Replicated:
      break;
    case ompnow::SeqMode::BroadcastAfter:
      right_label = "broadcast avg/max (ms)";
      break;
    case ompnow::SeqMode::Adaptive:
      right_label = "adaptive avg/max (ms)";
      break;
  }
  std::printf("Hot-spot response time vs cluster size (64 master-written pages)\n");
  if (ncfg.transport == net::TransportKind::ShardedHub) {
    std::printf("transport: %s (%zu shards)", net::transport_name(ncfg.transport),
                ncfg.hub_shards);
  } else {
    std::printf("transport: %s", net::transport_name(ncfg.transport));
  }
  if (ncfg.batch_window.ns > 0) {
    std::printf("   batch window: %.0f us", ncfg.batch_window.micros());
  }
  std::printf("\n\n");
  // Each header field is as wide as its row cell: the base cell's bar is
  // padded to its 24-mark cap.
  std::printf("%6s | %-41s | %-28s | %s\n", "nodes", "base avg/max response (ms)", right_label,
              "hub busy max (ms)");
  std::printf("-------+-------------------------------------------+------------------------------+"
              "----------------\n");
  for (std::size_t nodes : {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
    if (nodes > cap) break;
    const Sample base = probe(nodes, ompnow::SeqMode::MasterOnly, ncfg, pcfg);
    const Sample opt = probe(nodes, mode, ncfg, pcfg);
    const int bar = std::min(24, static_cast<int>(base.avg_ms * 4.0));
    std::printf("%6zu | %6.2f / %-7.2f %-24s | %6.2f / %-19.2f | %12.4f", nodes, base.avg_ms,
                base.max_ms, std::string(static_cast<std::size_t>(bar), '#').c_str(),
                opt.avg_ms, opt.max_ms, opt.busy_max_s * 1e3);
    if (adaptive) {
      std::printf("   [m/r/b %llu/%llu/%llu]",
                  static_cast<unsigned long long>(opt.by_strategy[0]),
                  static_cast<unsigned long long>(opt.by_strategy[1]),
                  static_cast<unsigned long long>(opt.by_strategy[2]));
    }
    std::printf("\n");
  }
  std::printf("\nBase-system response time grows with the requester count (FIFO service\n"
              "at the master, paper Section 3); replication removes those faults.\n");
  if (adaptive) {
    std::printf("Adaptive rows list sections per strategy (master-only/replicated/"
                "broadcast):\nthe first section of each site runs replicated, the "
                "rest follow the\ncost model.\n");
  }
  return 0;
}
