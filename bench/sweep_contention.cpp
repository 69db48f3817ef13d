// Figure-style experiment F1 (paper Section 3): contention as queueing.
//
// The master writes a block of pages in a sequential section; all other
// nodes then read disjoint slices simultaneously, so every diff request
// converges on the master.  The sweep shows the average response time
// growing with the number of simultaneous requesters -- "the service time
// for a request that arrives at a node with pending requests is increased
// by the time required to process all pending requests".
#include "bench_common.hpp"
#include "ompnow/team.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/access.hpp"

namespace {

// The adaptive rows' section sites: the master's producer section and
// the consumer section that reads the block back.
constexpr std::uint32_t kProducerSite = 1;
constexpr std::uint32_t kConsumerSite = 2;

struct Point {
  double avg_ms;
  double max_ms;
  double par_s;
};

Point probe(std::size_t nodes) {
  using namespace repseq;
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 8u << 20;
  net::NetConfig ncfg = bench::bench_net_config();
  tmk::Cluster cl(cfg, ncfg, nodes);
  rse::RseController rse(cl, bench::bench_flow());
  ompnow::Team team(cl, ompnow::SeqMode::MasterOnly, &rse);

  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  const std::size_t elems = 96 * kIntsPerPage;
  auto data = tmk::ShArray<int>::alloc(cl, elems, /*page_aligned=*/true);

  cl.run([&](tmk::NodeRuntime&) {
    team.sequential([&](const ompnow::Ctx&) {
      for (std::size_t i = 0; i < elems; ++i) data.store(i, 1);
    });
    team.parallel([&](const ompnow::Ctx& ctx) {
      const auto r = ompnow::block_range(0, static_cast<long>(elems), ctx.tid, ctx.nthreads);
      long sum = 0;
      for (long i = r.lo; i < r.hi; ++i) sum += data.load(static_cast<std::size_t>(i));
      if (sum < 0) std::abort();
    });
  });

  util::Accumulator acc;
  for (net::NodeId n = 0; n < nodes; ++n) acc.merge(cl.node(n).stats().par.response_ms);
  return {acc.mean(), acc.max(), team.parallel_time().seconds()};
}

struct OccPoint {
  double checksum;
  double busy_max_ms;        // busiest multicast-medium shard
  double busy_total_ms;      // summed over shards
  std::uint64_t frames_max;  // frames on the busiest-by-frames shard
  std::uint64_t frames_total;
  std::size_t shards;
};

/// Hub-occupancy probe: every node writes a disjoint page slice in
/// parallel, then a REPLICATED sequential section reads all of it, so every
/// node faults on everyone else's pages and the flow-controlled multicast
/// rounds (one group per page) carry the diffs.  On a single hub all
/// rounds serialize on one medium; the sharded hub spreads them, so the
/// busiest shard's transmit time drops while the checksum is invariant.
OccPoint occupancy_probe(std::size_t nodes) {
  using namespace repseq;
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 8u << 20;
  net::NetConfig ncfg = bench::bench_net_config();
  tmk::Cluster cl(cfg, ncfg, nodes);
  rse::RseController rse(cl, bench::bench_flow());
  ompnow::Team team(cl, ompnow::SeqMode::Replicated, &rse);

  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  const std::size_t elems = 96 * kIntsPerPage;
  auto data = tmk::ShArray<int>::alloc(cl, elems, /*page_aligned=*/true);

  double checksum = 0;
  cl.run([&](tmk::NodeRuntime&) {
    team.parallel([&](const ompnow::Ctx& ctx) {
      const auto r = ompnow::block_range(0, static_cast<long>(elems), ctx.tid, ctx.nthreads);
      for (long i = r.lo; i < r.hi; ++i) {
        data.store(static_cast<std::size_t>(i), static_cast<int>(i % 97));
      }
    });
    team.sequential([&](const ompnow::Ctx&) {
      long sum = 0;
      for (std::size_t i = 0; i < elems; ++i) sum += data.load(i);
      checksum = static_cast<double>(sum);
    });
  });

  OccPoint p{checksum, 0, 0, 0, 0, 0};
  const std::vector<tmk::HubOccupancy> occ = cl.hub_occupancy();
  p.shards = occ.size();
  for (const tmk::HubOccupancy& o : occ) {
    const double ms = o.busy.seconds() * 1e3;
    p.busy_max_ms = std::max(p.busy_max_ms, ms);
    p.busy_total_ms += ms;
    p.frames_max = std::max(p.frames_max, o.mcast_msgs);
    p.frames_total += o.mcast_msgs;
  }
  return p;
}

struct AdaptivePoint {
  double total_s;
  double checksum;
  std::uint64_t sections;
  std::array<std::uint64_t, repseq::rse::policy::kStrategyCount> by_strategy{};
  std::uint64_t switches;
  std::string site_policy;  // per-site "site:decisions/switches/final"
};

/// Adaptive-policy probe over the same hot-spot workload, repeated for a few
/// rounds so the policy converges past its bootstrap: the master writes the
/// block, everyone reads it, and the rse::policy engine picks the section
/// strategy per round.  Run with REPSEQ_PIN_SITE=<site>=<strategy>[,...] to
/// pin sites for A/B runs (kProducerSite and kConsumerSite; any other site
/// exits 2).
AdaptivePoint adaptive_probe(std::size_t nodes) {
  using namespace repseq;
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 8u << 20;
  net::NetConfig ncfg = bench::bench_net_config();
  tmk::Cluster cl(cfg, ncfg, nodes);
  rse::RseController rse(cl, bench::bench_flow());
  rse::policy::PolicyEngine policy(cl, {bench::bench_pin_sites()});
  ompnow::Team team(cl, ompnow::SeqMode::Adaptive, &rse, &policy);

  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  const std::size_t elems = 96 * kIntsPerPage;
  auto data = tmk::ShArray<int>::alloc(cl, elems, /*page_aligned=*/true);

  long checksum = 0;
  const sim::SimDuration total = cl.run([&](tmk::NodeRuntime&) {
    for (int round = 0; round < 4; ++round) {
      team.sequential(kProducerSite, [&](const ompnow::Ctx&) {
        for (std::size_t i = 0; i < elems; ++i) data.store(i, static_cast<int>(i % 97) + round);
      });
      team.parallel([&](const ompnow::Ctx& ctx) {
        const auto r = ompnow::block_range(0, static_cast<long>(elems), ctx.tid, ctx.nthreads);
        long sum = 0;
        for (long i = r.lo; i < r.hi; ++i) sum += data.load(static_cast<std::size_t>(i));
        if (sum < 0) std::abort();
      });
      team.sequential(kConsumerSite, [&](const ompnow::Ctx&) {
        long sum = 0;
        for (std::size_t i = 0; i < elems; ++i) sum += data.load(i);
        checksum = sum;
      });
    }
  });

  AdaptivePoint p{};
  p.total_s = total.seconds();
  p.checksum = static_cast<double>(checksum);
  p.sections = policy.sections();
  p.by_strategy = policy.strategy_counts();
  p.switches = policy.switches();
  p.site_policy = apps::harness::site_policy_summary(policy.decisions());
  return p;
}

}  // namespace

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  check_pin_sites({kProducerSite, kConsumerSite});
  print_header("Sweep: hot-spot response time vs simultaneous requesters",
               "PPoPP'01 Section 3 (and reference [11])",
               "synthetic: 96 master-written pages read by all nodes at once");

  const std::vector<std::size_t> node_counts = sweep_node_counts();
  util::Table t({"nodes", "avg response (ms)", "max response (ms)", "parallel phase (s)"});
  double r_lo = 0;
  double r_hi = 0;
  for (std::size_t nodes : node_counts) {
    const Point p = probe(nodes);
    if (nodes == node_counts.front()) r_lo = p.avg_ms;
    if (nodes == node_counts.back()) r_hi = p.avg_ms;
    t.add_row({std::to_string(nodes), fmt2(p.avg_ms), fmt2(p.max_ms), fmt2(p.par_s)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nShape check: response time grows with requester count: %s (%.2f -> %.2f ms,"
              " %.1fx)\n",
              r_hi > 2.0 * r_lo ? "yes" : "NO", r_lo, r_hi, r_hi / (r_lo > 0 ? r_lo : 1));

  std::printf("\nMulticast-medium occupancy under replicated sequential execution\n"
              "(96 pages, one RSE round per page; transport %s)\n",
              net::transport_name(bench_transport()));
  util::Table occ_t({"nodes", "shards", "max-per-hub busy (ms)", "total busy (ms)",
                     "max-per-hub frames", "total frames", "checksum"});
  OccPoint last{};
  for (std::size_t nodes : node_counts) {
    const OccPoint p = occupancy_probe(nodes);
    last = p;
    occ_t.add_row({std::to_string(nodes), std::to_string(p.shards), fmt2(p.busy_max_ms),
                   fmt2(p.busy_total_ms), std::to_string(p.frames_max),
                   std::to_string(p.frames_total), util::fmt_fixed(p.checksum, 0)});
  }
  std::printf("%s", occ_t.render().c_str());
  std::printf("\nAt %zu nodes the busiest of %zu hub shard(s) transmitted for %.2f ms"
              " (checksum %.0f).\nRun with REPSEQ_TRANSPORT=sharded REPSEQ_HUB_SHARDS=4 vs"
              " REPSEQ_TRANSPORT=hub to see the\nmax-per-hub busy drop at an identical"
              " checksum.\n",
              node_counts.back(), last.shards, last.busy_max_ms, last.checksum);

  std::printf("\nAdaptive policy on the hot-spot workload (4 rounds)\n");
  util::Table ad_t({"nodes", "total (s)", "sections", "master-only", "replicated",
                    "broadcast", "switches", "site:dec/sw/final", "checksum"});
  AdaptivePoint ad_last{};
  for (std::size_t nodes : node_counts) {
    const AdaptivePoint p = adaptive_probe(nodes);
    ad_last = p;
    ad_t.add_row({std::to_string(nodes), fmt2(p.total_s), std::to_string(p.sections),
                  std::to_string(p.by_strategy[0]), std::to_string(p.by_strategy[1]),
                  std::to_string(p.by_strategy[2]), std::to_string(p.switches),
                  p.site_policy, util::fmt_fixed(p.checksum, 0)});
  }
  std::printf("%s", ad_t.render().c_str());
  std::printf("\nEach site's first section runs replicated (the bootstrap); afterwards the\n"
              "cost model keeps the write-heavy producer section off the master and the\n"
              "read-only consumer section on it (checksum invariant per node count).\n"
              "site:dec/sw/final summarizes the decision log per site: sections\n"
              "decided, switch points, and the settled strategy.\n");
  return 0;
}
