// Cross-configuration property sweeps: the consistency protocol must
// deliver identical application results for every page size, node count and
// schedule combination; field-granular accesses and elements spanning
// page boundaries must behave like plain ones.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::tmk {
namespace {

using ompnow::Ctx;
using ompnow::Schedule;
using ompnow::SeqMode;

// ---------------------------------------------------------------------------
// Page size x node count sweep
// ---------------------------------------------------------------------------

class PageNodeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t /*page*/, std::size_t /*nodes*/>> {
};

TEST_P(PageNodeSweep, StencilWorkloadConvergesIdentically) {
  const auto [page_bytes, nodes] = GetParam();
  TmkConfig cfg;
  cfg.page_bytes = page_bytes;
  cfg.heap_bytes = 1u << 20;
  Cluster cl(cfg, net::NetConfig{}, nodes);
  rse::RseController rse(cl, rse::FlowControl::Chained);
  ompnow::Team team(cl, SeqMode::MasterOnly, &rse);

  constexpr std::size_t kElems = 1024;
  auto a = ShArray<long>::alloc(cl, kElems, /*page_aligned=*/true);
  auto b = ShArray<long>::alloc(cl, kElems, /*page_aligned=*/true);

  long checksum = -1;
  cl.run([&](NodeRuntime&) {
    team.parallel_for(0, kElems, Schedule::StaticBlock, [&](const Ctx&, long i) {
      a.store(static_cast<std::size_t>(i), i);
    });
    // Two Jacobi-style sweeps with neighbor reads across block boundaries.
    for (int round = 0; round < 2; ++round) {
      team.parallel_for(1, kElems - 1, Schedule::StaticBlock, [&](const Ctx&, long i) {
        const auto u = static_cast<std::size_t>(i);
        b.store(u, a.load(u - 1) + a.load(u) + a.load(u + 1));
      });
      team.parallel_for(1, kElems - 1, Schedule::StaticBlock, [&](const Ctx&, long i) {
        a.store(static_cast<std::size_t>(i), b.load(static_cast<std::size_t>(i)) % 1000003);
      });
    }
    team.sequential([&](const Ctx&) {
      long s = 0;
      for (std::size_t i = 0; i < kElems; ++i) s += a.load(i);
      checksum = s;
    });
  });

  // Golden value computed once on the host.
  static long golden = -1;
  std::vector<long> ha(kElems);
  std::vector<long> hb(kElems);
  for (std::size_t i = 0; i < kElems; ++i) ha[i] = static_cast<long>(i);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 1; i + 1 < kElems; ++i) hb[i] = ha[i - 1] + ha[i] + ha[i + 1];
    for (std::size_t i = 1; i + 1 < kElems; ++i) ha[i] = hb[i] % 1000003;
  }
  long expect = 0;
  for (std::size_t i = 0; i < kElems; ++i) expect += ha[i];
  golden = expect;
  EXPECT_EQ(checksum, golden) << "page=" << page_bytes << " nodes=" << nodes;
}

INSTANTIATE_TEST_SUITE_P(Matrix, PageNodeSweep,
                         ::testing::Combine(::testing::Values(1024u, 4096u),
                                            ::testing::Values(2u, 5u, 9u)));

// ---------------------------------------------------------------------------
// Structured access
// ---------------------------------------------------------------------------

struct Particle {
  double x = 0;
  double y = 0;
  int charge = 0;
  int pad = 0;
};

TEST(StructuredAccess, FieldGranularUpdatesMergeAcrossWriters) {
  TmkConfig cfg;
  cfg.heap_bytes = 1u << 20;
  Cluster cl(cfg, net::NetConfig{}, 2);
  auto parts = ShArray<Particle>::alloc(cl, 64);

  const auto work = cl.register_work([&](NodeRuntime& rt) {
    // Node 0 writes x/y, node 1 writes charge of the SAME elements: field
    // writes touch disjoint words, so the multiple-writer protocol merges.
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (rt.id() == 0) {
        parts.set_field(i, &Particle::x, static_cast<double>(i));
        parts.set_field(i, &Particle::y, static_cast<double>(2 * i));
      } else {
        parts.set_field(i, &Particle::charge, static_cast<int>(i % 3));
      }
    }
  });

  cl.run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl.work(work)(rt);
    rt.join_master();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const Particle p = parts.load(i);
      EXPECT_DOUBLE_EQ(p.x, static_cast<double>(i));
      EXPECT_DOUBLE_EQ(p.y, static_cast<double>(2 * i));
      EXPECT_EQ(p.charge, static_cast<int>(i % 3));
    }
  });
}

TEST(StructuredAccess, ElementsSpanningPageBoundaries) {
  // A 24-byte element straddling a 1KB page boundary must fetch both pages.
  TmkConfig cfg;
  cfg.page_bytes = 1024;
  cfg.heap_bytes = 1u << 20;
  Cluster cl(cfg, net::NetConfig{}, 2);
  struct Wide {
    double a, b, c;
  };
  // 1024/24 is not integral, so some element crosses each page boundary.
  auto arr = ShArray<Wide>::alloc(cl, 128);
  double total = -1;

  const auto work = cl.register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        arr.store(i, Wide{1.0 * i, 2.0 * i, 3.0 * i});
      }
    }
  });

  cl.run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl.work(work)(rt);
    rt.join_master();
    double s = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const Wide w = arr.load(i);
      s += w.a + w.b + w.c;
    }
    total = s;
  });

  double expect = 0;
  for (int i = 0; i < 128; ++i) expect += 6.0 * i;
  EXPECT_DOUBLE_EQ(total, expect);
}

// ---------------------------------------------------------------------------
// Shard-count axis: sharding the multicast medium may change timing, never
// results.  Final heap checksums and interval vectors (per-node vector
// clocks) must be invariant across S and identical to the single-hub run,
// for every flow-control variant.
// ---------------------------------------------------------------------------

struct ShardRunResult {
  long checksum = 0;
  std::vector<VectorClock> interval_vectors;

  bool operator==(const ShardRunResult&) const = default;
};

ShardRunResult run_replicated_stencil(const net::NetConfig& ncfg, rse::FlowControl flow) {
  constexpr std::size_t kNodes = 5;
  constexpr std::size_t kElems = 4096;  // 32 KB over 1 KB pages = 32 groups
  TmkConfig cfg;
  cfg.page_bytes = 1024;
  cfg.heap_bytes = 1u << 20;
  Cluster cl(cfg, ncfg, kNodes);
  rse::RseController rse(cl, flow);
  ompnow::Team team(cl, SeqMode::Replicated, &rse);
  auto a = ShArray<long>::alloc(cl, kElems, /*page_aligned=*/true);

  ShardRunResult out;
  cl.run([&](NodeRuntime&) {
    team.parallel_for(0, kElems, Schedule::StaticBlock, [&](const Ctx&, long i) {
      a.store(static_cast<std::size_t>(i), 3 * i + 1);
    });
    // Replicated sequential section: every node faults on every other
    // node's pages, one RSE round per page spread over the shards.
    team.sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < kElems; ++i) a.store(i, a.load(i) % 1000003 + 7);
    });
    team.parallel_for(0, kElems, Schedule::StaticCyclic, [&](const Ctx&, long i) {
      a.store(static_cast<std::size_t>(i), a.load(static_cast<std::size_t>(i)) * 2);
    });
    team.sequential([&](const Ctx&) {
      long s = 0;
      for (std::size_t i = 0; i < kElems; ++i) s += a.load(i);
      out.checksum = s;
    });
  });
  for (net::NodeId n = 0; n < kNodes; ++n) {
    out.interval_vectors.push_back(cl.node(n).vc());
  }

  // Per-shard accounting consistency: the network's per-shard frame/byte
  // counts must agree with the transport's busy time shard by shard -- a
  // shard carried frames if and only if its medium transmitted.
  const std::vector<HubOccupancy> occ = cl.hub_occupancy();
  EXPECT_EQ(occ.size(), cl.network().hub_shards());
  std::uint64_t frames_total = 0;
  for (std::size_t s = 0; s < occ.size(); ++s) {
    EXPECT_EQ(occ[s].mcast_msgs > 0, occ[s].busy.ns > 0) << "shard " << s;
    EXPECT_EQ(occ[s].mcast_msgs > 0, occ[s].mcast_bytes > 0) << "shard " << s;
    frames_total += occ[s].mcast_msgs;
  }
  EXPECT_GT(frames_total, 0u) << "replicated section must multicast";
  return out;
}

class ShardCountSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, rse::FlowControl>> {};

TEST_P(ShardCountSweep, ChecksumAndIntervalVectorsInvariantAcrossShards) {
  const auto [shards, flow] = GetParam();

  net::NetConfig hub;  // single-hub reference
  hub.transport = net::TransportKind::HubSwitch;
  const ShardRunResult ref = run_replicated_stencil(hub, flow);

  net::NetConfig sharded;
  sharded.transport = net::TransportKind::ShardedHub;
  sharded.hub_shards = shards;
  const ShardRunResult got = run_replicated_stencil(sharded, flow);

  EXPECT_EQ(got.checksum, ref.checksum) << "S=" << shards;
  EXPECT_EQ(got.interval_vectors, ref.interval_vectors) << "S=" << shards;

  // Host-side golden value: the workload is deterministic arithmetic.
  std::vector<long> h(4096);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = 3 * static_cast<long>(i) + 1;
  for (auto& v : h) v = v % 1000003 + 7;
  long golden = 0;
  for (auto& v : h) golden += 2 * v;
  EXPECT_EQ(got.checksum, golden);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByFlow, ShardCountSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(rse::FlowControl::Chained, rse::FlowControl::Windowed,
                                         rse::FlowControl::None)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, rse::FlowControl>>& info) {
      const rse::FlowControl f = std::get<1>(info.param);
      std::string name = "S";
      name += std::to_string(std::get<0>(info.param));
      name += f == rse::FlowControl::Chained    ? "Chained"
              : f == rse::FlowControl::Windowed ? "Windowed"
                                                : "None";
      return name;
    });

// ---------------------------------------------------------------------------
// Cross-backend ordering invariance: the event-driven tree reorders an
// interior node's own traffic against its forwards (true arrival order), the
// sharded hub interleaves rounds across media -- but the protocol result may
// never notice.  Checksums and interval vectors must be identical across
// HubSwitch / ShardedHub S in {1, 4} / event-driven TreeMulticast for every
// section mode x flow-control combination.
// ---------------------------------------------------------------------------

struct OrderingAxis {
  SeqMode mode;
  rse::FlowControl flow;
};

ShardRunResult run_ordering_workload(const net::NetConfig& ncfg, const OrderingAxis& ax,
                                     std::size_t kNodes = 5, std::size_t kElems = 2048) {
  TmkConfig cfg;
  cfg.page_bytes = 1024;
  cfg.heap_bytes = 1u << 20;
  if (kNodes > 128) {
    // A single server fields an O(N) request backlog per hot page; both the
    // retransmit and the RSE recovery timeouts must cover that service time
    // at large N or the timeout traffic snowballs (same scaling as the perf
    // harnesses).
    cfg.request_timeout = sim::milliseconds(static_cast<std::int64_t>(kNodes));
    cfg.rse_wait_timeout = sim::milliseconds(static_cast<std::int64_t>(16 * kNodes));
  }
  Cluster cl(cfg, ncfg, kNodes);
  rse::RseController rse(cl, ax.flow);
  std::unique_ptr<rse::policy::PolicyEngine> policy;
  if (ax.mode == SeqMode::Adaptive) policy = std::make_unique<rse::policy::PolicyEngine>(cl);
  ompnow::Team team(cl, ax.mode, &rse, policy.get());
  auto a = ShArray<long>::alloc(cl, kElems, /*page_aligned=*/true);

  ShardRunResult out;
  cl.run([&](NodeRuntime&) {
    team.parallel_for(0, kElems, Schedule::StaticBlock, [&](const Ctx&, long i) {
      a.store(static_cast<std::size_t>(i), 5 * i + 3);
    });
    // Two stamped sites so an adaptive policy has a site mix to decide
    // over, on every backend's ordering.
    for (int round = 0; round < 2; ++round) {
      team.sequential(1, [&](const Ctx&) {
        for (std::size_t i = 0; i < kElems; ++i) a.store(i, a.load(i) % 1000003 + 11);
      });
      team.parallel_for(0, kElems, Schedule::StaticCyclic, [&](const Ctx&, long i) {
        a.store(static_cast<std::size_t>(i), a.load(static_cast<std::size_t>(i)) * 2 + 1);
      });
      team.sequential(2, [&](const Ctx&) {
        long s = 0;
        for (std::size_t i = 0; i < kElems; ++i) s += a.load(i);
        out.checksum = s;
      });
    }
  });
  for (net::NodeId n = 0; n < kNodes; ++n) {
    out.interval_vectors.push_back(cl.node(n).vc());
  }
  return out;
}

class OrderingInvarianceSweep : public ::testing::TestWithParam<OrderingAxis> {};

TEST_P(OrderingInvarianceSweep, ChecksumAndIntervalVectorsInvariantAcrossBackends) {
  const OrderingAxis& ax = GetParam();

  net::NetConfig hub;  // single-hub reference
  hub.transport = net::TransportKind::HubSwitch;
  const ShardRunResult ref = run_ordering_workload(hub, ax);

  // Host-side golden value: deterministic arithmetic.
  std::vector<long> h(2048);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = 5 * static_cast<long>(i) + 3;
  long golden = 0;
  for (int round = 0; round < 2; ++round) {
    for (auto& v : h) v = v % 1000003 + 11;
    for (auto& v : h) v = v * 2 + 1;
    golden = 0;
    for (auto& v : h) golden += v;
  }
  ASSERT_EQ(ref.checksum, golden);

  const auto check = [&](net::TransportKind kind, std::size_t shards, const char* what) {
    net::NetConfig ncfg;
    ncfg.transport = kind;
    ncfg.hub_shards = shards;
    const ShardRunResult got = run_ordering_workload(ncfg, ax);
    EXPECT_EQ(got.checksum, ref.checksum) << what;
    // The adaptive policy prices each strategy on the configured transport,
    // so the tree may pick another strategy than the hub for a section, and
    // a replicated section closes no interval.  The Replicated and
    // BroadcastAfter rows keep the tree's ordering covered under both
    // strategies it picks.
    if (ax.mode == SeqMode::Adaptive && kind == net::TransportKind::TreeMulticast) return;
    EXPECT_EQ(got.interval_vectors, ref.interval_vectors) << what;
  };
  check(net::TransportKind::ShardedHub, 1, "sharded S=1");
  check(net::TransportKind::ShardedHub, 4, "sharded S=4");
  check(net::TransportKind::TreeMulticast, 1, "event-driven tree");
}

INSTANTIATE_TEST_SUITE_P(
    ModeByFlow, OrderingInvarianceSweep,
    ::testing::Values(OrderingAxis{SeqMode::Replicated, rse::FlowControl::Chained},
                      OrderingAxis{SeqMode::Replicated, rse::FlowControl::Windowed},
                      OrderingAxis{SeqMode::Replicated, rse::FlowControl::None},
                      OrderingAxis{SeqMode::BroadcastAfter, rse::FlowControl::Chained},
                      OrderingAxis{SeqMode::Adaptive, rse::FlowControl::Chained},
                      OrderingAxis{SeqMode::Adaptive, rse::FlowControl::Windowed},
                      OrderingAxis{SeqMode::Adaptive, rse::FlowControl::None}),
    [](const ::testing::TestParamInfo<OrderingAxis>& info) {
      const OrderingAxis& ax = info.param;
      std::string name = ax.mode == SeqMode::Replicated        ? "Replicated"
                         : ax.mode == SeqMode::BroadcastAfter  ? "BroadcastAfter"
                                                               : "Adaptive";
      name += ax.flow == rse::FlowControl::Chained    ? "Chained"
              : ax.flow == rse::FlowControl::Windowed ? "Windowed"
                                                      : "NoFlow";
      return name;
    });

// ---------------------------------------------------------------------------
// Batch-window invariance: frame coalescing (net::BatchingTransport around
// the synchronous backends, the piggyback queues inside the forwarding tree)
// reshapes wire framing and timing -- fewer, fatter frames, windowed flush
// events -- but the protocol result may never notice.  Checksums and
// interval vectors must match the unbatched single-hub reference for every
// window size on all four backends.
// ---------------------------------------------------------------------------

class BatchWindowSweep : public ::testing::TestWithParam<std::int64_t /*window, us*/> {};

TEST_P(BatchWindowSweep, ChecksumAndIntervalVectorsInvariantAcrossWindows) {
  const std::int64_t window_us = GetParam();
  const OrderingAxis ax{SeqMode::Replicated, rse::FlowControl::Chained};

  net::NetConfig hub;  // unbatched single-hub reference
  hub.transport = net::TransportKind::HubSwitch;
  const ShardRunResult ref = run_ordering_workload(hub, ax);

  const auto check = [&](net::TransportKind kind, std::size_t shards, const char* what) {
    net::NetConfig ncfg;
    ncfg.transport = kind;
    ncfg.hub_shards = shards;
    ncfg.batch_window = sim::microseconds(window_us);
    const ShardRunResult got = run_ordering_workload(ncfg, ax);
    EXPECT_EQ(got.checksum, ref.checksum) << what << " w=" << window_us << "us";
    EXPECT_EQ(got.interval_vectors, ref.interval_vectors) << what << " w=" << window_us << "us";
  };
  check(net::TransportKind::HubSwitch, 1, "hub");
  check(net::TransportKind::ShardedHub, 4, "sharded S=4");
  check(net::TransportKind::DirectAll, 1, "direct fan-out");
  check(net::TransportKind::TreeMulticast, 1, "piggybacking tree");
}

INSTANTIATE_TEST_SUITE_P(Windows, BatchWindowSweep, ::testing::Values(50, 500, 5000),
                         [](const ::testing::TestParamInfo<std::int64_t>& info) {
                           std::string name = "W";
                           name += std::to_string(info.param);
                           name += "us";
                           return name;
                         });

// ---------------------------------------------------------------------------
// Trace invariance: the observability layer keys everything to virtual time
// and never schedules events of its own, so recording a full trace
// (REPSEQ_TRACE set, all categories) may not perturb a single protocol
// decision.  Checksums and interval vectors must be bit-identical with the
// tracer on vs off, on all four wire backends, batched and unbatched -- the
// adaptive workload also drags the policy-decision hooks through the
// comparison.
// ---------------------------------------------------------------------------

struct TraceAxis {
  net::TransportKind kind;
  std::size_t shards;
  std::int64_t window_us;
};

class TraceInvarianceSweep : public ::testing::TestWithParam<TraceAxis> {};

TEST_P(TraceInvarianceSweep, TracingDoesNotPerturbChecksumOrIntervalVectors) {
  const TraceAxis& ax = GetParam();
  const OrderingAxis work{SeqMode::Adaptive, rse::FlowControl::Chained};
  net::NetConfig ncfg;
  ncfg.transport = ax.kind;
  ncfg.hub_shards = ax.shards;
  ncfg.batch_window = sim::microseconds(ax.window_us);

  // The Cluster constructor reads REPSEQ_TRACE.
  ::unsetenv("REPSEQ_TRACE");
  const ShardRunResult off = run_ordering_workload(ncfg, work);

  const std::string path = std::string("/tmp/repseq_trace_invariance_") +
                           std::to_string(static_cast<int>(ax.kind)) + "_" +
                           std::to_string(ax.window_us) + ".json";
  ::setenv("REPSEQ_TRACE", path.c_str(), 1);
  const ShardRunResult on = run_ordering_workload(ncfg, work);
  ::unsetenv("REPSEQ_TRACE");

  EXPECT_EQ(on.checksum, off.checksum);
  EXPECT_EQ(on.interval_vectors, off.interval_vectors);

  // The traced run must actually have written a trace (cluster destruction
  // flushes the ring to the file).
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::string head;
  std::getline(in, head);
  EXPECT_NE(head.find("traceEvents"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    TransportsByWindow, TraceInvarianceSweep,
    ::testing::Values(TraceAxis{net::TransportKind::HubSwitch, 1, 0},
                      TraceAxis{net::TransportKind::HubSwitch, 1, 500},
                      TraceAxis{net::TransportKind::ShardedHub, 4, 500},
                      TraceAxis{net::TransportKind::DirectAll, 1, 500},
                      TraceAxis{net::TransportKind::TreeMulticast, 1, 0},
                      TraceAxis{net::TransportKind::TreeMulticast, 1, 500}),
    [](const ::testing::TestParamInfo<TraceAxis>& info) {
      const TraceAxis& ax = info.param;
      std::string name = ax.kind == net::TransportKind::HubSwitch    ? "Hub"
                         : ax.kind == net::TransportKind::ShardedHub ? "Sharded4"
                         : ax.kind == net::TransportKind::DirectAll  ? "Direct"
                                                                     : "Tree";
      if (ax.window_us == 0) {
        name += "Unbatched";
      } else {
        name += 'W';
        name += std::to_string(ax.window_us);
        name += "us";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Transport invariance at scale: the same protocol guarantee, but at the
// cluster sizes the perf work targets.  All four wire backends must agree on
// checksums and interval vectors at N in {16, 32, 256} -- the large-N case
// is exactly where the pooled hot paths (payload handles, contiguous diffs,
// pooled event slots) carry the traffic, so this doubles as an end-to-end
// correctness gate on the allocation rework.
// ---------------------------------------------------------------------------

class TransportScaleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransportScaleSweep, AllFourTransportsAgreeOnChecksumAndIntervalVectors) {
  const std::size_t nodes = GetParam();
  const OrderingAxis ax{SeqMode::Replicated, rse::FlowControl::Chained};

  // A leaner workload than the 5-node ordering axis: at N=256 every extra
  // element multiplies 4 transports x 256 faulting nodes, and the property
  // being pinned (cross-backend agreement) does not need more pages.
  constexpr std::size_t kElems = 1024;

  net::NetConfig hub;
  hub.transport = net::TransportKind::HubSwitch;
  const ShardRunResult ref = run_ordering_workload(hub, ax, nodes, kElems);

  const auto check = [&](net::TransportKind kind, std::size_t shards, const char* what) {
    net::NetConfig ncfg;
    ncfg.transport = kind;
    ncfg.hub_shards = shards;
    const ShardRunResult got = run_ordering_workload(ncfg, ax, nodes, kElems);
    EXPECT_EQ(got.checksum, ref.checksum) << what << " N=" << nodes;
    EXPECT_EQ(got.interval_vectors, ref.interval_vectors) << what << " N=" << nodes;
  };
  check(net::TransportKind::ShardedHub, 4, "sharded S=4");
  check(net::TransportKind::DirectAll, 1, "direct fan-out");
  check(net::TransportKind::TreeMulticast, 1, "event-driven tree");
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, TransportScaleSweep, ::testing::Values(16u, 32u, 256u));

// ---------------------------------------------------------------------------
// Determinism across configurations
// ---------------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeterminismSweep, TwoRunsProduceIdenticalEventCounts) {
  const std::size_t nodes = GetParam();
  auto run_once = [nodes] {
    TmkConfig cfg;
    cfg.heap_bytes = 1u << 20;
    Cluster cl(cfg, net::NetConfig{}, nodes);
    rse::RseController rse(cl, rse::FlowControl::Chained);
    ompnow::Team team(cl, SeqMode::Replicated, &rse);
    auto data = ShArray<int>::alloc(cl, 2000);
    cl.run([&](NodeRuntime&) {
      team.parallel_for(0, 2000, Schedule::StaticCyclic, [&](const Ctx&, long i) {
        data.store(static_cast<std::size_t>(i), static_cast<int>(i));
      });
      team.sequential([&](const Ctx&) {
        for (std::size_t i = 0; i < data.size(); ++i) data.store(i, data.load(i) + 1);
      });
    });
    return std::tuple{cl.engine().now().ns, cl.engine().events_executed(),
                      cl.network().messages_sent(), cl.network().bytes_sent()};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DeterminismSweep, ::testing::Values(2u, 4u, 7u));

}  // namespace
}  // namespace repseq::tmk
