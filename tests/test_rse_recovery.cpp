// Failure injection for the replicated-section multicast protocol: lost
// frames must be repaired by the paper's timeout recovery (Section 5.4.2,
// "rather expensive mechanism ... almost never invoked") under every
// flow-control policy, without changing results.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::rse {
namespace {

using ompnow::Ctx;
using ompnow::Schedule;
using ompnow::SeqMode;

struct LossyWorld {
  tmk::TmkConfig cfg;
  net::NetConfig ncfg;
  std::unique_ptr<tmk::Cluster> cl;
  std::unique_ptr<RseController> rse;
  std::unique_ptr<ompnow::Team> team;

  LossyWorld(std::size_t nodes, FlowControl flow, double loss, std::uint64_t seed,
             sim::SimDuration wait_timeout = sim::milliseconds(20),
             net::TransportKind transport = net::TransportKind::HubSwitch,
             sim::SimDuration batch_window = {}, SeqMode seq_mode = SeqMode::Replicated) {
    cfg.heap_bytes = 1u << 20;
    cfg.rse_wait_timeout = wait_timeout;
    cfg.request_timeout = sim::milliseconds(10);
    ncfg.loss_probability = loss;
    ncfg.loss_seed = seed;
    ncfg.transport = transport;
    ncfg.batch_window = batch_window;
    cl = std::make_unique<tmk::Cluster>(cfg, ncfg, nodes);
    rse = std::make_unique<RseController>(*cl, flow);
    team = std::make_unique<ompnow::Team>(*cl, seq_mode, rse.get());
  }
};

long run_workload(LossyWorld& w, std::size_t elems) {
  auto data = tmk::ShArray<int>::alloc(*w.cl, elems, /*page_aligned=*/true);
  long result = -1;
  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->parallel_for(0, static_cast<long>(elems), Schedule::StaticBlock,
                         [&](const Ctx&, long i) {
                           data.store(static_cast<std::size_t>(i), static_cast<int>(i % 7));
                         });
    w.team->sequential([&](const Ctx&) {
      long s = 0;
      for (std::size_t i = 0; i < elems; ++i) s += data.load(i);
      data.store(0, static_cast<int>(s % 1000));
    });
    w.team->parallel([&](const Ctx& ctx) {
      if (ctx.tid == 1) {
        long s = 0;
        for (std::size_t i = 0; i < elems; ++i) s += data.load(i);
        result = s;
      }
    });
  });
  return result;
}

class LossRecovery : public ::testing::TestWithParam<FlowControl> {};

TEST_P(LossRecovery, LostFramesAreRepairedWithoutChangingResults) {
  constexpr std::size_t kElems = 3000;
  LossyWorld clean(4, GetParam(), 0.0, 1);
  const long expect = run_workload(clean, kElems);

  LossyWorld lossy(4, GetParam(), 0.08, 12345);
  const long got = run_workload(lossy, kElems);
  EXPECT_EQ(got, expect);
  EXPECT_GT(lossy.cl->network().losses_injected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, LossRecovery,
                         ::testing::Values(FlowControl::Chained, FlowControl::Windowed,
                                           FlowControl::None));

TEST(LossRecoveryStats, RecoveriesAreCountedWhenFramesVanish) {
  LossyWorld lossy(4, FlowControl::Chained, 0.15, 777);
  (void)run_workload(lossy, 4000);
  std::uint64_t recoveries = 0;
  for (net::NodeId n = 0; n < 4; ++n) {
    recoveries += lossy.cl->node(n).stats().seq.recoveries;
    recoveries += lossy.cl->node(n).stats().par.recoveries;
  }
  EXPECT_GT(recoveries, 0u);
}

TEST(WatchdogAbandonment, LateCompletingChainDoesNotDoubleFinishRounds) {
  // An rse_wait_timeout shorter than a full ack chain makes the master's
  // watchdog abandon rounds that are still walking (and faulters repair
  // themselves through direct recovery).  The abandoned chain still
  // completes afterwards -- and that late completion must be inert: it used
  // to call master_round_finished against whatever round (if any) the
  // master had moved on to, tripping "round finish without a round".
  // Surfaced by the 256-node transport-invariance sweep.
  // The hazard is transport-shaped (an abandoned chain's completion time
  // depends on the wire model) and batching delays stretch chains past the
  // watchdog even further, so the scenario runs on every multicast-capable
  // backend with and without a coalescing window.
  LossyWorld calm(16, FlowControl::Chained, 0.0, 1);
  const long expect = run_workload(calm, 4000);

  struct Scenario {
    const char* name;
    net::TransportKind transport;
    sim::SimDuration window;
  };
  const Scenario scenarios[] = {
      {"hub", net::TransportKind::HubSwitch, {}},
      {"hub+batch", net::TransportKind::HubSwitch, sim::microseconds(500)},
      {"tree", net::TransportKind::TreeMulticast, {}},
      {"tree+batch", net::TransportKind::TreeMulticast, sim::microseconds(500)},
      {"sharded", net::TransportKind::ShardedHub, {}},
      {"sharded+batch", net::TransportKind::ShardedHub, sim::microseconds(500)},
  };
  for (const Scenario& s : scenarios) {
    LossyWorld hurried(16, FlowControl::Chained, 0.0, 1, sim::microseconds(2000), s.transport,
                       s.window);
    EXPECT_EQ(run_workload(hurried, 4000), expect) << s.name;

    // The scenario only bites if timeouts actually fired mid-round.
    std::uint64_t recoveries = 0;
    for (net::NodeId n = 0; n < 16; ++n) {
      recoveries += hurried.cl->node(n).stats().seq.recoveries;
      recoveries += hurried.cl->node(n).stats().par.recoveries;
    }
    EXPECT_GT(recoveries, 0u) << s.name;
  }
}

TEST(RoundLifetime, MasterRetiresRoundsAtSectionExit) {
  // Regression: a round must not outlive its section.  Node 1 alone holds
  // the page's diff, so once its frame lands every faulting node leaves the
  // section at once, while the ack chain still walks nodes 2 to 8.  The
  // joins combine up the tree, the master forks the next section, and the
  // valid notices of its four leaf children (sync traffic, admitted past a
  // full receive ring) reach it with the chain's tail (null acks,
  // droppable).  The master's 2-frame ring drops the tail, and the master
  // never sees the chain complete.  The round used to stay in flight until
  // the watchdog abandoned it, rse_wait_timeout later, with the next
  // section's round queued behind it.  Once every slave has joined nobody
  // waits on a round, so the master retires it there.  Those tail null
  // acks are the only frames dropped: a slave receives the chain one frame
  // at a time, and no node recovers anything.
  constexpr std::size_t kNodes = 9;
  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 1u << 20;
  net::NetConfig ncfg;
  ncfg.recv_buffer_msgs = 2;
  tmk::Cluster cl(cfg, ncfg, kNodes);
  RseController rse(cl, FlowControl::Chained);
  ompnow::Team team(cl, SeqMode::Replicated, &rse);
  auto data = tmk::ShArray<int>::alloc(cl, 2 * kIntsPerPage, /*page_aligned=*/true);

  const std::string path = ::testing::TempDir() + "repseq_round_lifetime.json";
  obs::tracer().configure(path, static_cast<std::uint8_t>(obs::Cat::Rse));
  std::vector<sim::SimDuration> section_time;
  std::vector<int> sums(kNodes, -1);
  cl.run([&](tmk::NodeRuntime&) {
    team.parallel([&](const Ctx& ctx) {
      if (ctx.tid == 1) {
        data.store(0, 5);
        data.store(kIntsPerPage, 7);
      }
    });
    for (std::size_t page = 0; page < 2; ++page) {
      const sim::SimTime t0 = cl.engine().now();
      team.sequential([&](const Ctx&) { (void)data.load(page * kIntsPerPage); });
      section_time.push_back(cl.engine().now() - t0);
    }
    team.parallel([&](const Ctx& ctx) { sums[ctx.tid] = data.load(0) + data.load(kIntsPerPage); });
  });
  obs::tracer().write();
  obs::tracer().configure("", 0);
  std::stringstream trace;
  trace << std::ifstream(path).rdbuf();
  std::remove(path.c_str());

  EXPECT_GT(cl.network().total_drops(), 0u) << "the chain's tail was never dropped";
  EXPECT_EQ(cl.network().nic(0).drops(), cl.network().total_drops()) << "a slave dropped a frame";
  for (net::NodeId n = 0; n < kNodes; ++n) {
    const tmk::NodeStats& st = cl.node(n).stats();
    EXPECT_EQ(st.seq.recoveries + st.par.recoveries, 0u) << "node " << n;
  }
  EXPECT_NE(trace.str().find("\"round\""), std::string::npos) << "no rounds traced";
  EXPECT_EQ(trace.str().find("round-abandon"), std::string::npos);
  for (const sim::SimDuration dt : section_time) {
    EXPECT_LT(dt.ns, cfg.rse_wait_timeout.ns / 4) << "a section waited on the watchdog";
  }
  for (std::size_t t = 0; t < kNodes; ++t) EXPECT_EQ(sums[t], 12) << "node " << t;
}

TEST(LossRecoverySeeds, ManySeedsConverge) {
  // Property sweep: recovery must converge for a spread of loss patterns.
  constexpr std::size_t kElems = 1500;
  LossyWorld clean(3, FlowControl::Chained, 0.0, 0);
  const long expect = run_workload(clean, kElems);
  for (std::uint64_t seed : {7u, 99u, 1234u, 5555u}) {
    LossyWorld lossy(3, FlowControl::Chained, 0.10, seed);
    EXPECT_EQ(run_workload(lossy, kElems), expect) << "seed " << seed;
  }
}

// Execute-then-broadcast under loss.  The section broadcast carries the
// section's write notices and has no recovery, and a slave that missed it
// would never acknowledge it, leaving the master parked: it is reliable
// like the fork, while the master's faults inside the section still lose
// frames and recover.
TEST(LossRecoverySeeds, BroadcastSectionsConverge) {
  constexpr std::size_t kElems = 3000;
  auto world = [](double loss, std::uint64_t seed) {
    return LossyWorld(4, FlowControl::Chained, loss, seed, sim::milliseconds(20),
                      net::TransportKind::HubSwitch, {}, SeqMode::BroadcastAfter);
  };
  LossyWorld clean = world(0.0, 1);
  const long expect = run_workload(clean, kElems);
  std::uint64_t losses = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    LossyWorld lossy = world(0.2, seed);
    EXPECT_EQ(run_workload(lossy, kElems), expect) << "seed " << seed;
    losses += lossy.cl->network().losses_injected();
  }
  EXPECT_GT(losses, 0u);
}

// Recovery exhaustion names the stuck request: with every diff frame lost,
// the faulters (nodes 0 and 2; node 1 wrote the page) retry with doubling
// waits of 1, 2 and 4 ms, then abort listing the server that still owes
// them interval 1.
TEST(RetryExhaustionDeathTest, RseRecoveryListsOutstandingServers) {
  auto run = [] {
    tmk::TmkConfig cfg;
    cfg.heap_bytes = 1u << 20;
    cfg.rse_wait_timeout = sim::milliseconds(1);
    cfg.max_retries = 2;
    net::NetConfig ncfg;
    ncfg.loss_probability = 1.0;
    tmk::Cluster cl(cfg, ncfg, 3);
    RseController rse(cl, FlowControl::Chained);
    ompnow::Team team(cl, SeqMode::Replicated, &rse);
    auto data = tmk::ShArray<int>::alloc(cl, 16, /*page_aligned=*/true);
    cl.run([&](tmk::NodeRuntime&) {
      team.parallel([&](const Ctx& ctx) {
        if (ctx.tid == 1) data.store(0, 5);
      });
      team.sequential([&](const Ctx&) { (void)data.load(0); });
    });
  };
  EXPECT_DEATH(run(),
               "RSE recovery retries exhausted: node [02], page [0-9]+, 3 attempts timed out "
               "\\(timeout 4\\.000 ms\\); outstanding servers: 1 \\(intervals 1\\)");
}

}  // namespace
}  // namespace repseq::rse
