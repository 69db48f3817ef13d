// Integration tests for the TreadMarks-like consistency protocol running on
// the simulated cluster: visibility across fork/join and barriers, the
// multiple-writer merge, lazy diffs, contention, and determinism.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::tmk {
namespace {

struct Fixture {
  TmkConfig cfg;
  net::NetConfig ncfg;

  Fixture() {
    cfg.heap_bytes = 1u << 20;
  }

  std::unique_ptr<Cluster> make(std::size_t nodes) {
    return std::make_unique<Cluster>(cfg, ncfg, nodes);
  }
};

TEST(TmkRuntime, MasterWritesVisibleToSlavesAfterFork) {
  Fixture fx;
  auto cl = fx.make(4);
  auto data = ShArray<int>::alloc(*cl, 1024);
  std::vector<int> seen(4, 0);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Every node reads the slice the master initialized.
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
    seen[rt.id()] = sum;
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, static_cast<int>(i));
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const int expect = (1023 * 1024) / 2;
  for (int n = 0; n < 4; ++n) EXPECT_EQ(seen[n], expect) << "node " << n;
  // Slaves must have faulted pages in from the master.
  EXPECT_GT(cl->node(1).stats().par.page_faults, 0u);
}

TEST(TmkRuntime, SlaveWritesVisibleToMasterAfterJoin) {
  Fixture fx;
  auto cl = fx.make(4);
  auto data = ShArray<int>::alloc(*cl, 400);
  int master_sum = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Block partition: each node writes its own quarter.
    const std::size_t lo = rt.id() * 100;
    for (std::size_t i = lo; i < lo + 100; ++i) data.store(i, static_cast<int>(rt.id() + 1));
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
    master_sum = sum;
  });

  EXPECT_EQ(master_sum, 100 * (1 + 2 + 3 + 4));
}

TEST(TmkRuntime, MultipleWritersOnOnePageMergeByWord) {
  Fixture fx;
  auto cl = fx.make(4);
  // 256 ints fit in one 4KB page region: four writers share pages heavily.
  auto data = ShArray<int>::alloc(*cl, 256);
  std::vector<int> out(256, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Cyclic partition maximizes false sharing: adjacent elements belong to
    // different nodes.
    for (std::size_t i = rt.id(); i < data.size(); i += rt.node_count()) {
      data.store(i, static_cast<int>(1000 + i));
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = data.load(i);
  });

  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(1000 + i)) << "element " << i;
  }
}

TEST(TmkRuntime, BarrierMakesCrossSlaveWritesVisible) {
  Fixture fx;
  auto cl = fx.make(3);
  auto data = ShArray<int>::alloc(*cl, 300);
  std::vector<int> neighbor_sum(3, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    const std::size_t lo = rt.id() * 100;
    for (std::size_t i = lo; i < lo + 100; ++i) data.store(i, static_cast<int>(rt.id() + 1));
    rt.barrier(7);
    // Read the next node's stripe (written before the barrier).
    const std::size_t nlo = ((rt.id() + 1) % 3) * 100;
    int s = 0;
    for (std::size_t i = nlo; i < nlo + 100; ++i) s += data.load(i);
    neighbor_sum[rt.id()] = s;
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(neighbor_sum[0], 200);
  EXPECT_EQ(neighbor_sum[1], 300);
  EXPECT_EQ(neighbor_sum[2], 100);
}

TEST(TmkRuntime, RepeatedBarriersWithSameIdDoNotCollide) {
  Fixture fx;
  auto cl = fx.make(3);
  auto counter = ShArray<int>::alloc(*cl, 3);
  std::vector<int> final_val(3, 0);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    for (int round = 0; round < 10; ++round) {
      counter.store(rt.id(), round + 1);
      rt.barrier(1);
      int s = 0;
      for (int n = 0; n < 3; ++n) s += counter.load(n);
      EXPECT_EQ(s, 3 * (round + 1));
      rt.barrier(1);
    }
    final_val[rt.id()] = counter.load(rt.id());
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });
  for (int n = 0; n < 3; ++n) EXPECT_EQ(final_val[n], 10);
}

TEST(TmkRuntime, LazyDiffsServeMultipleIntervals) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 64);
  int sum_after = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      // Two separate intervals touching the same page: barrier in between,
      // no interleaving reader, so diffs stay lazy until the final read.
      data.store(0, 11);
      rt.barrier(2);
      data.store(1, 22);
      rt.barrier(2);
    } else {
      rt.barrier(2);
      rt.barrier(2);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    sum_after = data.load(0) + data.load(1);
  });

  EXPECT_EQ(sum_after, 33);
}

TEST(TmkRuntime, InvalidationOfDirtyPagePreservesLocalWrites) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 64);
  int v0 = -1;
  int v1 = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Both nodes write different words of the same page in the same
    // interval; each then reads the other's word after the barrier.
    data.store(rt.id(), static_cast<int>(100 + rt.id()));
    rt.barrier(9);
    if (rt.id() == 0) {
      v1 = data.load(1);
    } else {
      v0 = data.load(0);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(v0, 100);
  EXPECT_EQ(v1, 101);
}

TEST(TmkRuntime, StatsCountFaultsAndDiffTraffic) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 2048);  // spans two pages
  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) (void)data.load(i);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const auto& s1 = cl->node(1).stats().par;
  EXPECT_EQ(s1.page_faults, 2u);
  EXPECT_EQ(s1.diff_requests, 2u);
  EXPECT_EQ(s1.response_ms.count(), 2u);
  EXPECT_GT(s1.response_ms.mean(), 0.0);
  // Diff traffic flowed: requests from node 1, replies from node 0.
  EXPECT_GT(cl->node(1).stats().par.diff_msgs_sent, 0u);
  EXPECT_GT(cl->node(0).stats().par.diff_bytes_sent, 0u);
}

TEST(TmkRuntime, ProtocolWorkOnTheRequestServerIsServiceTime) {
  // Protocol work done on a node's request server preempts the application
  // (service time); the same work on an application fiber is compute.
  // Node 1 writes one word; the master's fault then reaches node 1's
  // request server, which creates the diff lazily and replies.
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 16, /*page_aligned=*/true);
  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) data.store(0, 42);
  });
  int read_back = 0;
  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    read_back = data.load(0);
  });
  EXPECT_EQ(read_back, 42);

  // Node 1 serves: receive fork and request (2 x 35 us), create the diff
  // (15 us + 1.5 ns/B x 4096 B), send the reply (70 us).
  EXPECT_EQ(cl->node(1).cpu().service_time().ns, 161'144);
  // Node 1 computes: the write fault (25 us) and twin (0.4 ns/B x 4096 B),
  // then sends the join (70 us).
  EXPECT_EQ(cl->node(1).cpu().busy_time().ns, 96'638);
  // The master serves only the receives of the join and the reply.
  EXPECT_EQ(cl->node(0).cpu().service_time().ns, 70'000);
  // The master computes: fork send (70 us), read fault (25 us), request
  // send (70 us), diff apply (10 us + 1 ns/B x 28 B).
  EXPECT_EQ(cl->node(0).cpu().busy_time().ns, 175'028);
}

TEST(TmkRuntime, ContentionRaisesResponseTime) {
  // Many nodes fault on distinct master-written pages simultaneously: the
  // master's dispatcher queue and uplink serialize the responses, so the
  // mean response time on 16 nodes must exceed the 2-node case (paper
  // Section 3).
  auto response_with_nodes = [](std::size_t nodes) {
    Fixture fx;
    auto cl = fx.make(nodes);
    auto data = ShArray<int>::alloc(*cl, 1024 * nodes);  // one page per node
    const auto work = cl->register_work([&](NodeRuntime& rt) {
      if (rt.id() != 0) {
        const std::size_t lo = rt.id() * 1024;
        int s = 0;
        for (std::size_t i = lo; i < lo + 1024; ++i) s += data.load(i);
        EXPECT_GT(s, 0);
      }
    });
    cl->run([&](NodeRuntime& rt) {
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
    });
    util::Accumulator all;
    for (std::size_t n = 1; n < nodes; ++n) {
      all.merge(cl->node(static_cast<NodeId>(n)).stats().par.response_ms);
    }
    return all.mean();
  };

  const double r2 = response_with_nodes(2);
  const double r16 = response_with_nodes(16);
  EXPECT_GT(r16, 2.0 * r2) << "r2=" << r2 << " r16=" << r16;
}

TEST(TmkRuntime, DeterministicVirtualTimeAcrossRuns) {
  auto run_once = [] {
    Fixture fx;
    auto cl = fx.make(5);
    auto data = ShArray<int>::alloc(*cl, 5000);
    const auto work = cl->register_work([&](NodeRuntime& rt) {
      const std::size_t chunk = data.size() / rt.node_count();
      const std::size_t lo = rt.id() * chunk;
      for (std::size_t i = lo; i < lo + chunk; ++i) data.store(i, static_cast<int>(i));
      rt.barrier(1);
      long sum = 0;
      for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
      EXPECT_GT(sum, 0);
    });
    const auto elapsed = cl->run([&](NodeRuntime& rt) {
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
    });
    return std::pair{elapsed.ns, cl->engine().events_executed()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(TmkRuntime, SingleNodeClusterRunsWithoutMessages) {
  Fixture fx;
  auto cl = fx.make(1);
  auto data = ShArray<int>::alloc(*cl, 100);
  int sum = -1;
  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 2);
    rt.barrier(0);
    sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
  });
  EXPECT_EQ(sum, 200);
  EXPECT_EQ(cl->network().messages_sent(), 0u);
}

TEST(TmkRuntime, LossyNetworkRecoversThroughRetransmission) {
  Fixture fx;
  fx.ncfg.loss_probability = 0.05;
  fx.ncfg.loss_seed = 99;
  fx.cfg.request_timeout = sim::milliseconds(5);
  auto cl = fx.make(3);
  auto data = ShArray<int>::alloc(*cl, 3000);
  std::vector<long> sums(3, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    long s = 0;
    for (std::size_t i = 0; i < data.size(); ++i) s += data.load(i);
    sums[rt.id()] = s;
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 3);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  for (int n = 0; n < 3; ++n) EXPECT_EQ(sums[n], 9000) << "node " << n;
}

TEST(TmkRuntime, LateDuplicateRepliesNeverReachTheNextRequest) {
  // A request timeout shorter than one reply round trip makes node 0
  // retransmit, so node 1 answers the same request more than once.  Node 0
  // faults on three pages of node 1 in turn; the first page's 1 KB diff
  // keeps node 1 busy answering duplicates, so duplicates of the second
  // page's reply are still queued on node 0 when that fault ends.  Taken as
  // replies to the third page's request, they would cost it a second pass:
  // one request more than the faults plus their retransmissions.
  Fixture fx;
  fx.cfg.request_timeout = sim::microseconds(100);
  auto cl = fx.make(2);
  const std::size_t per_page = fx.cfg.page_bytes / sizeof(int);
  auto data = ShArray<int>::alloc(*cl, 3 * per_page, /*page_aligned=*/true);
  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      for (std::size_t i = 0; i < 256; ++i) data.store(i, 1);
      data.store(per_page, 2);
      data.store(2 * per_page, 3);
    }
  });
  std::vector<int> seen;
  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    for (std::size_t p = 0; p < 3; ++p) seen.push_back(data.load(p * per_page));
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  const NodeStats& s0 = cl->node(0).stats();
  const std::uint64_t retransmits = s0.seq.recoveries + s0.par.recoveries;
  EXPECT_GE(retransmits, 1u);
  // Node 1 replies to every request node 0 sends: one per fault, plus one
  // per retransmission.
  const NodeStats& s1 = cl->node(1).stats();
  EXPECT_EQ(s1.seq.diff_msgs_sent + s1.par.diff_msgs_sent,
            s0.seq.page_faults + s0.par.page_faults + retransmits);
}

TEST(TmkRuntimeDeathTest, SecondOutstandingRequestAborts) {
  // One application fiber issues requests, one at a time: the node has one
  // reply slot.
  EXPECT_DEATH(
      {
        Cluster cl(TmkConfig{}, net::NetConfig{}, 2);
        NodeRuntime& rt = cl.node(0);
        (void)rt.expect_replies(rt.next_req_id());
        (void)rt.expect_replies(rt.next_req_id());
      },
      "a second request outstanding on one node");
}

TEST(TmkRuntimeDeathTest, UnfinishedMasterProgramAborts) {
  // Nothing pushes the channel, so the master parks for good and the engine
  // runs out of events: Cluster::run must say so rather than return as if
  // the program had finished.
  EXPECT_DEATH(
      {
        Cluster cl(TmkConfig{}, net::NetConfig{}, 2);
        sim::Channel<int> never(cl.engine());
        cl.run([&](NodeRuntime&) { (void)never.pop(); });
      },
      "the master program never finished");
}

// Parameterized consistency sweep: random access schedules over varying node
// counts still satisfy the golden final image computed on one node.
class RandomScheduleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomScheduleProperty, FinalImageMatchesOwnership) {
  const int nodes = GetParam();
  Fixture fx;
  auto cl = fx.make(nodes);
  constexpr std::size_t kElems = 2000;
  auto data = ShArray<int>::alloc(*cl, kElems);
  std::vector<int> got(kElems, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Three rounds; in each round r, node n owns elements where
    // (i / 7 + r) % nodes == n, writing round-tagged values; barriers
    // separate rounds.
    for (int r = 0; r < 3; ++r) {
      for (std::size_t i = 0; i < kElems; ++i) {
        if ((i / 7 + static_cast<std::size_t>(r)) % rt.node_count() == rt.id()) {
          data.store(i, static_cast<int>(i * 10 + r));
        }
      }
      rt.barrier(4);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    for (std::size_t i = 0; i < kElems; ++i) got[i] = data.load(i);
  });

  for (std::size_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(got[i], static_cast<int>(i * 10 + 2)) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RandomScheduleProperty, ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace repseq::tmk
