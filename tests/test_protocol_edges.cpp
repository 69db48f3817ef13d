// Protocol corner cases: the merged lazy-diff coverage rule (regression for
// a real clobbering bug found during bring-up), empty diffs, phase-tagged
// statistics, the unicast fork of a region that hands out notices and the
// retry-exhaustion diagnostic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ompnow/team.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::tmk {
namespace {

std::unique_ptr<Cluster> make_cluster(std::size_t nodes) {
  TmkConfig cfg;
  cfg.heap_bytes = 1u << 20;
  return std::make_unique<Cluster>(cfg, net::NetConfig{}, nodes);
}

// Regression: a twin spanning a closed interval plus the open interval's
// prefix must be registered under the closed interval only.  If it is also
// registered under the open interval's future index, a node that applied it
// once re-applies the stale full-page image later and destroys newer data
// (its own writes and third-party writes).
TEST(MergedDiffs, EarlyFlushedSpanningTwinDoesNotClobberNewerWrites) {
  auto cl = make_cluster(4);
  constexpr std::size_t kInts = 1024;  // exactly one page
  auto data = ShArray<int>::alloc(*cl, kInts, /*page_aligned=*/true);
  std::vector<int> finals(4, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    const auto tid = static_cast<std::size_t>(rt.id());
    if (rt.id() == 0) {
      // Master: interval 2 is open (a write before anyone's request), so
      // the lazy diff for interval 1 merges in this prefix.
      data.store(512, 7001);
    }
    rt.barrier(11);
    // Every node reads some master data (flushes the master's twin mid-
    // interval on the first request) and then writes its own word.
    (void)data.load(100 + tid);
    data.store(tid, static_cast<int>(1000 + tid));
    rt.barrier(12);
    // Now every node needs the master's second interval (the write notice
    // for index 2 arrived at barrier 12).  Fetching it must not revert
    // anyone's word back to the interval-1 image.
    EXPECT_EQ(data.load(512), 7001);
    rt.barrier(13);
    int ok = 1;
    for (int t = 0; t < 4; ++t) {
      if (data.load(static_cast<std::size_t>(t)) != 1000 + t) ok = 0;
    }
    finals[tid] = ok;
  });

  cl->run([&](NodeRuntime& rt) {
    // Interval 1: master initializes the whole page.
    for (std::size_t i = 0; i < kInts; ++i) data.store(i, 1);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  for (int t = 0; t < 4; ++t) EXPECT_EQ(finals[t], 1) << "node " << t;
}

TEST(MergedDiffs, EmptyDiffServesEarlyFlushedIntervalWithNoLaterWrites) {
  auto cl = make_cluster(3);
  auto data = ShArray<int>::alloc(*cl, 1024, /*page_aligned=*/true);
  int seen_by_2 = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      // Node 1 reads early, forcing the master's open-interval twin to
      // flush; the master makes no further writes before the interval
      // closes, so the interval's registration is the empty diff.
      EXPECT_EQ(data.load(3), 3);
    }
    rt.barrier(21);
    if (rt.id() == 2) {
      // Node 2 asks for that interval after the barrier; the content
      // travelled in the early flush, the empty diff just clears the
      // notice.
      seen_by_2 = data.load(3);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < 8; ++i) data.store(i, static_cast<int>(i));
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(seen_by_2, 3);
}

// Regression: one interval of the master holds two registrations for one
// page.  A remote notice flushes the twin created inside the open interval
// under that interval's future index; the master then re-faults and writes
// the page again before the interval closes, so the closed interval is
// answered with both.  The batch guard must judge "applied here before"
// from the page's validity before the batch: raising it at the first
// registration used to skip the second, and node 2 read 0 for word 2.
TEST(MergedDiffs, SecondRegistrationOfAnIntervalLands) {
  auto cl = make_cluster(3);
  auto data = ShArray<int>::alloc(*cl, 1024, /*page_aligned=*/true);
  std::vector<int> seen;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) data.store(1, 11);
    if (rt.id() == 0) {
      data.store(0, 10);
      // Node 1's barrier arrival lands meanwhile: its notice flushes the
      // twin under the open interval's index and invalidates the page.
      rt.charge(sim::milliseconds(50));
      rt.cpu().flush();
      data.store(2, 12);  // re-fault, re-twin, same interval
    }
    rt.barrier(7);
    if (rt.id() == 2) {
      for (std::size_t i = 0; i < 3; ++i) seen.push_back(data.load(i));
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(seen, (std::vector<int>{10, 11, 12}));
}

TEST(MergedDiffs, IdenticalValueWritesYieldEmptyDiffButClearNotices) {
  auto cl = make_cluster(2);
  auto data = ShArray<int>::alloc(*cl, 64);
  int value = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      data.store(0, 0);  // writes the value already there: empty diff
    }
    rt.barrier(31);
    if (rt.id() == 0) value = data.load(0);
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });
  EXPECT_EQ(value, 0);
  // The master faulted (a notice existed) even though the diff was empty.
  EXPECT_GE(cl->node(0).stats().par.page_faults, 1u);
}

TEST(Stats, PhaseTaggingSeparatesSequentialAndParallelTraffic) {
  auto cl = make_cluster(2);
  auto data = ShArray<int>::alloc(*cl, 2048);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) (void)data.load(i);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);  // sequential phase
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const PhaseCounters seq = cl->total(Phase::Sequential);
  const PhaseCounters par = cl->total(Phase::Parallel);
  // All diff traffic happened inside the parallel region here.
  EXPECT_EQ(seq.diff_msgs_sent, 0u);
  EXPECT_GT(par.diff_msgs_sent, 0u);
  EXPECT_GT(par.diff_bytes_sent, 0u);
}

// A parallel region's fork that hands out write notices keeps TreadMarks'
// one unicast per slave, carrying what that slave lacks: a multicast goes
// out only when no slave lacks a record.  After a master-only section that
// writes a page, every slave lacks its record, whether the slaves lack each
// other's too (they wrote their own pages in the region before) or all lack
// the same records (only the master wrote).
TEST(ForkNotices, ForkCarryingNoticesIsOneUnicastPerSlave) {
  constexpr std::size_t kNodes = 4;
  for (const bool slaves_write : {true, false}) {
    TmkConfig cfg;
    cfg.heap_bytes = 1u << 20;
    Cluster cl(cfg, net::NetConfig{}, kNodes);
    ompnow::Team team(cl, ompnow::SeqMode::MasterOnly, nullptr);
    const std::size_t ints_per_page = cfg.page_bytes / sizeof(int);
    auto data = ShArray<int>::alloc(cl, (kNodes + 1) * ints_per_page, /*page_aligned=*/true);
    auto known = [](NodeRuntime& rt) {
      std::vector<std::uint32_t> out;
      for (NodeId o = 0; o < kNodes; ++o) out.push_back(rt.log().known(o));
      return out;
    };
    std::vector<std::vector<std::uint32_t>> forked(kNodes);
    const auto probe = cl.register_work([&](NodeRuntime& rt) { forked[rt.id()] = known(rt); });
    std::uint64_t fork_frames = 0;

    cl.run([&](NodeRuntime& rt) {
      team.parallel([&](const ompnow::Ctx& ctx) {
        if (ctx.tid == 0 || slaves_write) data.store(ctx.tid * ints_per_page, ctx.tid + 1);
      });
      team.sequential([&](const ompnow::Ctx&) { data.store(kNodes * ints_per_page, -1); });
      const std::uint64_t frames = rt.stats().par.msgs_sent;
      rt.fork(probe);
      fork_frames = rt.stats().par.msgs_sent - frames;
      cl.work(probe)(rt);
      rt.join_master();
    });

    const std::string what = slaves_write ? "slaves wrote" : "only the master wrote";
    EXPECT_EQ(fork_frames, kNodes - 1) << what;
    EXPECT_EQ(forked[0][0], 2u) << what;  // the region's and the section's
    for (std::size_t s = 1; s < kNodes; ++s) {
      EXPECT_EQ(forked[s], forked[0]) << what << ", slave " << s;
    }
  }
}

// Retry exhaustion names the stuck request, not just its page: with every
// diff request lost, the fault gives up after max_retries timeouts and the
// abort lists both servers still owing a reply, with the intervals wanted
// from each.
TEST(RetryExhaustionDeathTest, BaseFaultListsOutstandingServers) {
  auto run = [] {
    TmkConfig cfg;
    cfg.heap_bytes = 1u << 20;
    cfg.request_timeout = sim::milliseconds(1);
    cfg.max_retries = 2;
    net::NetConfig ncfg;
    ncfg.loss_probability = 1.0;
    Cluster cl(cfg, ncfg, 3);
    auto data = ShArray<int>::alloc(cl, 16, /*page_aligned=*/true);
    const auto work = cl.register_work([&](NodeRuntime& rt) {
      if (rt.id() != 0) data.store(rt.id(), 1);
      rt.barrier(1);
      if (rt.id() == 0) (void)data.load(0);
    });
    cl.run([&](NodeRuntime& rt) {
      rt.fork(work);
      cl.work(work)(rt);
      rt.join_master();
    });
  };
  EXPECT_DEATH(run(),
               "diff request retries exhausted: node 0, page [0-9]+, 3 attempts timed out "
               "\\(timeout 1\\.000 ms\\); outstanding servers: 1 \\(intervals 1\\) "
               "2 \\(intervals 1\\)");
}

}  // namespace
}  // namespace repseq::tmk
