// Unit tests for the passive DSM data structures: diffs, vector clocks,
// interval logs, the wire size of records and sync messages, the shared
// heap and page bookkeeping.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "tmk/access.hpp"
#include "tmk/diff.hpp"
#include "tmk/gaddr.hpp"
#include "tmk/interval.hpp"
#include "tmk/runtime.hpp"
#include "tmk/shared_heap.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {
namespace {

std::vector<std::byte> make_page(std::size_t n, std::uint8_t fill) {
  return std::vector<std::byte>(n, std::byte{fill});
}

TEST(Diff, EmptyWhenIdentical) {
  auto a = make_page(256, 7);
  Diff d = Diff::create(a, a);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.word_count(), 0u);
}

TEST(Diff, CapturesSingleWordChange) {
  auto twin = make_page(256, 0);
  auto cur = twin;
  cur[100] = std::byte{0xff};
  Diff d = Diff::create(twin, cur);
  ASSERT_EQ(d.runs().size(), 1u);
  EXPECT_EQ(d.runs()[0].word_index, 25u);  // byte 100 -> word 25
  EXPECT_EQ(d.word_count(), 1u);
}

TEST(Diff, CoalescesAdjacentChangesIntoRuns) {
  auto twin = make_page(256, 0);
  auto cur = twin;
  for (int b = 16; b < 32; ++b) cur[b] = std::byte{1};  // words 4..7
  for (int b = 64; b < 72; ++b) cur[b] = std::byte{2};  // words 16..17
  Diff d = Diff::create(twin, cur);
  ASSERT_EQ(d.runs().size(), 2u);
  EXPECT_EQ(d.runs()[0].word_index, 4u);
  EXPECT_EQ(d.runs()[0].values.size(), 4u);
  EXPECT_EQ(d.runs()[1].word_index, 16u);
  EXPECT_EQ(d.runs()[1].values.size(), 2u);
}

TEST(Diff, ApplyReconstructsModifiedPage) {
  sim::Rng rng(2024);
  auto twin = make_page(4096, 0);
  for (auto& b : twin) b = static_cast<std::byte>(rng.next_below(256));
  auto cur = twin;
  for (int i = 0; i < 200; ++i) {
    cur[rng.next_below(4096)] = static_cast<std::byte>(rng.next_below(256));
  }
  Diff d = Diff::create(twin, cur);
  auto rebuilt = twin;
  d.apply(rebuilt);
  EXPECT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0);
}

// Property sweep: random twin/current pairs with varying density round-trip
// exactly, and the encoding never exceeds page + header bounds.
class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, RoundTripAndSizeBounds) {
  const int density_pct = GetParam();
  sim::Rng rng(77 + density_pct);
  for (int trial = 0; trial < 20; ++trial) {
    auto twin = make_page(1024, 0);
    for (auto& b : twin) b = static_cast<std::byte>(rng.next_below(256));
    auto cur = twin;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (rng.next_below(100) < static_cast<std::uint64_t>(density_pct)) {
        cur[i] = static_cast<std::byte>(rng.next_below(256));
      }
    }
    Diff d = Diff::create(twin, cur);
    auto rebuilt = twin;
    d.apply(rebuilt);
    ASSERT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0)
        << "density " << density_pct << " trial " << trial;
    // Wire size bound: header + one run descriptor per run + payload.
    EXPECT_LE(d.wire_bytes(), 12 + 8 * d.runs().size() + 1024 + 4);
    // Runs are sorted, non-empty and non-adjacent.
    for (std::size_t r = 0; r < d.runs().size(); ++r) {
      EXPECT_FALSE(d.runs()[r].values.empty());
      if (r > 0) {
        EXPECT_GT(d.runs()[r].word_index,
                  d.runs()[r - 1].word_index + d.runs()[r - 1].values.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, DiffProperty, ::testing::Values(0, 1, 5, 25, 60, 100));

TEST(VectorClock, CoversAndMax) {
  VectorClock a(4);
  a.set(1, 5);
  EXPECT_TRUE(a.covers(1, 5));
  EXPECT_TRUE(a.covers(1, 4));
  EXPECT_FALSE(a.covers(1, 6));
  EXPECT_TRUE(a.covers(2, 0));

  VectorClock b(4);
  b.set(1, 3);
  b.set(2, 9);
  a.max_with(b);
  EXPECT_EQ(a.at(1), 5u);
  EXPECT_EQ(a.at(2), 9u);
}

TEST(VectorClock, DominatedByIsPartialOrder) {
  VectorClock a(3);
  VectorClock b(3);
  b.set(0, 1);
  EXPECT_TRUE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));
  VectorClock c(3);
  c.set(1, 1);
  EXPECT_FALSE(b.dominated_by(c));
  EXPECT_FALSE(c.dominated_by(b));  // concurrent
}

TEST(VectorClock, LamportSumRespectsHappensBefore) {
  VectorClock a(3);
  a.set(0, 2);
  VectorClock b = a;
  b.set(1, 4);  // b strictly after a
  EXPECT_LT(a.lamport_sum(), b.lamport_sum());
}

TEST(IntervalLog, InsertsInOrderAndIgnoresDuplicates) {
  // The log is a node's one record of what it knows: each insert raises its
  // clock to the record and lists the record under each of its pages, once,
  // and a duplicate changes neither.
  IntervalLog log(2);
  auto rec = [&](NodeId o, std::uint32_t i, std::vector<PageId> pages) {
    auto r = util::make_pooled<IntervalRecord>();
    r->owner = o;
    r->index = i;
    r->lamport = i;
    r->pages = std::move(pages);
    return r;
  };
  using Ids = std::vector<std::pair<NodeId, std::uint32_t>>;
  auto ids = [](const std::vector<IntervalRecordPtr>& recs) {
    Ids out;
    for (const IntervalRecordPtr& r : recs) out.emplace_back(r->owner, r->index);
    return out;
  };
  auto clock = [&] { return std::array{log.clock().at(0), log.clock().at(1)}; };

  EXPECT_TRUE(log.insert(rec(0, 1, {3, 5})));
  EXPECT_EQ(clock(), (std::array{1u, 0u}));
  EXPECT_TRUE(log.insert(rec(1, 1, {5})));
  EXPECT_EQ(clock(), (std::array{1u, 1u}));
  EXPECT_TRUE(log.insert(rec(0, 2, {5, 7})));
  EXPECT_EQ(clock(), (std::array{2u, 1u}));
  EXPECT_FALSE(log.insert(rec(0, 1, {3, 5})));  // duplicate ignored
  EXPECT_FALSE(log.insert(rec(1, 1, {9})));
  EXPECT_EQ(clock(), (std::array{2u, 1u}));
  EXPECT_EQ(log.known(0), 2u);
  EXPECT_EQ(log.known(1), 1u);
  EXPECT_EQ(log.get(0, 2).index, 2u);

  EXPECT_EQ(ids(log.page_notices(3)), (Ids{{0, 1}}));
  EXPECT_EQ(ids(log.page_notices(5)), (Ids{{0, 1}, {1, 1}, {0, 2}}));
  EXPECT_EQ(ids(log.page_notices(7)), (Ids{{0, 2}}));
  EXPECT_TRUE(log.page_notices(9).empty());
  EXPECT_EQ(log.page_notice_index().size(), 3u);

  EXPECT_EQ(ids(log.records_of(0, 0)), (Ids{{0, 1}, {0, 2}}));
  EXPECT_EQ(ids(log.records_of(0, 1)), (Ids{{0, 2}}));
  EXPECT_TRUE(log.records_of(0, 2).empty());
  EXPECT_EQ(ids(log.records_of(1, 0)), (Ids{{1, 1}}));
}

TEST(IntervalLog, RecordsAfterReturnsExactlyTheGap) {
  IntervalLog log(2);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    auto r = util::make_pooled<IntervalRecord>();
    r->owner = 1;
    r->index = i;
    r->lamport = i;
    log.insert(r);
  }
  VectorClock vc(2);
  vc.set(1, 3);
  auto gap = log.records_after(vc);
  ASSERT_EQ(gap.size(), 2u);
  EXPECT_EQ(gap[0]->index, 4u);
  EXPECT_EQ(gap[1]->index, 5u);
}

TEST(TmkCore, IntervalRecordWireSizeIsIndependentOfNodeCount) {
  // A committed record carries owner, index, its Lamport stamp and one id
  // per written page -- not its clock, which would add 4 bytes per node.
  for (std::size_t nodes : {4u, 1024u}) {
    TmkConfig cfg;
    cfg.heap_bytes = 4 * cfg.page_bytes;
    Cluster cl(cfg, net::NetConfig{}, nodes);
    const std::size_t ints_per_page = cfg.page_bytes / sizeof(int);
    auto data = ShArray<int>::alloc(cl, 3 * ints_per_page, /*page_aligned=*/true);
    cl.run([&](NodeRuntime& rt) {
      for (std::size_t p = 0; p < 3; ++p) data.store(p * ints_per_page, 1);
      rt.end_interval();
    });
    const IntervalRecord& rec = cl.node(0).log().get(0, 1);
    ASSERT_EQ(rec.pages.size(), 3u) << nodes << " nodes";
    EXPECT_EQ(rec.wire_bytes(), 28u) << nodes << " nodes";
    EXPECT_EQ(rec.lamport, 1u) << nodes << " nodes";
  }
}

TEST(TmkCore, SyncPayloadWireSizeIsIndependentOfNodeCount) {
  // Fork, join and barrier messages carry the records their receiver lacks
  // and no clock, which would add 4 bytes per node.  Each one measured here
  // carries one record of one page (16 + 4 bytes): the fork the master's
  // first interval, the last slave's arrival at the first barrier its first,
  // the departures from the second barrier the master's second, and the
  // last slave's join its second.  The last slave is forked last, so its
  // record cannot reach the master before every fork has left.
  const auto measure = [](std::size_t nodes) {
    TmkConfig cfg;
    cfg.heap_bytes = 4 * cfg.page_bytes;
    Cluster cl(cfg, net::NetConfig{}, nodes);
    const std::size_t ints_per_page = cfg.page_bytes / sizeof(int);
    auto data = ShArray<int>::alloc(cl, 3 * ints_per_page, /*page_aligned=*/true);
    const auto last = static_cast<NodeId>(nodes - 1);
    std::uint64_t fork = 0;
    std::uint64_t arrive = 0;
    std::uint64_t depart = 0;
    std::uint64_t before_join = 0;
    const auto work = cl.register_work([&](NodeRuntime& rt) {
      const PhaseCounters& c = rt.stats().par;
      if (rt.id() == last) data.store(ints_per_page, 1);
      std::uint64_t before = c.bytes_sent;
      rt.barrier(1);
      if (rt.id() == last) arrive = c.bytes_sent - before;
      if (rt.is_master()) data.store(1, 2);
      before = c.bytes_sent;
      rt.barrier(2);
      if (rt.is_master()) depart = (c.bytes_sent - before) / (nodes - 1);
      if (rt.id() == last) {
        data.store(2 * ints_per_page, 3);
        before_join = c.bytes_sent;
      }
    });
    cl.run([&](NodeRuntime& rt) {
      data.store(0, 1);
      rt.fork(work);  // one unicast per slave: each lacks the master's record
      fork = rt.stats().par.bytes_sent / (nodes - 1);
      cl.work(work)(rt);
      rt.join_master();
    });
    const std::uint64_t join = cl.node(last).stats().par.bytes_sent - before_join;
    return std::array<std::uint64_t, 4>{fork, arrive, depart, join};
  };

  const net::NetConfig ncfg;
  const std::array<std::uint64_t, 4> expected{ncfg.wire_bytes(32 + 20), ncfg.wire_bytes(8 + 20),
                                              ncfg.wire_bytes(8 + 20), ncfg.wire_bytes(8 + 20)};
  EXPECT_EQ(measure(4), expected);
  EXPECT_EQ(measure(1024), expected);
}

TEST(SharedHeap, BumpAllocationWithAlignment) {
  SharedHeap heap(4096);
  GAddr a = heap.alloc(10, 8);
  GAddr b = heap.alloc(10, 8);
  EXPECT_EQ(a.off, 0u);
  EXPECT_EQ(b.off, 16u);
  GAddr c = heap.alloc(1, 256);
  EXPECT_EQ(c.off % 256, 0u);
  EXPECT_EQ(heap.allocations(), 3u);
}

TEST(SharedHeap, ExhaustionAborts) {
  SharedHeap heap(64);
  (void)heap.alloc(64);
  EXPECT_DEATH((void)heap.alloc(1), "shared heap exhausted");
}

TEST(GAddrPages, PageArithmetic) {
  EXPECT_EQ(page_of(GAddr{0}, 4096), 0u);
  EXPECT_EQ(page_of(GAddr{4095}, 4096), 0u);
  EXPECT_EQ(page_of(GAddr{4096}, 4096), 1u);
  EXPECT_EQ(page_offset(GAddr{4097}, 4096), 1u);
  EXPECT_TRUE(GAddr::null().is_null());
  EXPECT_FALSE(GAddr{0}.is_null());
}

}  // namespace
}  // namespace repseq::tmk
