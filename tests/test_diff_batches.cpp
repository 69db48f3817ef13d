// Equivalence of the per-page diff-batch steps with reference formulations.
// The causal order and the RSE request union cost linear work per batch;
// the references below compute the same results the quadratic way (a
// stable sort recomputing keys per comparison, a walk of every faulting
// thread's dense validity clock over every notice), and every randomized
// case must match them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "rse/controller.hpp"
#include "tmk/access.hpp"
#include "tmk/interval.hpp"
#include "tmk/protocol.hpp"
#include "tmk/runtime.hpp"

namespace repseq {
namespace {

using tmk::DiffPacket;
using tmk::IntervalLog;
using tmk::IntervalRecord;
using tmk::IntervalRecordPtr;
using tmk::NodeId;
using tmk::VectorClock;

// ---- references ------------------------------------------------------------

/// The causal order as a stable sort whose comparator recomputes both
/// packets' Lamport keys on every comparison.
std::vector<std::uint32_t> reference_causal_order(const IntervalLog& log,
                                                  const std::vector<DiffPacket>& pkts) {
  auto lamport = [&](const DiffPacket& pkt) {
    std::uint32_t newest = 0;
    for (std::uint32_t i : pkt.covers()) {
      if (i <= log.known(pkt.owner)) newest = std::max(newest, i);
    }
    return log.get(pkt.owner, newest).lamport;
  };
  std::vector<std::uint32_t> order(pkts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    const DiffPacket& a = pkts[x];
    const DiffPacket& b = pkts[y];
    const auto la = lamport(a);
    const auto lb = lamport(b);
    if (la != lb) return la < lb;
    if (a.owner != b.owner) return a.owner < b.owner;
    return a.seq() < b.seq();
  });
  return order;
}

/// A thread that will fault on a page, with its dense validity clock.
using DenseThread = std::pair<NodeId, const VectorClock*>;

/// The request union as a walk of every faulting thread's clock over every
/// notice, gathered into a map of sets.
tmk::WantedByOwner reference_union_missing(const std::vector<IntervalRecordPtr>& notices,
                                           const std::vector<DenseThread>& faulting) {
  std::map<NodeId, std::set<std::uint32_t>> want;
  for (const auto& [t, valid] : faulting) {
    for (const IntervalRecordPtr& rec : notices) {
      if (rec->owner == t) continue;  // own writes are never missing
      if (!valid->covers(rec->owner, rec->index)) want[rec->owner].insert(rec->index);
    }
  }
  tmk::WantedByOwner out;
  for (auto& [owner, ivs] : want) {
    out.emplace_back(owner, std::vector<std::uint32_t>(ivs.begin(), ivs.end()));
  }
  return out;
}

// ---- fixtures --------------------------------------------------------------

IntervalRecordPtr make_record(NodeId owner, std::uint32_t index, std::uint64_t lamport = 0) {
  auto rec = util::make_pooled<IntervalRecord>();
  rec->owner = owner;
  rec->index = index;
  rec->lamport = lamport;
  return rec;
}

DiffPacket make_packet(NodeId owner, std::vector<std::uint32_t> covers, std::uint64_t seq) {
  return DiffPacket{owner, 0,
                    util::make_pooled<tmk::RegisteredDiff>(tmk::RegisteredDiff{
                        seq, std::move(covers), util::make_pooled<tmk::Diff>()})};
}

/// The valid notice of thread `t` holding validity `valid` on a page whose
/// known notices are `notices`: its pending notices are the ones `valid`
/// does not cover, never its own (NodeRuntime::apply_notice never pends an
/// own record), each once.
tmk::ValidNotice valid_notice_of(NodeId t, const std::vector<IntervalRecordPtr>& notices,
                                 const VectorClock& valid) {
  std::vector<IntervalRecordPtr> pending;
  std::set<std::pair<NodeId, std::uint32_t>> seen;
  for (const IntervalRecordPtr& rec : notices) {
    if (rec->owner != t && !valid.covers(rec->owner, rec->index) &&
        seen.emplace(rec->owner, rec->index).second) {
      pending.push_back(rec);
    }
  }
  return rse::RseController::valid_notice(0, pending, valid.size());
}

std::vector<std::uint32_t> new_causal_order(const IntervalLog& log,
                                            const std::vector<DiffPacket>& pkts) {
  std::vector<tmk::NodeRuntime::CausalKey> keys;
  tmk::NodeRuntime::causal_order(log, pkts, keys);
  std::vector<std::uint32_t> order;
  for (const auto& k : keys) order.push_back(k.pos);
  return order;
}

// ---- causal order ----------------------------------------------------------

TEST(CausalOrder, MatchesStableSortOnRandomBatches) {
  std::mt19937 rng(20260417);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t nodes = 2 + rng() % 7;
    IntervalLog log(nodes);
    std::vector<std::uint32_t> known(nodes);
    for (NodeId o = 0; o < nodes; ++o) {
      known[o] = 1 + rng() % 5;
      for (std::uint32_t i = 1; i <= known[o]; ++i) {
        // Stamps summed from tiny clock entries: they collide across owners.
        std::uint64_t lamport = 0;
        for (NodeId e = 0; e < nodes; ++e) lamport += rng() % 3;
        log.insert(make_record(o, i, lamport));
      }
    }
    std::vector<DiffPacket> pkts;
    const std::size_t batch = 1 + rng() % 24;
    for (std::size_t k = 0; k < batch; ++k) {
      const auto owner = static_cast<NodeId>(rng() % nodes);
      // One known cover, plus up to three more that may run past the log
      // (a batch frozen through intervals not yet noticed here).
      std::vector<std::uint32_t> covers{1 + static_cast<std::uint32_t>(rng() % known[owner])};
      for (std::uint32_t extra = rng() % 4; extra > 0; --extra) {
        covers.push_back(1 + static_cast<std::uint32_t>(rng() % (known[owner] + 3)));
      }
      std::sort(covers.begin(), covers.end());
      covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
      // Seqs from a tiny range: equal seqs across (and within) owners.
      pkts.push_back(make_packet(owner, std::move(covers), rng() % 4));
    }
    ASSERT_EQ(new_causal_order(log, pkts), reference_causal_order(log, pkts))
        << "trial " << trial;
  }
}

TEST(CausalOrder, TiesBreakByOwnerThenSeqThenArrival) {
  IntervalLog log(3);
  for (NodeId o = 0; o < 3; ++o) log.insert(make_record(o, 1, /*lamport=*/1));
  const std::vector<DiffPacket> pkts{make_packet(2, {1}, 5), make_packet(1, {1}, 9),
                                     make_packet(1, {1, 4}, 2), make_packet(2, {1}, 5)};
  EXPECT_EQ(new_causal_order(log, pkts), (std::vector<std::uint32_t>{2, 1, 0, 3}));
  EXPECT_EQ(new_causal_order(log, pkts), reference_causal_order(log, pkts));
}

// ---- causal apply ----------------------------------------------------------

/// Node 1 writes one word; node 0 then applies node 1's diff for it as a
/// batch listing the registration `copies` times.  Returns node 0's apply
/// cost and the word it reads back.
std::pair<sim::SimDuration, int> apply_listed(int copies) {
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 1u << 20;
  tmk::Cluster cl(cfg, net::NetConfig{}, 2);
  auto data = tmk::ShArray<int>::alloc(cl, 16, /*page_aligned=*/true);
  const tmk::PageId page = tmk::page_of(data.base(), cfg.page_bytes);
  std::vector<DiffPacket> pkts;
  sim::SimDuration cost{};
  int read_back = -1;
  const auto work = cl.register_work([&](tmk::NodeRuntime& rt) {
    if (rt.id() == 1) data.store(0, 42);
    rt.barrier(1);
    if (rt.id() == 1) pkts = rt.collect_diffs(page, {1});
    rt.barrier(2);
    if (rt.id() == 0) {
      std::vector<DiffPacket> batch;
      for (int c = 0; c < copies; ++c) batch.insert(batch.end(), pkts.begin(), pkts.end());
      const sim::SimDuration before = rt.cpu().busy_time();
      rt.apply_packets_causally(std::move(batch));
      cost = rt.cpu().busy_time() - before;
      EXPECT_NE(rt.page(page).prot, tmk::PageProt::Invalid);
      read_back = data.load(0);
    }
  });
  cl.run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl.work(work)(rt);
    rt.join_master();
  });
  EXPECT_EQ(pkts.size(), 1u);
  return {cost, read_back};
}

TEST(CausalApply, ARegistrationListedTwiceLandsAndIsChargedOnce) {
  // A multicast frame delivered again by recovery can list a registration
  // twice in one staged batch.
  const auto [once_cost, once_value] = apply_listed(1);
  const auto [twice_cost, twice_value] = apply_listed(2);
  EXPECT_GT(once_cost.ns, 0);
  EXPECT_EQ(twice_cost.ns, once_cost.ns);
  EXPECT_EQ(once_value, 42);
  EXPECT_EQ(twice_value, 42);
}

// ---- request union ---------------------------------------------------------

TEST(UnionMissing, MatchesMapOfSetsOnRandomPages) {
  // Compact entries decoded against the page's notices must request what
  // the dense validity clocks they were built from request.
  std::mt19937 rng(424242);
  int empty_results = 0;
  int lagging_threads = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t nodes = 2 + rng() % 10;
    std::vector<IntervalRecordPtr> notices;
    std::vector<std::uint32_t> top(nodes, 0);
    const std::size_t count = rng() % 30;
    for (std::size_t k = 0; k < count; ++k) {
      const auto owner = static_cast<NodeId>(rng() % nodes);
      notices.push_back(make_record(owner, ++top[owner]));
      if (rng() % 8 == 0) notices.push_back(notices.back());  // a repeated notice
    }
    // Owners interleave at random; each owner's notices ascend, as in
    // IntervalLog::page_notices.
    // Faulting threads include notice owners; in some trials every thread's
    // validity already covers every notice (nothing to request).
    const bool all_covered = trial % 5 == 0;
    std::vector<VectorClock> clocks;
    std::vector<NodeId> ids;
    for (NodeId t = 0; t < nodes; ++t) {
      if (rng() % 3 == 0) continue;
      VectorClock vc(nodes);
      for (NodeId o = 0; o < nodes; ++o) {
        vc.set(o, all_covered ? top[o] + rng() % 2 : rng() % (top[o] + 2));
      }
      clocks.push_back(std::move(vc));
      ids.push_back(t);
    }
    std::vector<DenseThread> dense;
    std::vector<tmk::ValidNotice> entries;
    entries.reserve(ids.size());
    std::vector<rse::RseController::FaultingThread> faulting;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      dense.emplace_back(ids[k], &clocks[k]);
      const tmk::ValidNotice& e = entries.emplace_back(valid_notice_of(ids[k], notices, clocks[k]));
      faulting.emplace_back(ids[k], &e);
      lagging_threads += e.lags.empty() ? 0 : 1;
    }
    const tmk::WantedByOwner got = rse::RseController::union_missing(notices, faulting);
    ASSERT_EQ(got, reference_union_missing(notices, dense)) << "trial " << trial;
    if (all_covered) {
      EXPECT_TRUE(got.empty()) << "trial " << trial;
    }
    empty_results += got.empty() ? 1 : 0;
  }
  EXPECT_LT(empty_results, 300);  // most cases request something
  EXPECT_GT(lagging_threads, 300);  // many threads lack two or more intervals of an owner
}

TEST(UnionMissing, OwnersNeverMissTheirOwnNotices) {
  // Thread 1 wrote intervals 1..3 and lags behind on its own copy; thread 2
  // has seen interval 1 only.  Only thread 2's gap is a request: an owner's
  // entry never names its own notices.
  const std::vector<IntervalRecordPtr> notices{make_record(1, 1), make_record(1, 2),
                                               make_record(1, 3)};
  VectorClock stale_owner(3);
  VectorClock behind(3);
  behind.set(1, 1);
  const tmk::ValidNotice owner_entry = valid_notice_of(1, notices, stale_owner);
  const tmk::ValidNotice behind_entry = valid_notice_of(2, notices, behind);
  EXPECT_FALSE(owner_entry.owners.contains(1));
  ASSERT_TRUE(behind_entry.owners.contains(1));
  const std::vector<std::pair<NodeId, std::uint32_t>> lag{{1, 2}};
  EXPECT_EQ(behind_entry.lags, lag);
  const tmk::WantedByOwner want{{1, {2, 3}}};
  EXPECT_EQ(rse::RseController::union_missing(notices, {{1, &owner_entry}, {2, &behind_entry}}),
            want);
  EXPECT_EQ(reference_union_missing(notices, {{1, &stale_owner}, {2, &behind}}), want);
  // With the owner the only faulting thread, nothing is missing anywhere.
  EXPECT_TRUE(rse::RseController::union_missing(notices, {{1, &owner_entry}}).empty());
}

TEST(UnionMissing, EntryLacksOnlyTheNewestNoticeWithoutALag) {
  // Thread 2 lacks only owner 1's newest notice on the page (interval 4;
  // intervals 2 and 3 of owner 1 wrote other pages): the entry is the
  // owner's bit alone, 21 wire bytes at 128 nodes.
  constexpr std::size_t kNodes = 128;
  const std::vector<IntervalRecordPtr> notices{make_record(1, 1), make_record(1, 4)};
  VectorClock valid(kNodes);
  valid.set(1, 3);
  const tmk::ValidNotice e = valid_notice_of(2, notices, valid);
  EXPECT_TRUE(e.lags.empty());
  EXPECT_EQ(e.wire_bytes(), 21u);
  const tmk::WantedByOwner want{{1, {4}}};
  EXPECT_EQ(rse::RseController::union_missing(notices, {{2, &e}}), want);
}

}  // namespace
}  // namespace repseq
