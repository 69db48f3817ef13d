// Tests for replicated sequential execution: correctness of replication,
// the Section 5.3 lazy-diff hazard fix, the flow-controlled multicast
// protocol (all three policies), contention elimination, and the
// broadcast-after alternative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "tmk/access.hpp"
#include "tmk/combining_tree.hpp"
#include "tmk/runtime.hpp"

namespace repseq::rse {
namespace {

using ompnow::Ctx;
using ompnow::Schedule;
using ompnow::SeqMode;
using ompnow::Team;

struct World {
  tmk::TmkConfig cfg;
  net::NetConfig ncfg;
  std::unique_ptr<tmk::Cluster> cl;
  std::unique_ptr<RseController> rse;
  std::unique_ptr<Team> team;

  explicit World(std::size_t nodes, SeqMode mode, FlowControl flow = FlowControl::Chained,
                 std::function<void(World&)> tweak = {}) {
    cfg.heap_bytes = 1u << 20;
    if (tweak) tweak(*this);
    cl = std::make_unique<tmk::Cluster>(cfg, ncfg, nodes);
    rse = std::make_unique<RseController>(*cl, flow);
    team = std::make_unique<Team>(*cl, mode, rse.get());
  }
};

TEST(Rse, ReplicatedSectionComputesIdenticalStateEverywhere) {
  World w(4, SeqMode::Replicated);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 512);
  std::vector<int> seen(4, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    // Parallel phase: each node initializes a stripe.
    w.team->parallel_for(0, 512, Schedule::StaticBlock, [&](const Ctx&, long i) {
      data.store(static_cast<std::size_t>(i), static_cast<int>(i));
    });
    // Replicated sequential section: reads everything (multicast fetch),
    // rewrites everything locally (no propagation needed afterwards).
    w.team->sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data.store(i, data.load(i) * 2);
      }
    });
    // Parallel phase: every node verifies its full local view.
    w.team->parallel([&](const Ctx& ctx) {
      int ok = 1;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (data.load(i) != static_cast<int>(i) * 2) ok = 0;
      }
      seen[ctx.tid] = ok;
    });
  });

  for (int t = 0; t < 4; ++t) EXPECT_EQ(seen[t], 1) << "thread " << t;
}

TEST(Rse, SectionWritesAreNotPropagatedAfterwards) {
  World w(4, SeqMode::Replicated);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 2048);

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 7);
    });
    w.team->parallel([&](const Ctx&) {
      long sum = 0;
      for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
      EXPECT_EQ(sum, 7 * 2048);
    });
  });

  // Reading section-written pages in the parallel phase must not fault:
  // every node already holds the up-to-date copy it computed itself.
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(w.cl->node(n).stats().par.page_faults, 0u) << "node " << n;
  }
}

TEST(Rse, CausallyChainedWritersConvergeInsideSection) {
  // Regression for the multicast-round causality hazard: writers chained by
  // barriers before the section leave causally ordered diffs for the SAME
  // word at different owners.  Nodes 3, 2, 1 and 0 write in turn, so causal
  // order runs against the ack chain's node-id order, in which round frames
  // arrive: applying each frame on arrival would let an older diff land on
  // top of the newer data that covers it -- a replica silently reading a
  // stale word and diverging (found by the chk diff-apply-causality
  // oracle).  Frames must stage per page and apply in one causal batch.
  for (FlowControl flow : {FlowControl::Chained, FlowControl::Windowed, FlowControl::None}) {
    World w(4, SeqMode::Replicated, flow);
    auto data = tmk::ShArray<int>::alloc(*w.cl, 1024, /*page_aligned=*/true);
    std::vector<int> after(4, -1);

    const auto work = w.cl->register_work([&](tmk::NodeRuntime& rt) {
      for (std::size_t i = rt.id(); i < data.size(); i += rt.node_count()) {
        data.store(i, static_cast<int>(2 * i));
      }
      rt.barrier(1);
      for (tmk::NodeId turn = rt.node_count(); turn-- > 0;) {
        if (rt.id() == turn) data.store(0, data.load(0) + 1);  // 4 writers, 1 word
        rt.barrier(2);
      }
    });
    w.cl->run([&](tmk::NodeRuntime& rt) {
      rt.fork(work);
      w.cl->work(work)(rt);
      rt.join_master();
      w.team->sequential([&](const Ctx&) {
        data.store(0, data.load(0) + 3);
      });
      w.team->parallel([&](const Ctx& ctx) { after[ctx.tid] = data.load(0); });
    });

    // 0 (cyclic) + 4 increments + 3 = 7 on EVERY replica.
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(after[t], 7) << "node " << t << " flow " << static_cast<int>(flow);
    }
  }
}

TEST(Rse, SecondRegistrationOfAnIntervalReachesEveryReplica) {
  // The round path of MergedDiffs.SecondRegistrationOfAnIntervalLands: one
  // interval of the master holds two registrations for one page, and its
  // reply frame carries both.  A page that completes partway through a frame
  // must still take the frame's later packets, and the batch must land them
  // all; nodes 1 and 2 used to read 0 for word 2.
  for (FlowControl flow : {FlowControl::Chained, FlowControl::Windowed, FlowControl::None}) {
    World w(3, SeqMode::Replicated, flow);
    auto data = tmk::ShArray<int>::alloc(*w.cl, 1024, /*page_aligned=*/true);
    std::vector<std::vector<int>> seen(3);

    const auto work = w.cl->register_work([&](tmk::NodeRuntime& rt) {
      if (rt.id() == 1) data.store(1, 11);
      if (rt.id() == 0) {
        data.store(0, 10);
        // Node 1's notice lands meanwhile and flushes the twin early.
        rt.charge(sim::milliseconds(50));
        rt.cpu().flush();
        data.store(2, 12);  // re-fault, re-twin, same interval
      }
      rt.barrier(7);
    });
    w.cl->run([&](tmk::NodeRuntime& rt) {
      rt.fork(work);
      w.cl->work(work)(rt);
      rt.join_master();
      w.team->sequential([&](const Ctx& ctx) {
        for (std::size_t i = 0; i < 3; ++i) seen[ctx.tid].push_back(data.load(i));
      });
    });

    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(seen[t], (std::vector<int>{10, 11, 12}))
          << "node " << t << " flow " << static_cast<int>(flow);
    }
  }
}

TEST(Rse, ReplicatedSectionForkIsOneMulticast) {
  // Every node runs a replicated section, so the fork that opens it is one
  // multicast -- one hub frame for the master whatever n is -- carrying
  // what the least-informed slave lacks.  Before each fork, every slave
  // wrote its own page, so each slave lacks the others' newest records but
  // knows its own: the fork hands every slave its own records back, and it
  // must log them once.
  for (std::size_t nodes : {4u, 8u}) {
    for (FlowControl flow : {FlowControl::Chained, FlowControl::Windowed, FlowControl::None}) {
      World w(nodes, SeqMode::Replicated, flow);
      const std::size_t ints_per_page = w.cfg.page_bytes / sizeof(int);
      auto data = tmk::ShArray<int>::alloc(*w.cl, nodes * ints_per_page, /*page_aligned=*/true);
      int generation = 0;
      const auto region = w.cl->register_work([&](tmk::NodeRuntime& rt) {
        if (rt.is_master()) return;
        data.store(rt.id() * ints_per_page, 100 * generation + static_cast<int>(rt.id()));
      });
      std::vector<std::vector<int>> seen(nodes);
      std::vector<tmk::VectorClock> forked(nodes, tmk::VectorClock(nodes));
      const auto probe =
          w.cl->register_work([&](tmk::NodeRuntime& rt) { forked[rt.id()] = rt.vc(); });
      std::uint64_t fork_frames = 0;
      tmk::VectorClock master_vc(nodes);

      w.cl->run([&](tmk::NodeRuntime& rt) {
        auto unequal_knowledge = [&] {
          ++generation;
          rt.fork(region);
          w.cl->work(region)(rt);
          rt.join_master();
          EXPECT_GT(w.cl->node(1).log().known(1), w.cl->node(2).log().known(1));
        };
        unequal_knowledge();
        w.team->sequential([&](const Ctx& ctx) {
          for (std::size_t p = 0; p < nodes; ++p) {
            seen[ctx.tid].push_back(data.load(p * ints_per_page));
          }
        });
        unequal_knowledge();
        const std::uint64_t frames = rt.stats().seq.msgs_sent;
        rt.fork(probe, tmk::Phase::Sequential);
        fork_frames = rt.stats().seq.msgs_sent - frames;
        master_vc = rt.vc();
        rt.join_master();
      });

      const std::string what =
          std::to_string(nodes) + " nodes, flow " + std::to_string(static_cast<int>(flow));
      EXPECT_EQ(fork_frames, 1u) << what;
      std::vector<int> expected{0};
      for (std::size_t s = 1; s < nodes; ++s) expected.push_back(100 + static_cast<int>(s));
      for (std::size_t t = 0; t < nodes; ++t) {
        EXPECT_EQ(seen[t], expected) << what << ", node " << t;
        if (t > 0) {
          EXPECT_EQ(forked[t], master_vc) << what << ", slave " << t;
        }
        const tmk::NodeRuntime& rt = w.cl->node(static_cast<net::NodeId>(t));
        for (const auto& [page, notices] : rt.log().page_notice_index()) {
          std::set<std::pair<net::NodeId, std::uint32_t>> distinct;
          for (const tmk::IntervalRecordPtr& rec : notices) {
            distinct.emplace(rec->owner, rec->index);
          }
          EXPECT_EQ(distinct.size(), notices.size()) << what << ", node " << t << ", page " << page;
        }
      }
    }
  }
}

TEST(Rse, ForkClosingASectionIsOneMulticast) {
  // At the fork that ends a replicated section "no memory coherence
  // information is exchanged" (paper Section 5.2).  A replicated section's
  // fork and a section broadcast hand every slave every record the master
  // holds, so the next parallel region's fork carries none and is one
  // multicast: one frame for the master whatever n is.  Before the section
  // every slave wrote its own page, so without it each slave would lack the
  // others' records.
  for (SeqMode mode : {SeqMode::Replicated, SeqMode::BroadcastAfter}) {
    for (std::size_t nodes : {4u, 8u}) {
      for (FlowControl flow : {FlowControl::Chained, FlowControl::Windowed, FlowControl::None}) {
        World w(nodes, mode, flow);
        const std::size_t ints_per_page = w.cfg.page_bytes / sizeof(int);
        auto data = tmk::ShArray<int>::alloc(*w.cl, nodes * ints_per_page, /*page_aligned=*/true);
        std::vector<tmk::VectorClock> forked(nodes, tmk::VectorClock(nodes));
        const auto empty_region =
            w.cl->register_work([&](tmk::NodeRuntime& rt) { forked[rt.id()] = rt.vc(); });
        std::uint64_t fork_frames = 0;
        tmk::VectorClock master_vc(nodes);

        w.cl->run([&](tmk::NodeRuntime& rt) {
          w.team->parallel([&](const Ctx& ctx) {
            if (ctx.tid > 0) data.store(ctx.tid * ints_per_page, ctx.tid);
          });
          w.team->sequential([&](const Ctx&) {
            int sum = 0;
            for (std::size_t p = 1; p < nodes; ++p) sum += data.load(p * ints_per_page);
            data.store(0, sum);
          });
          const std::uint64_t frames = rt.stats().par.msgs_sent;
          rt.fork(empty_region);
          fork_frames = rt.stats().par.msgs_sent - frames;
          master_vc = rt.vc();
          rt.join_master();
        });

        const std::string what =
            std::string(mode == SeqMode::Replicated ? "replicated" : "broadcast") + ", " +
            std::to_string(nodes) + " nodes, flow " + std::to_string(static_cast<int>(flow));
        EXPECT_EQ(fork_frames, 1u) << what;
        for (std::size_t s = 1; s < nodes; ++s) {
          EXPECT_EQ(forked[s], master_vc) << what << ", slave " << s;
        }
      }
    }
  }
}

/// Every node writes its own page in one parallel region, so the master
/// logs one record per node and each slave lacks every other node's.
void write_own_pages(World& w, const tmk::ShArray<int>& data) {
  const std::size_t ints_per_page = w.cfg.page_bytes / sizeof(int);
  w.team->parallel([&](const Ctx& ctx) {
    data.store(static_cast<std::size_t>(ctx.tid) * ints_per_page, ctx.tid + 1);
  });
}

TEST(Rse, ReplicatedSectionForkCarriesStampedRecords) {
  // The fork hands every slave all 128 records, each 16 bytes plus 4 per
  // page.  Records that carried their clock, 4 more bytes per node, would
  // make it about 69 KB.
  constexpr std::size_t kNodes = 128;
  World w(kNodes, SeqMode::Replicated);
  auto data = tmk::ShArray<int>::alloc(*w.cl, kNodes * w.cfg.page_bytes / sizeof(int),
                                       /*page_aligned=*/true);
  const auto probe = w.cl->register_work([](tmk::NodeRuntime&) {});
  std::uint64_t fork_bytes = 0;
  w.cl->run([&](tmk::NodeRuntime& rt) {
    write_own_pages(w, data);
    const std::uint64_t before = w.cl->network().mcast_bytes(0);
    rt.fork(probe, tmk::Phase::Sequential);  // a replicated section's fork
    fork_bytes = w.cl->network().mcast_bytes(0) - before;
    rt.join_master();
  });
  EXPECT_EQ(w.cl->node(0).log().known(kNodes - 1), 1u);
  EXPECT_GT(fork_bytes, kNodes * 20);
  EXPECT_LT(fork_bytes, 4096u);
}

TEST(Rse, SectionClosingJoinCarriesNoCoherenceInformation) {
  // "No memory coherence information is exchanged" when a replicated
  // section ends (paper Section 5.2): no interval closes inside it, so
  // every slave's join carries no record, only its 8-byte header, at any
  // n.  The slave's clock would add 4 bytes per node.  The section's reads
  // run multicast rounds, and after its body a slave sends nothing but
  // diff traffic (tail null acks) and its join.
  constexpr std::size_t kNodes = 128;
  World w(kNodes, SeqMode::Replicated);
  const std::size_t ints_per_page = w.cfg.page_bytes / sizeof(int);
  auto data = tmk::ShArray<int>::alloc(*w.cl, kNodes * ints_per_page, /*page_aligned=*/true);
  const auto sync_msgs = [](const tmk::PhaseCounters& c) { return c.msgs_sent - c.diff_msgs_sent; };
  const auto sync_bytes = [](const tmk::PhaseCounters& c) {
    return c.bytes_sent - c.diff_bytes_sent;
  };
  std::vector<std::uint64_t> msgs_after_body(kNodes);
  std::vector<std::uint64_t> bytes_after_body(kNodes);
  w.cl->run([&](tmk::NodeRuntime&) {
    write_own_pages(w, data);
    w.team->sequential([&](const Ctx& ctx) {
      long sum = 0;
      for (std::size_t p : {std::size_t{1}, kNodes / 2, kNodes - 1}) {
        sum += data.load(p * ints_per_page);
      }
      EXPECT_EQ(sum, static_cast<long>(2 + (kNodes / 2 + 1) + kNodes)) << "thread " << ctx.tid;
      const tmk::PhaseCounters& c = ctx.rt.stats().seq;
      msgs_after_body[ctx.tid] = sync_msgs(c);
      bytes_after_body[ctx.tid] = sync_bytes(c);
    });
  });

  EXPECT_EQ(w.ncfg.wire_bytes(8), 50u);
  for (net::NodeId s = 1; s < kNodes; ++s) {
    const tmk::PhaseCounters& c = w.cl->node(s).stats().seq;
    EXPECT_EQ(sync_msgs(c) - msgs_after_body[s], 1u) << "slave " << s;
    EXPECT_EQ(sync_bytes(c) - bytes_after_body[s], w.ncfg.wire_bytes(8)) << "slave " << s;
  }
}

TEST(Tmk, SectionBroadcastCarriesStampedRecords) {
  // A section broadcast carries every record some slave lacks and the
  // master's section diff; each record weighs 16 bytes plus 4 per page.
  // A slave learns other owners' records only from the master, so in the
  // region after the broadcast each slave's join carries its one new
  // record and none of the broadcast's.
  constexpr std::size_t kNodes = 64;
  World w(kNodes, SeqMode::BroadcastAfter);
  auto data = tmk::ShArray<int>::alloc(*w.cl, kNodes * w.cfg.page_bytes / sizeof(int),
                                       /*page_aligned=*/true);
  const auto sync_msgs = [](const tmk::PhaseCounters& c) { return c.msgs_sent - c.diff_msgs_sent; };
  const auto sync_bytes = [](const tmk::PhaseCounters& c) {
    return c.bytes_sent - c.diff_bytes_sent;
  };
  std::uint64_t bcast_bytes = 0;
  std::size_t packet_bytes = 0;
  std::size_t records = 0;
  std::size_t record_bytes = 0;
  std::vector<std::uint64_t> msgs_before(kNodes);
  std::vector<std::uint64_t> bytes_before(kNodes);
  w.cl->run([&](tmk::NodeRuntime& rt) {
    write_own_pages(w, data);
    const std::uint64_t before = w.cl->network().mcast_bytes(0);
    w.team->sequential([&](const Ctx&) { data.store(0, -1); });
    bcast_bytes = w.cl->network().mcast_bytes(0) - before;
    packet_bytes = tmk::packets_wire_bytes(rt.collect_diffs(0, {rt.log().known(0)}));
    for (tmk::NodeId o = 0; o < kNodes; ++o) {
      for (std::uint32_t i = 1; i <= rt.log().known(o); ++i) {
        ++records;
        record_bytes += 16 + 4 * rt.log().get(o, i).pages.size();
      }
    }
    for (net::NodeId s = 1; s < kNodes; ++s) {
      msgs_before[s] = sync_msgs(w.cl->node(s).stats().par);
      bytes_before[s] = sync_bytes(w.cl->node(s).stats().par);
    }
    write_own_pages(w, data);
  });

  EXPECT_EQ(records, kNodes + 1);  // the master's region and section intervals
  EXPECT_GT(packet_bytes, 0u);
  EXPECT_EQ(bcast_bytes, w.ncfg.wire_bytes(16 + record_bytes + packet_bytes));
  for (net::NodeId s = 1; s < kNodes; ++s) {
    const tmk::PhaseCounters& c = w.cl->node(s).stats().par;
    EXPECT_EQ(sync_msgs(c) - msgs_before[s], 1u) << "slave " << s;
    // The join's 8-byte header and one record of one page (16 + 4).
    EXPECT_EQ(sync_bytes(c) - bytes_before[s], w.ncfg.wire_bytes(8 + 20)) << "slave " << s;
  }
}

/// One send the net layer traced: when, from which node, to which node
/// (-1 for a multicast) and the message kind.
struct TracedSend {
  double ts_us = 0;
  int src = 0;
  int dst = -1;
  tmk::MsgKind kind{};
};

/// Runs `program` on `w`'s cluster with net tracing on and returns every
/// unicast and multicast send, in time order.
std::vector<TracedSend> traced_sends(World& w,
                                     const std::function<void(tmk::NodeRuntime&)>& program) {
  const std::string path = ::testing::TempDir() + "repseq_rse_sends.json";
  obs::tracer().configure(path, static_cast<std::uint8_t>(obs::Cat::Net));
  w.cl->run(program);
  obs::tracer().write();
  obs::tracer().configure("", 0);
  std::ifstream in(path);
  std::vector<TracedSend> out;
  const auto number = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return -1.0;
    return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
  };
  for (std::string line; std::getline(in, line);) {
    const bool unicast = line.starts_with("{\"name\":\"unicast\"");
    if (!unicast && !line.starts_with("{\"name\":\"multicast\"")) continue;
    out.push_back({number(line, "ts"), static_cast<int>(number(line, "pid")) - 1,
                   unicast ? static_cast<int>(number(line, "dst")) : -1,
                   static_cast<tmk::MsgKind>(static_cast<std::uint32_t>(number(line, "kind")))});
  }
  in.close();
  std::remove(path.c_str());
  std::stable_sort(out.begin(), out.end(),
                   [](const TracedSend& a, const TracedSend& b) { return a.ts_us < b.ts_us; });
  return out;
}

TEST(Rse, BracketCombinesUpATreeOfReplicas) {
  // Both bursts of the bracket combine up tmk::CombiningTree: each slave
  // sends one valid-notice message and one join, to its tree parent, so
  // the master receives at most kFanIn of each, not n-1 (the Section 3
  // convergence the paper eliminates).  Every slave writes its own page
  // first, so every replica has notices to send.
  using Tree = tmk::CombiningTree;
  for (std::size_t nodes : {32u, 128u}) {
    World w(nodes, SeqMode::Replicated);
    auto data = tmk::ShArray<int>::alloc(*w.cl, nodes * w.cfg.page_bytes / sizeof(int),
                                         /*page_aligned=*/true);
    std::vector<std::size_t> notices_from(nodes);
    std::vector<std::size_t> joins_from(nodes);
    std::vector<std::size_t> notices_to(nodes);
    std::vector<std::size_t> joins_to(nodes);
    double section_us = 0;  // the region's joins before it all go to the master
    const std::vector<TracedSend> sends = traced_sends(w, [&](tmk::NodeRuntime&) {
      write_own_pages(w, data);
      section_us = static_cast<double>(w.cl->engine().now().ns) / 1000.0;
      w.team->sequential([](const Ctx&) {});
    });
    for (const TracedSend& m : sends) {
      if (m.ts_us < section_us) continue;
      if (m.kind != tmk::MsgKind::ValidNotices && m.kind != tmk::MsgKind::Join) continue;
      const bool notice = m.kind == tmk::MsgKind::ValidNotices;
      EXPECT_EQ(m.dst, static_cast<int>(Tree::parent(static_cast<net::NodeId>(m.src))))
          << nodes << " nodes, node " << m.src;
      ++(notice ? notices_from : joins_from)[m.src];
      ++(notice ? notices_to : joins_to)[m.dst];
    }
    const std::size_t fan_in = std::min(Tree::kFanIn, nodes - 1);
    EXPECT_EQ(notices_to[0], fan_in) << nodes << " nodes";
    EXPECT_EQ(joins_to[0], fan_in) << nodes << " nodes";
    for (std::size_t s = 1; s < nodes; ++s) {
      EXPECT_EQ(notices_from[s], 1u) << nodes << " nodes, slave " << s;
      EXPECT_EQ(joins_from[s], 1u) << nodes << " nodes, slave " << s;
      EXPECT_LE(notices_to[s], Tree::kFanIn) << nodes << " nodes, slave " << s;
    }
  }
}

TEST(Rse, AckChainForwardsBeforeItApplies) {
  // Under chained flow control each node sends its round frame when its
  // predecessor's lands.  Every slave holds a diff of the page, so the last
  // node's copy completes at its predecessor's frame: it forwards first and
  // applies the page after, or the chain's last step would also carry the
  // apply of every other slave's diff.
  constexpr std::size_t kNodes = 8;
  World w(kNodes, SeqMode::Replicated);
  auto data = tmk::ShArray<int>::alloc(*w.cl, w.cfg.page_bytes / sizeof(int),
                                       /*page_aligned=*/true);
  std::vector<TracedSend> chain;
  for (const TracedSend& m : traced_sends(w, [&](tmk::NodeRuntime&) {
         w.team->parallel([&](const Ctx& ctx) {
           if (ctx.tid > 0) data.store(static_cast<std::size_t>(ctx.tid), ctx.tid);
         });
         w.team->sequential([&](const Ctx&) { (void)data.load(0); });
       })) {
    if (m.kind == tmk::MsgKind::McastDiffReply || m.kind == tmk::MsgKind::McastNullAck) {
      chain.push_back(m);
    }
  }
  ASSERT_EQ(chain.size(), kNodes) << "one round, one frame per node";
  for (std::size_t i = 0; i < kNodes; ++i) ASSERT_EQ(chain[i].src, static_cast<int>(i));
  double longest_other = 0;
  for (std::size_t i = 1; i + 1 < kNodes; ++i) {
    longest_other = std::max(longest_other, chain[i].ts_us - chain[i - 1].ts_us);
  }
  EXPECT_LE(chain[kNodes - 1].ts_us - chain[kNodes - 2].ts_us, longest_other);
}

TEST(Rse, ReplicatedBracketSynchronizesOnce) {
  // The paper synchronizes once on each side of a replicated section
  // (Section 5.2): the multicast fork and the valid-notice exchange open it
  // and the join closes it.  After a parallel region in which every slave
  // wrote its own page, an empty section costs exactly 2n messages -- the
  // fork frame, n-1 valid notices, the table frame and n-1 joins -- and the
  // master sends two of them.
  for (std::size_t nodes : {4u, 8u}) {
    for (FlowControl flow : {FlowControl::Chained, FlowControl::Windowed, FlowControl::None}) {
      World w(nodes, SeqMode::Replicated, flow);
      const std::size_t ints_per_page = w.cfg.page_bytes / sizeof(int);
      auto data = tmk::ShArray<int>::alloc(*w.cl, nodes * ints_per_page, /*page_aligned=*/true);
      auto seq_msgs = [&] {
        std::uint64_t sum = 0;
        for (std::size_t t = 0; t < nodes; ++t) {
          sum += w.cl->node(static_cast<net::NodeId>(t)).stats().seq.msgs_sent;
        }
        return sum;
      };
      std::uint64_t section_msgs = 0;
      std::uint64_t master_msgs = 0;

      w.cl->run([&](tmk::NodeRuntime& rt) {
        w.team->parallel([&](const Ctx& ctx) {
          if (ctx.tid > 0) data.store(ctx.tid * ints_per_page, ctx.tid);
        });
        const std::uint64_t all0 = seq_msgs();
        const std::uint64_t master0 = rt.stats().seq.msgs_sent;
        w.team->sequential([](const Ctx&) {});
        section_msgs = seq_msgs() - all0;
        master_msgs = rt.stats().seq.msgs_sent - master0;
      });

      const std::string what =
          std::to_string(nodes) + " nodes, flow " + std::to_string(static_cast<int>(flow));
      EXPECT_EQ(section_msgs, 2 * nodes) << what;
      EXPECT_EQ(master_msgs, 2u) << what;
    }
  }
}

TEST(Rse, LazyDiffHazardYieldsPreSectionDataOnly) {
  // The Section 5.3 scenario: node 1 dirties a page before the section and
  // the diff stays lazy.  Inside the replicated section every node performs
  // a non-idempotent update (+=) on that page.  If the multicast diff
  // leaked node 1's replicated write, other nodes would double-apply it.
  World w(4, SeqMode::Replicated);
  auto cell = tmk::ShArray<int>::alloc(*w.cl, 16);
  std::vector<int> finals(4, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->parallel([&](const Ctx& ctx) {
      if (ctx.tid == 1) cell.store(0, 5);  // page dirty at node 1, diff lazy
    });
    w.team->sequential([&](const Ctx&) {
      cell.store(0, cell.load(0) + 10);  // non-idempotent replicated write
    });
    w.team->parallel([&](const Ctx& ctx) { finals[ctx.tid] = cell.load(0); });
  });

  for (int t = 0; t < 4; ++t) EXPECT_EQ(finals[t], 15) << "thread " << t;
}

TEST(Rse, EntryScansMatchAFullHeapScan) {
  // Section entry visits only pages with known write notices (for the
  // valid notices) and pages holding a twin (for write protection), not
  // the whole heap.  On every node at every entry both must agree with a
  // scan of every page, and exit must lift every protection.  The workload
  // leaves pages dirty before each section (the Section 5.3 lazy-diff
  // hazard: a page only its writer touched keeps its twin across the join)
  // and pages with notices pending from several owners, some of which no
  // section reads.
  constexpr int kNodes = 4;
  World w(kNodes, SeqMode::Replicated, FlowControl::Chained,
          [](World& ww) { ww.cfg.page_bytes = 1024; });
  constexpr std::size_t kIntsPerPage = 1024 / sizeof(int);
  constexpr std::size_t kShared = 8 * kIntsPerPage;  // 8 pages every node writes
  auto shared = tmk::ShArray<int>::alloc(*w.cl, kShared, /*page_aligned=*/true);
  auto own = tmk::ShArray<int>::alloc(*w.cl, kNodes * kIntsPerPage, /*page_aligned=*/true);

  int entries = 0;
  std::size_t protected_pages = 0;
  std::size_t multi_owner_pages = 0;
  auto check_entry = [&](tmk::NodeRuntime& rt) {
    ++entries;
    // The full scan's expected entries: per page with pending notices, the
    // owners pending and, for an owner pending twice or more, its oldest.
    std::vector<tmk::PageId> pages;
    std::vector<std::map<tmk::NodeId, std::vector<std::uint32_t>>> pending;
    for (tmk::PageId p = 0; p < rt.page_count(); ++p) {
      const tmk::PageState& ps = rt.page(p);
      EXPECT_EQ(ps.rse_write_protected, ps.has_twin()) << "node " << rt.id() << " page " << p;
      if (ps.rse_write_protected) ++protected_pages;
      if (ps.pending.empty()) continue;
      pages.push_back(p);
      auto& by_owner = pending.emplace_back();
      for (const tmk::IntervalRecordPtr& r : ps.pending) by_owner[r->owner].push_back(r->index);
      if (by_owner.size() > 1) ++multi_owner_pages;
    }
    const tmk::ValidNoticesP bounded = RseController::local_valid_notices(rt);
    ASSERT_EQ(bounded.entries.size(), pages.size()) << "node " << rt.id();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const tmk::ValidNotice& e = bounded.entries[i];
      EXPECT_EQ(e.page, pages[i]) << "node " << rt.id();
      std::vector<std::pair<tmk::NodeId, std::uint32_t>> lags;
      for (tmk::NodeId o = 0; o < static_cast<tmk::NodeId>(kNodes); ++o) {
        const auto it = pending[i].find(o);
        EXPECT_EQ(e.owners.contains(o), it != pending[i].end())
            << "node " << rt.id() << " page " << pages[i] << " owner " << o;
        if (it != pending[i].end() && it->second.size() > 1) {
          lags.emplace_back(o, *std::min_element(it->second.begin(), it->second.end()));
        }
      }
      EXPECT_EQ(e.lags, lags) << "node " << rt.id() << " page " << pages[i];
    }
  };

  w.cl->run([&](tmk::NodeRuntime&) {
    for (int iter = 0; iter < 3; ++iter) {
      w.team->parallel([&](const Ctx& ctx) {
        for (std::size_t i = static_cast<std::size_t>(ctx.tid); i < kShared; i += kNodes) {
          shared.store(i, static_cast<int>(i) + iter);
        }
        own.store(static_cast<std::size_t>(ctx.tid) * kIntsPerPage, iter);
      });
      w.team->sequential([&](const Ctx& ctx) {
        check_entry(ctx.rt);
        // Read (and so validate) only the first half of the shared pages;
        // the rest keep their multi-owner notices pending into later
        // sections.  Then write the even nodes' own pages: the first write
        // to a protected page flushes its pre-section diff, and the odd
        // nodes' pages stay protected until exit.
        long s = 0;
        for (std::size_t i = 0; i < kShared / 2; ++i) s += shared.load(i);
        for (std::size_t t = 0; t < kNodes; t += 2) {
          own.store(t * kIntsPerPage + 1, static_cast<int>(s % 1000));
        }
      });
      w.team->parallel([&](const Ctx& ctx) {
        for (tmk::PageId p = 0; p < ctx.rt.page_count(); ++p) {
          EXPECT_FALSE(ctx.rt.page(p).rse_write_protected) << "node " << ctx.tid << " page " << p;
        }
      });
    }
  });

  EXPECT_EQ(entries, 3 * kNodes);
  EXPECT_GT(protected_pages, 0u);
  EXPECT_GT(multi_owner_pages, 0u);
}

TEST(Rse, ReplicasReadNoticesPendingAcrossSections) {
  // Nodes 1 and 2 write every `multi` page in each of three parallel
  // regions, while nodes 0 and 3 leave them alone (node 3 reads them once,
  // in a region after the first).  The sections between the regions read
  // nothing, so the notices stay pending across them, and at the last
  // section's entry nodes 0 and 3 lack three and two notices of each
  // writer: their valid notices name the oldest, and the elected requester
  // must ask for every interval some replica lacks.
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kPages = 4;
  World w(kNodes, SeqMode::Replicated, FlowControl::Chained,
          [](World& ww) { ww.cfg.page_bytes = 1024; });
  constexpr std::size_t kIntsPerPage = 1024 / sizeof(int);
  auto multi = tmk::ShArray<int>::alloc(*w.cl, kPages * kIntsPerPage, /*page_aligned=*/true);
  auto out = tmk::ShArray<long>::alloc(*w.cl, 1);
  auto word = [](std::size_t page, int writer, int iter) {
    return page * kIntsPerPage + static_cast<std::size_t>(8 * writer + iter);
  };
  std::vector<long> seen(kNodes, -1);
  std::size_t lagged_entries = 0;

  w.cl->run([&](tmk::NodeRuntime&) {
    for (int iter = 0; iter < 3; ++iter) {
      w.team->parallel([&](const Ctx& ctx) {
        if (ctx.tid == 1 || ctx.tid == 2) {
          for (std::size_t p = 0; p < kPages; ++p) {
            multi.store(word(p, ctx.tid, iter), 100 * ctx.tid + iter + 1);
          }
        }
      });
      if (iter == 0) {
        w.team->parallel([&](const Ctx& ctx) {
          if (ctx.tid != 3) return;
          long s = 0;
          for (std::size_t i = 0; i < multi.size(); ++i) s += multi.load(i);
          EXPECT_EQ(s, static_cast<long>(kPages) * (101 + 201));
        });
      }
      w.team->sequential([&](const Ctx&) { out.store(0, iter); });
    }
    w.team->sequential([&](const Ctx& ctx) {
      for (const tmk::ValidNotice& e : RseController::local_valid_notices(ctx.rt).entries) {
        if (!e.lags.empty()) ++lagged_entries;
      }
      long s = 0;
      for (std::size_t i = 0; i < multi.size(); ++i) s += multi.load(i);
      seen[ctx.rt.id()] = s;
      out.store(0, s);
    });
  });

  // Every page holds 1..3 from node 1 at 101..103 and from node 2 at
  // 201..203.
  const long expect = static_cast<long>(kPages) * (101 + 102 + 103 + 201 + 202 + 203);
  for (std::size_t t = 0; t < kNodes; ++t) EXPECT_EQ(seen[t], expect) << "node " << t;
  EXPECT_GT(lagged_entries, 0u);
  for (net::NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(w.cl->node(n).stats().seq.recoveries, 0u) << "node " << n;
    EXPECT_EQ(w.cl->node(n).stats().par.recoveries, 0u) << "node " << n;
  }
}

TEST(Rse, LowestFaultingThreadRequestsEachPageOnce) {
  // Node t writes page t, so every node but t faults on page t in the
  // section.  The lowest faulting thread requests it for all of them
  // (Section 5.4.1): node 1 for page 0, node 0 for pages 1-3.
  constexpr std::size_t kNodes = 4;
  World w(kNodes, SeqMode::Replicated);
  const std::size_t per_page = w.cfg.page_bytes / sizeof(int);
  auto data = tmk::ShArray<int>::alloc(*w.cl, kNodes * per_page, /*page_aligned=*/true);
  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->parallel([&](const Ctx& ctx) {
      data.store(static_cast<std::size_t>(ctx.tid) * per_page, ctx.tid + 1);
    });
    w.team->sequential([&](const Ctx&) {
      int sum = 0;
      for (std::size_t p = 0; p < kNodes; ++p) sum += data.load(p * per_page);
      EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    });
  });
  std::vector<std::uint64_t> requests;
  for (net::NodeId n = 0; n < kNodes; ++n) {
    requests.push_back(w.cl->node(n).stats().seq.fwd_requests);
  }
  EXPECT_EQ(requests, (std::vector<std::uint64_t>{3, 1, 0, 0}));
}

TEST(Rse, NullAcksFlowOnlyInChainedMode) {
  auto run = [](FlowControl flow) {
    World w(4, SeqMode::Replicated, flow);
    auto data = tmk::ShArray<int>::alloc(*w.cl, 4096);
    w.cl->run([&](tmk::NodeRuntime&) {
      // Only node 1 writes, so the other three nodes hold nothing and must
      // contribute pure null acknowledgments to each chain.
      w.team->parallel([&](const Ctx& ctx) {
        if (ctx.tid == 1) {
          for (std::size_t i = 0; i < data.size(); ++i) data.store(i, static_cast<int>(i));
        }
      });
      w.team->sequential([&](const Ctx&) {
        long sum = 0;
        for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
        EXPECT_EQ(sum, 4095L * 4096 / 2);
      });
    });
    std::uint64_t null_acks = 0;
    for (net::NodeId n = 0; n < 4; ++n) {
      null_acks += w.cl->node(n).stats().seq.null_acks_sent;
    }
    return null_acks;
  };

  EXPECT_GT(run(FlowControl::Chained), 0u);
  EXPECT_EQ(run(FlowControl::Windowed), 0u);
  EXPECT_EQ(run(FlowControl::None), 0u);
}

class FlowControlProperty : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FlowControlProperty, AllPoliciesComputeTheSameResult) {
  World w(5, SeqMode::Replicated, GetParam());
  auto data = tmk::ShArray<long>::alloc(*w.cl, 1500);
  long expect = 0;
  for (int i = 0; i < 1500; ++i) expect += 3L * i + 1;
  std::vector<long> sums(5, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    for (int iter = 0; iter < 2; ++iter) {
      w.team->parallel_for(0, 1500, Schedule::StaticCyclic, [&](const Ctx&, long i) {
        data.store(static_cast<std::size_t>(i), 3L * i);
      });
      w.team->sequential([&](const Ctx&) {
        for (std::size_t i = 0; i < data.size(); ++i) data.store(i, data.load(i) + 1);
      });
      w.team->parallel([&](const Ctx& ctx) {
        long s = 0;
        for (std::size_t i = 0; i < data.size(); ++i) s += data.load(i);
        sums[ctx.tid] = s;
      });
    }
  });

  for (int t = 0; t < 5; ++t) EXPECT_EQ(sums[t], expect) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(Policies, FlowControlProperty,
                         ::testing::Values(FlowControl::Chained, FlowControl::Windowed,
                                           FlowControl::None));

TEST(Rse, NoFlowControlOverrunsTinyReceiveBuffers) {
  // The strawman from Section 5.4: without serialization and acks, bursts
  // of concurrent multicast rounds overrun small receive rings; timeout
  // recovery keeps the run correct anyway, at a cost.
  // Receive handling is made slower than back-to-back frame arrival so a
  // round's reply burst (five concurrent holders on the hub) overruns the
  // four-slot ring -- the asymmetry the paper's flow control guards against.
  World w(6, SeqMode::Replicated, FlowControl::None, [](World& ww) {
    ww.ncfg.recv_buffer_msgs = 3;
    ww.ncfg.recv_overhead = sim::microseconds(150);
    ww.cfg.rse_wait_timeout = sim::milliseconds(30);
  });

  // 64 pages; every node writes one word in each page, so every node holds
  // a tiny diff for every page: one request triggers five instant replies,
  // and 64 rounds fire with no serialization at all.
  constexpr std::size_t kPages = 64;
  constexpr std::size_t kIntsPerPage = 4096 / sizeof(int);
  auto data = tmk::ShArray<int>::alloc(*w.cl, kPages * kIntsPerPage, /*page_aligned=*/true);
  std::vector<long> sums(6, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->parallel([&](const Ctx& ctx) {
      for (std::size_t p = 0; p < kPages; ++p) {
        data.store(p * kIntsPerPage + static_cast<std::size_t>(ctx.tid), 1 + ctx.tid);
      }
    });
    w.team->sequential([&](const Ctx&) {
      long s = 0;
      for (std::size_t p = 0; p < kPages; ++p) {
        for (int t = 0; t < 6; ++t) s += data.load(p * kIntsPerPage + static_cast<std::size_t>(t));
      }
      EXPECT_EQ(s, static_cast<long>(kPages) * (1 + 2 + 3 + 4 + 5 + 6));
    });
    w.team->parallel([&](const Ctx& ctx) {
      long s = 0;
      for (std::size_t p = 0; p < kPages; ++p) {
        for (int t = 0; t < 6; ++t) s += data.load(p * kIntsPerPage + static_cast<std::size_t>(t));
      }
      sums[ctx.tid] = s;
    });
  });

  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(sums[t], static_cast<long>(kPages) * 21) << "thread " << t;
  }
  EXPECT_GT(w.cl->network().total_drops(), 0u);
}

TEST(Rse, EliminatesContentionAfterSequentialSection) {
  // The headline effect: master writes a large block sequentially; all
  // threads then read disjoint parts in parallel.  Replication must cut the
  // parallel-section fault count to zero and with it the response time.
  auto run = [](SeqMode mode) {
    World w(8, mode);
    auto data = tmk::ShArray<int>::alloc(*w.cl, 8 * 1024);
    w.cl->run([&](tmk::NodeRuntime&) {
      w.team->sequential([&](const Ctx&) {
        for (std::size_t i = 0; i < data.size(); ++i) data.store(i, static_cast<int>(i));
      });
      w.team->parallel([&](const Ctx& ctx) {
        const auto r = ompnow::block_range(0, static_cast<long>(data.size()), ctx.tid,
                                           ctx.nthreads);
        long s = 0;
        for (long i = r.lo; i < r.hi; ++i) s += data.load(static_cast<std::size_t>(i));
        EXPECT_GE(s, 0L);
      });
    });
    const tmk::PhaseCounters par = w.cl->total(tmk::Phase::Parallel);
    const tmk::PhaseCounters seq = w.cl->total(tmk::Phase::Sequential);
    struct Out {
      std::uint64_t par_faults, seq_msgs;
      double par_response;
      sim::SimDuration par_time;
    };
    return Out{par.page_faults, seq.msgs_sent, par.response_ms.mean(),
               w.team->parallel_time()};
  };

  const auto base = run(SeqMode::MasterOnly);
  const auto repl = run(SeqMode::Replicated);

  EXPECT_GT(base.par_faults, 0u);
  EXPECT_EQ(repl.par_faults, 0u);               // contention eliminated
  EXPECT_GT(repl.seq_msgs, base.seq_msgs);       // but the section costs more
  EXPECT_LT(repl.par_time, base.par_time);       // and the parallel phase wins
}

TEST(Rse, BroadcastAfterAlternativeAlsoEliminatesFaults) {
  World w(4, SeqMode::BroadcastAfter);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 4096);
  std::vector<long> sums(4, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 2);
    });
    w.team->parallel([&](const Ctx& ctx) {
      long s = 0;
      for (std::size_t i = 0; i < data.size(); ++i) s += data.load(i);
      sums[ctx.tid] = s;
    });
  });

  for (int t = 0; t < 4; ++t) EXPECT_EQ(sums[t], 2L * 4096) << "thread " << t;
  // The push happened in the sequential section; parallel reads are local.
  EXPECT_EQ(w.cl->total(tmk::Phase::Parallel).page_faults, 0u);
}

TEST(Rse, BroadcastAfterEmptySectionSendsNothing) {
  // Edge case: a sequential section that modifies nothing produces an empty
  // since-delta -- no diffs are created and no BcastUpdate may hit the wire
  // (nor the n-1 acks it would solicit).
  World w(4, SeqMode::BroadcastAfter);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 1024);

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->sequential([&](const Ctx&) {
      long sum = 0;
      for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
      EXPECT_EQ(sum, 0L);  // reads only; nothing dirtied
    });
  });

  EXPECT_EQ(w.cl->network().messages_sent(), 0u);
  EXPECT_EQ(w.team->sequential_sections(), 1u);
}

TEST(Rse, BroadcastAfterBackToBackSectionsWithoutParallelRegion) {
  // Two broadcast sections with no parallel region in between: the second
  // broadcast must carry only the second section's modifications (the
  // master's slave-knowledge bookkeeping already covers the first), every
  // node must still observe both sections' writes locally, and re-running
  // the overlapping page set must not resurrect first-section data.
  World w(4, SeqMode::BroadcastAfter);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 2048);
  std::vector<int> first(4, -1);
  std::vector<int> second(4, -1);

  std::uint64_t msgs_after_first = 0;
  std::uint64_t msgs_after_second = 0;
  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);
    });
    msgs_after_first = w.cl->network().messages_sent();
    w.team->sequential([&](const Ctx&) {
      // Overlap the first section's pages and extend past them.
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, data.load(i) + 10);
    });
    msgs_after_second = w.cl->network().messages_sent();
    w.team->parallel([&](const Ctx& ctx) {
      first[ctx.tid] = data.load(0);
      second[ctx.tid] = data.load(data.size() - 1);
    });
  });

  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(first[t], 11) << "thread " << t;
    EXPECT_EQ(second[t], 11) << "thread " << t;
  }
  // Both sections actually broadcast (no silent elision of the second).
  EXPECT_GT(msgs_after_first, 0u);
  EXPECT_GT(msgs_after_second, msgs_after_first);
  // The push already distributed everything: parallel reads are local.
  EXPECT_EQ(w.cl->total(tmk::Phase::Parallel).page_faults, 0u);
}

TEST(Rse, BroadcastDoesNotClobberPagesWithOlderUnpulledNotices) {
  // Regression: the eager BcastUpdate apply used to clobber newer data.
  // Node 1 writes a block in a parallel region; nodes 2/3 never read it, so
  // they still owe that page node 1's write notice when the master's next
  // sequential section rewrites every element and broadcasts.  Applying the
  // master's diff eagerly cleared only the master's notice; the later fault
  // then pulled node 1's *older* diff on top of the master's values,
  // resurrecting the pre-section data.  The broadcast must leave such pages
  // invalid so the pull path applies both diffs causally.
  World w(4, SeqMode::BroadcastAfter, FlowControl::Chained, [](World& ww) {
    ww.cfg.page_bytes = 1024;
  });
  constexpr std::size_t kElems = 512;  // 4 pages of 128 longs
  auto data = tmk::ShArray<long>::alloc(*w.cl, kElems, /*page_aligned=*/true);
  std::vector<long> sums(4, -1);

  w.cl->run([&](tmk::NodeRuntime&) {
    // Block distribution: node 1 owns elements the others never touch.
    w.team->parallel_for(0, kElems, Schedule::StaticBlock, [&](const Ctx&, long i) {
      data.store(static_cast<std::size_t>(i), i);
    });
    w.team->sequential([&](const Ctx&) {
      for (std::size_t i = 0; i < kElems; ++i) data.store(i, data.load(i) + 1000);
    });
    // Cyclic distribution: every node reads elements from node 1's block.
    w.team->parallel([&](const Ctx& ctx) {
      long s = 0;
      for (std::size_t i = static_cast<std::size_t>(ctx.tid); i < kElems;
           i += static_cast<std::size_t>(ctx.nthreads)) {
        s += data.load(i);
      }
      sums[ctx.tid] = s;
    });
  });

  std::vector<long> host(4, 0);
  for (std::size_t i = 0; i < kElems; ++i) host[i % 4] += static_cast<long>(i) + 1000;
  for (int t = 0; t < 4; ++t) EXPECT_EQ(sums[t], host[t]) << "thread " << t;
}

TEST(Rse, ReplicatedModeIsDeterministic) {
  auto run_once = [] {
    World w(4, SeqMode::Replicated);
    auto data = tmk::ShArray<int>::alloc(*w.cl, 3000);
    w.cl->run([&](tmk::NodeRuntime&) {
      w.team->parallel_for(0, 3000, Schedule::StaticBlock, [&](const Ctx&, long i) {
        data.store(static_cast<std::size_t>(i), static_cast<int>(i % 17));
      });
      w.team->sequential([&](const Ctx&) {
        for (std::size_t i = 0; i < data.size(); ++i) data.store(i, data.load(i) + 1);
      });
    });
    return std::pair{w.cl->engine().now().ns, w.cl->engine().events_executed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Rse, SecondControllerOnOneClusterAborts) {
  // One controller owns a cluster's RSE hooks and message kinds.
  World w(2, SeqMode::Replicated);
  EXPECT_DEATH(RseController second(*w.cl), "RSE hooks already attached");
}

TEST(Rse, MasterGuardedSideEffectsRunOnce) {
  World w(4, SeqMode::Replicated);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 64);
  int io_count = 0;

  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->sequential([&](const Ctx& ctx) {
      data.store(0, 1);
      ctx.master_only([&] { ++io_count; });  // I/O guard, Section 5.2
    });
  });

  EXPECT_EQ(io_count, 1);
}

TEST(TeamSchedules, BlockRangePartitionsExactly) {
  long covered = 0;
  for (int t = 0; t < 7; ++t) {
    const auto r = ompnow::block_range(0, 100, t, 7);
    covered += r.hi - r.lo;
    EXPECT_LE(r.lo, r.hi);
  }
  EXPECT_EQ(covered, 100);
  // First ranges absorb the remainder.
  EXPECT_EQ(ompnow::block_range(0, 100, 0, 7).hi - ompnow::block_range(0, 100, 0, 7).lo, 15);
}

TEST(TeamSchedules, IfClauseRunsInlineWithoutFork) {
  World w(4, SeqMode::MasterOnly);
  auto data = tmk::ShArray<int>::alloc(*w.cl, 32);
  w.cl->run([&](tmk::NodeRuntime&) {
    w.team->parallel_for(0, 32, Schedule::StaticCyclic,
                         [&](const Ctx&, long i) { data.store(static_cast<std::size_t>(i), 1); },
                         /*if_parallel=*/false);
  });
  EXPECT_EQ(w.team->parallel_regions(), 0u);
  EXPECT_EQ(w.cl->network().messages_sent(), 0u);
}

}  // namespace
}  // namespace repseq::rse
