#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace repseq::net {
namespace {

// ---------------------------------------------------------------------------
// Transport-conformance suite
//
// Every backend variant is run through the same contract tests (delivery
// set, per-receiver monotone times, unicast independence, loss pruning), so
// a future backend inherits them by adding one line here.
// ---------------------------------------------------------------------------

struct Backend {
  TransportKind kind;
  std::size_t shards;  // hub_shards; meaningful for ShardedHub only
};

constexpr Backend kBackends[] = {
    {TransportKind::HubSwitch, 1},   {TransportKind::TreeMulticast, 1},
    {TransportKind::DirectAll, 1},   {TransportKind::ShardedHub, 1},
    {TransportKind::ShardedHub, 2},  {TransportKind::ShardedHub, 4},
};

NetConfig config_for(const Backend& b) {
  NetConfig cfg;
  cfg.transport = b.kind;
  cfg.hub_shards = b.shards;
  return cfg;
}

std::string backend_name(const Backend& b) {
  switch (b.kind) {
    case TransportKind::HubSwitch:
      return "HubSwitch";
    case TransportKind::TreeMulticast:
      return "TreeMulticast";
    case TransportKind::DirectAll:
      return "DirectAll";
    case TransportKind::ShardedHub:
      return "ShardedHub" + std::to_string(b.shards);
  }
  return "Unknown";
}

/// True multicast media put one frame on the wire per group send.
bool single_frame_medium(TransportKind k) {
  return k == TransportKind::HubSwitch || k == TransportKind::ShardedHub;
}

Message make_msg(NodeId src, NodeId dst, std::size_t bytes, std::uint32_t kind = 0,
                 std::uint64_t group = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  m.payload_bytes = bytes;
  m.mcast_group = group;
  return m;
}

/// A message exempt from loss injection and ring overflow (sync traffic).
Message reliable_msg(NodeId src, NodeId dst, std::size_t bytes) {
  Message m = make_msg(src, dst, bytes);
  m.reliable = true;
  return m;
}

class TransportConformance : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportConformance, ::testing::ValuesIn(kBackends),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return backend_name(info.param);
                         });

TEST_P(TransportConformance, MulticastDeliverySetComplete) {
  constexpr std::size_t kNodes = 8;
  constexpr NodeId kSrc = 2;
  sim::Engine eng;
  Network nw(eng, config_for(GetParam()), kNodes);
  std::set<NodeId> got;
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == kSrc) continue;
    eng.spawn("rx" + std::to_string(n), [&nw, &got, n] {
      (void)nw.nic(n).inbox().pop();
      got.insert(n);
    });
  }
  eng.spawn("tx", [&] { nw.multicast(make_msg(kSrc, kMulticastDst, 4000, 0, /*group=*/7)); });
  eng.run();
  std::set<NodeId> expect;
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n != kSrc) expect.insert(n);
  }
  EXPECT_EQ(got, expect);
  // Wire accounting: one frame on a multicast medium, one frame per edge on
  // the unicast-composed backends.
  const std::uint64_t frames = single_frame_medium(GetParam().kind) ? 1 : kNodes - 1;
  EXPECT_EQ(nw.messages_sent(), frames);
  EXPECT_EQ(nw.deliveries(), kNodes - 1);
}

TEST_P(TransportConformance, MulticastDeliveryTimesMonotonePerReceiver) {
  // Successive group sends must arrive at every receiver in send order, at
  // strictly increasing times, never before the send instant -- on every
  // backend.  All frames ride ONE group: FIFO ordering is a per-group
  // contract (frames for disjoint groups may legally travel concurrently
  // on the sharded hub -- see ShardedHub.DistinctGroupsRideIndependentMedia).
  constexpr std::size_t kNodes = 6;
  constexpr int kFrames = 3;
  sim::Engine eng;
  Network nw(eng, config_for(GetParam()), kNodes);
  std::map<NodeId, std::vector<sim::SimTime>> arrivals;
  sim::SimTime last_send{};
  for (NodeId n = 1; n < kNodes; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &arrivals, &eng, n] {
      for (int i = 0; i < kFrames; ++i) {
        (void)nw.nic(n).inbox().pop();
        arrivals[n].push_back(eng.now());
      }
    });
  }
  eng.spawn("tx", [&] {
    for (int i = 0; i < kFrames; ++i) {
      // Same group for all frames: ordering holds per shard; a FIFO group
      // stream must stay FIFO no matter which shard carries it.
      nw.multicast(make_msg(0, kMulticastDst, 3000, 0, /*group=*/11));
      last_send = eng.now();
    }
  });
  eng.run();
  for (NodeId n = 1; n < kNodes; ++n) {
    ASSERT_EQ(arrivals[n].size(), static_cast<std::size_t>(kFrames));
    EXPECT_GE(arrivals[n].front(), last_send);
    for (int i = 1; i < kFrames; ++i) {
      EXPECT_LT(arrivals[n][i - 1], arrivals[n][i]) << "receiver " << n << " frame " << i;
    }
  }
}

TEST_P(TransportConformance, UnicastPathIndependentOfBackend) {
  // Point-to-point always rides the switch; the backend choice must not
  // perturb unicast delivery times.  Compare against a HubSwitch baseline.
  const auto run_unicasts = [](const NetConfig& cfg) {
    sim::Engine eng;
    Network nw(eng, cfg, 4);
    eng.spawn("rx", [&] {
      for (int i = 0; i < 3; ++i) (void)nw.nic(1).inbox().pop();
    });
    eng.spawn("tx", [&] {
      for (int i = 0; i < 3; ++i) nw.unicast(make_msg(0, 1, 5000));
    });
    eng.run();
    return eng.now().ns;
  };
  EXPECT_EQ(run_unicasts(config_for(GetParam())), run_unicasts(NetConfig{}));
}

TEST_P(TransportConformance, FullLossPrunesEveryDelivery) {
  // With loss probability 1 nothing may reach an inbox, every attempted
  // delivery consumes exactly one loss-RNG draw, and store-and-forward
  // backends may cut subtrees off without charging frames for them.
  constexpr std::size_t kNodes = 8;
  sim::Engine eng;
  NetConfig cfg = config_for(GetParam());
  cfg.loss_probability = 1.0;
  Network nw(eng, cfg, kNodes);
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 1000)); });
  eng.run();
  EXPECT_EQ(nw.deliveries(), 0u);
  EXPECT_EQ(nw.total_drops(), 0u);
  EXPECT_GE(nw.losses_injected(), 1u);
  EXPECT_LE(nw.losses_injected(), kNodes - 1);
  EXPECT_LE(nw.messages_sent(), kNodes - 1);
}

TEST_P(TransportConformance, LossPruningChargesOnlyTransmittedFrames) {
  // Deferred accounting under loss: frames, bytes and medium occupancy may
  // be charged only for hops that were actually transmitted.  With loss
  // probability 1 a store-and-forward backend transmits just the root's
  // own edges -- the cut-off subtree must not appear in any counter, even
  // though its hops would have been committed from deferred events.
  constexpr std::size_t kNodes = 8;
  sim::Engine eng;
  NetConfig cfg = config_for(GetParam());
  cfg.loss_probability = 1.0;
  Network nw(eng, cfg, kNodes);
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 2000)); });
  eng.run();

  std::uint64_t frames = 0;      // transmitted even when lost at a receiver
  std::uint64_t attempts = 0;    // deliveries offered to loss injection
  switch (GetParam().kind) {
    case TransportKind::HubSwitch:
    case TransportKind::ShardedHub:
      frames = 1;
      attempts = kNodes - 1;
      break;
    case TransportKind::DirectAll:
      frames = kNodes - 1;
      attempts = kNodes - 1;
      break;
    case TransportKind::TreeMulticast:
      frames = cfg.mcast_tree_fanout;  // the root's children, nothing below
      attempts = cfg.mcast_tree_fanout;
      break;
  }
  const std::size_t wire = cfg.wire_bytes(2000);
  EXPECT_EQ(nw.messages_sent(), frames);
  EXPECT_EQ(nw.bytes_sent(), frames * wire);
  EXPECT_EQ(nw.losses_injected(), attempts);
  EXPECT_EQ(nw.deliveries(), 0u);
  if (GetParam().kind == TransportKind::TreeMulticast) {
    // Occupancy follows the same rule: only the transmitted edges' uplink
    // time, not the pruned subtree's.
    EXPECT_EQ(nw.hub_busy(0), cfg.link_tx_time(wire) * static_cast<std::int64_t>(frames));
  }
}

TEST_P(TransportConformance, AccountingConservationUnderLossAndBatching) {
  // The carrier/rider split of frame coalescing must conserve wire truth
  // even when loss injection prunes deliveries and (for store-and-forward
  // backends) whole subtrees: summing every send's deferred charges yields
  // exactly the facade's frame/byte totals -- no constituent is charged
  // twice, none is silently never charged.
  constexpr std::size_t kNodes = 6;
  sim::Engine eng;
  NetConfig cfg = config_for(GetParam());
  cfg.batch_window = sim::microseconds(500);
  cfg.loss_probability = 0.3;
  Network nw(eng, cfg, kNodes);

  std::uint64_t frames_sum = 0;
  std::uint64_t bytes_sum = 0;
  std::vector<int> fired;  // per-send account invocations
  const auto account_for = [&](std::size_t i) {
    return [&, i](std::size_t frames, std::size_t bytes) {
      frames_sum += frames;
      bytes_sum += bytes;
      ++fired[i];
    };
  };
  std::size_t unicasts = 0;
  std::size_t sends = 0;
  eng.spawn("tx", [&] {
    // Bursts to shared destinations/groups so coalescing actually engages,
    // from more than one sender so the tree's injection path is exercised.
    for (int burst = 0; burst < 2; ++burst) {
      for (int i = 0; i < 3; ++i) {
        fired.push_back(0);
        nw.unicast(make_msg(0, 3, 500 + 100 * i), account_for(sends++));
        ++unicasts;
      }
      for (NodeId src : {NodeId{0}, NodeId{1}, NodeId{2}}) {
        fired.push_back(0);
        nw.multicast(make_msg(src, kMulticastDst, 800, 0, /*group=*/5), account_for(sends++));
      }
      eng.sleep_for(sim::microseconds(1200));  // straddle several windows
    }
  });
  eng.run();

  EXPECT_EQ(frames_sum, nw.messages_sent());
  EXPECT_EQ(bytes_sum, nw.bytes_sent());
  EXPECT_GT(nw.losses_injected(), 0u) << "loss axis did not engage";
  for (std::size_t i = 0; i < sends; ++i) {
    if (i % 6 < 3) {
      // Unicast: exactly one charge (solo frame or its share of a batch).
      EXPECT_EQ(fired[i], 1) << "send " << i;
    } else {
      // Multicast: at least one charge (per-hop backends charge each
      // transmitted hop; loss may prune later hops but never the first).
      EXPECT_GE(fired[i], 1) << "send " << i;
    }
  }
}

TEST_P(TransportConformance, DeterministicAcrossRuns) {
  const auto run_once = [this] {
    sim::Engine eng;
    Network nw(eng, config_for(GetParam()), 6);
    for (NodeId n = 1; n < 6; ++n) {
      eng.spawn("rx" + std::to_string(n), [&nw, n] {
        for (int i = 0; i < 6; ++i) (void)nw.nic(n).inbox().pop();
      });
    }
    eng.spawn("tx", [&] {
      for (int i = 0; i < 5; ++i) {
        for (NodeId n = 1; n < 6; ++n) nw.unicast(make_msg(0, n, 1000 + 100 * n));
      }
      nw.multicast(make_msg(0, kMulticastDst, 2000, 0, /*group=*/3));
    });
    eng.run();
    return std::pair{eng.now().ns, nw.bytes_sent()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

TEST(NetConfig, WireBytesAddsPerFragmentHeaders) {
  NetConfig cfg;
  EXPECT_EQ(cfg.wire_bytes(0), 42u);          // control message: one header
  EXPECT_EQ(cfg.wire_bytes(100), 142u);       // one fragment
  EXPECT_EQ(cfg.wire_bytes(1458), 1500u);     // exactly one full fragment
  EXPECT_EQ(cfg.wire_bytes(1459), 1459u + 84u);  // two fragments
}

TEST(Transport, ParseAndNameRoundTrip) {
  for (TransportKind k : {TransportKind::HubSwitch, TransportKind::TreeMulticast,
                          TransportKind::DirectAll, TransportKind::ShardedHub}) {
    const auto parsed = parse_transport(transport_name(k));
    ASSERT_TRUE(parsed.has_value()) << transport_name(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(parse_transport("hub"), TransportKind::HubSwitch);
  EXPECT_EQ(parse_transport("tree"), TransportKind::TreeMulticast);
  EXPECT_EQ(parse_transport("direct"), TransportKind::DirectAll);
  EXPECT_EQ(parse_transport("sharded"), TransportKind::ShardedHub);
  EXPECT_FALSE(parse_transport("carrier-pigeon").has_value());
}

TEST(Transport, ShardHashDeterministicAndInRange) {
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (std::uint64_t g = 0; g < 256; ++g) {
      const std::size_t s = shard_of(g, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of(g, shards));  // stable
    }
  }
  // The mix must actually disperse: 256 consecutive groups over 4 shards
  // hit every shard.
  std::set<std::size_t> hit;
  for (std::uint64_t g = 0; g < 256; ++g) hit.insert(shard_of(g, 4));
  EXPECT_EQ(hit.size(), 4u);
}

// ---------------------------------------------------------------------------
// Facade behaviors (backend-independent, run on the default backend)
// ---------------------------------------------------------------------------

TEST(Network, UnicastDeliversWithLatency) {
  sim::Engine eng;
  Network nw(eng, NetConfig{}, 4);
  sim::SimTime got{};
  eng.spawn("rx", [&] {
    (void)nw.nic(1).inbox().pop();
    got = eng.now();
  });
  eng.spawn("tx", [&] { nw.unicast(make_msg(0, 1, 1000)); });
  eng.run();
  // Two serialization legs (uplink + downlink) plus two hop latencies:
  // 1042B / 12.5MB/s = 83.36us per leg, 5us per hop.
  EXPECT_GT(got.ns, 0);
  EXPECT_NEAR(static_cast<double>(got.ns), 2 * 83'360 + 2 * 5'000, 200.0);
}

TEST(Network, BackToBackUnicastsSerializeOnUplink) {
  sim::Engine eng;
  Network nw(eng, NetConfig{}, 4);
  std::vector<sim::SimTime> arrivals;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 2; ++i) {
      (void)nw.nic(1).inbox().pop();
      arrivals.push_back(eng.now());
    }
  });
  eng.spawn("tx", [&] {
    nw.unicast(make_msg(0, 1, 10000));
    nw.unicast(make_msg(0, 1, 10000));
  });
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame's last byte leaves one full serialization later.
  const double leg = (10000 + 7 * 42) / 12.5e6 * 1e9;
  EXPECT_NEAR(static_cast<double>((arrivals[1] - arrivals[0]).ns), leg, 1000.0);
}

TEST(Network, ResponsesFromDistinctSendersContendOnDestinationPort) {
  sim::Engine eng;
  Network nw(eng, NetConfig{}, 8);
  std::vector<sim::SimTime> arrivals;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 4; ++i) {
      (void)nw.nic(0).inbox().pop();
      arrivals.push_back(eng.now());
    }
  });
  for (NodeId s = 1; s <= 4; ++s) {
    eng.spawn("tx" + std::to_string(s), [&nw, s] { nw.unicast(make_msg(s, 0, 20000)); });
  }
  eng.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // All four senders transmit in parallel on their own uplinks, but the
  // switch's port to node 0 serializes them: arrivals are spaced by one
  // serialization time each.
  const double leg = (20000.0 + 14 * 42) / 12.5e6 * 1e9;
  for (int i = 1; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>((arrivals[i] - arrivals[i - 1]).ns), leg, 2000.0) << i;
  }
}

TEST(Network, MulticastReachesAllButSender) {
  sim::Engine eng;
  Network nw(eng, NetConfig{}, 5);
  int received = 0;
  for (NodeId n = 1; n < 5; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &received, n] {
      (void)nw.nic(n).inbox().pop();
      ++received;
    });
  }
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 500)); });
  eng.run();
  EXPECT_EQ(received, 4);
  EXPECT_EQ(nw.messages_sent(), 1u);  // one message on the wire
}

TEST(Network, MulticastsSerializeOnHub) {
  sim::Engine eng;
  Network nw(eng, NetConfig{}, 4);
  std::vector<sim::SimTime> arrivals;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 2; ++i) {
      (void)nw.nic(3).inbox().pop();
      arrivals.push_back(eng.now());
    }
  });
  eng.spawn("tx0", [&] { nw.multicast(make_msg(0, kMulticastDst, 10000)); });
  eng.spawn("tx1", [&] { nw.multicast(make_msg(1, kMulticastDst, 10000)); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double leg = (10000 + 7 * 42) / 12.5e6 * 1e9;
  EXPECT_NEAR(static_cast<double>((arrivals[1] - arrivals[0]).ns), leg, 1000.0);
}

TEST(Network, ReceiveBufferOverflowDrops) {
  sim::Engine eng;
  NetConfig cfg;
  cfg.recv_buffer_msgs = 4;
  Network nw(eng, cfg, 3);
  // Nobody drains node 2's inbox; flood it.
  eng.spawn("tx", [&] {
    for (int i = 0; i < 10; ++i) nw.unicast(make_msg(0, 2, 100));
  });
  eng.run();
  EXPECT_EQ(nw.nic(2).drops(), 6u);
  EXPECT_EQ(nw.nic(2).backlog(), 4u);
  EXPECT_EQ(nw.total_drops(), 6u);
}

TEST(Network, OverflowSparesReliableMessages) {
  // Message::reliable frames are admitted even past ring capacity
  // (kernel-retried sync traffic), droppable ones are not.  The DSM layer
  // relies on this to keep fork/join alive while concurrent sharded rounds
  // flood the rings with diff traffic.
  sim::Engine eng;
  NetConfig cfg;
  cfg.recv_buffer_msgs = 4;
  Network nw(eng, cfg, 3);
  eng.spawn("tx", [&] {
    for (int i = 0; i < 10; ++i) nw.unicast(make_msg(0, 2, 100));       // droppable
    for (int i = 0; i < 3; ++i) nw.unicast(reliable_msg(0, 2, 100));
  });
  eng.run();
  EXPECT_EQ(nw.nic(2).drops(), 6u);     // droppable overflow still counts
  EXPECT_EQ(nw.nic(2).backlog(), 7u);   // 4 ring slots + 3 reliable frames
}

TEST(Network, LossNeverTakesReliableMessages) {
  // Loss injection spares Message::reliable frames even at probability 1:
  // every droppable frame is lost, every reliable one arrives.
  sim::Engine eng;
  NetConfig cfg;
  cfg.loss_probability = 1.0;
  Network nw(eng, cfg, 2);
  eng.spawn("tx", [&] {
    for (int i = 0; i < 10; ++i) nw.unicast(make_msg(0, 1, 100));
    for (int i = 0; i < 3; ++i) nw.unicast(reliable_msg(0, 1, 100));
  });
  eng.run();
  EXPECT_EQ(nw.losses_injected(), 10u);
  EXPECT_EQ(nw.nic(1).backlog(), 3u);
}

TEST(Network, LossInjectionDropsSomeDeliveries) {
  sim::Engine eng;
  NetConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.loss_seed = 42;
  Network nw(eng, cfg, 2);
  eng.spawn("tx", [&] {
    for (int i = 0; i < 200; ++i) nw.unicast(make_msg(0, 1, 10));
  });
  eng.spawn("rx", [&] {
    // Drain whatever arrives; rely on run() terminating when idle.
    while (true) {
      auto m = nw.nic(1).inbox().pop_with_timeout(sim::milliseconds(100));
      if (!m) break;
    }
  });
  eng.run();
  EXPECT_GT(nw.losses_injected(), 50u);
  EXPECT_LT(nw.losses_injected(), 150u);
  EXPECT_EQ(nw.deliveries() + nw.losses_injected(), 200u);
}

// ---------------------------------------------------------------------------
// Backend-specific behaviors
// ---------------------------------------------------------------------------

TEST(Transport, TreeMulticastForwardsThroughInteriorNodes) {
  // Fanout 2, sender 0, 8 nodes: node 1 and 2 are root children; nodes 3-6
  // hang off 1 and 2; node 7 is a third-level leaf.  Arrival times must
  // strictly increase with tree depth (per-hop latency accumulates).
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  Network nw(eng, cfg, 8);
  std::map<NodeId, sim::SimTime> at;
  for (NodeId n = 1; n < 8; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &at, &eng, n] {
      (void)nw.nic(n).inbox().pop();
      at[n] = eng.now();
    });
  }
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 4000)); });
  eng.run();
  ASSERT_EQ(at.size(), 7u);
  EXPECT_LT(at[1], at[3]);  // root child before its own child
  EXPECT_LT(at[1], at[4]);
  EXPECT_LT(at[2], at[5]);
  EXPECT_LT(at[2], at[6]);
  EXPECT_LT(at[3], at[7]);  // depth 2 before depth 3
}

TEST(Transport, TreeMulticastInteriorOrderingExactEventDriven) {
  // Pins the event-driven per-hop forwarding model (formerly the
  // "interior-node ordering approximation": all edge reservations were
  // placed at send time, so an interior node's UNRELATED unicast issued
  // during the propagation window queued BEHIND forwards it had not even
  // received yet).  Now each hop reserves its parent's uplink from the
  // parent's *arrival* event, so node 1's own unicast -- issued at t=0,
  // long before the multicast frame reaches it -- leaves its uplink first
  // and lands strictly BEFORE its forwards to nodes 3 and 4.
  //
  // Every arrival instant is asserted exactly against the wire model:
  // fanout 2, sender 0, 8 nodes, all links idle, so a hop whose frame is
  // complete at the parent at time T delivers child j (0-based among the
  // parent's children) at T + (j+2)*leg + 2*hop -- j+1 uplink
  // serializations queued on the parent plus one switch-port leg.
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  Network nw(eng, cfg, 8);
  constexpr std::uint32_t kUniKind = 42;
  std::map<NodeId, sim::SimTime> mcast_at;
  sim::SimTime uni_at{};
  for (NodeId n = 1; n < 8; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &mcast_at, &uni_at, &eng, n] {
      const int frames = n == 7 ? 2 : 1;  // node 7 also gets the unicast
      for (int i = 0; i < frames; ++i) {
        const Message m = nw.nic(n).inbox().pop();
        if (m.kind == kUniKind) {
          uni_at = eng.now();
        } else {
          mcast_at[n] = eng.now();
        }
      }
    });
  }
  eng.spawn("mc", [&] { nw.multicast(make_msg(0, kMulticastDst, 4000)); });
  eng.spawn("uni", [&] { nw.unicast(make_msg(1, 7, 4000, kUniKind)); });
  eng.run();
  ASSERT_GT(uni_at.ns, 0);
  ASSERT_EQ(mcast_at.size(), 7u);

  const sim::SimDuration leg = cfg.link_tx_time(cfg.wire_bytes(4000));
  const sim::SimDuration hop = cfg.hop_latency;
  const auto child_at = [&](sim::SimTime parent_at, int j) {
    return parent_at + leg * (j + 2) + hop * 2;
  };
  const sim::SimTime t0{};
  // Root (node 0) holds the frame at t=0; breadth-first positions map
  // position p to node p for src=0.
  EXPECT_EQ(mcast_at[1], child_at(t0, 0));
  EXPECT_EQ(mcast_at[2], child_at(t0, 1));
  EXPECT_EQ(mcast_at[3], child_at(mcast_at[1], 0));
  EXPECT_EQ(mcast_at[4], child_at(mcast_at[1], 1));
  EXPECT_EQ(mcast_at[5], child_at(mcast_at[2], 0));
  EXPECT_EQ(mcast_at[6], child_at(mcast_at[2], 1));
  EXPECT_EQ(mcast_at[7], child_at(mcast_at[3], 0));
  // Node 1's unrelated unicast rides its idle uplink immediately: one
  // switched unicast, delivered before either forward it has yet to make.
  EXPECT_EQ(uni_at, child_at(t0, 0));
  EXPECT_LT(uni_at, mcast_at[3]);
  EXPECT_LT(uni_at, mcast_at[4]);
}

TEST(Transport, TreeMulticastUplinkUtilizationConserved) {
  // Deferred accounting must conserve total uplink utilization
  // frame-for-frame against the send-time-reservation model in the
  // no-contention case: N-1 tree edges, each paying exactly one uplink
  // serialization, no matter when each hop was committed.  The tree
  // reports that aggregate as its shard-0 "busy" occupancy.
  constexpr std::size_t kNodes = 8;
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  Network nw(eng, cfg, kNodes);
  for (NodeId n = 1; n < kNodes; ++n) {
    eng.spawn("rx" + std::to_string(n),
              [&nw, n] { (void)nw.nic(n).inbox().pop(); });
  }
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 4000)); });
  eng.run();
  const std::size_t wire = cfg.wire_bytes(4000);
  EXPECT_EQ(nw.messages_sent(), kNodes - 1);
  EXPECT_EQ(nw.bytes_sent(), (kNodes - 1) * wire);
  ASSERT_EQ(nw.hub_shards(), 1u);
  EXPECT_EQ(nw.hub_busy(0), cfg.link_tx_time(wire) * (kNodes - 1));
}

TEST(Transport, DirectAllSerializesFanOutOnSourceUplink) {
  constexpr std::size_t kNodes = 5;
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::DirectAll;
  Network nw(eng, cfg, kNodes);
  std::vector<std::pair<sim::SimTime, NodeId>> order;
  for (NodeId n = 1; n < kNodes; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &order, &eng, n] {
      (void)nw.nic(n).inbox().pop();
      order.emplace_back(eng.now(), n);
    });
  }
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 10000)); });
  eng.run();
  ASSERT_EQ(order.size(), kNodes - 1);
  // Frames leave in ascending destination order and serialize on the source
  // uplink: arrivals are spaced by one full serialization each.
  const double leg = (10000 + 7 * 42) / 12.5e6 * 1e9;
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1].first, order[i].first);
    EXPECT_EQ(order[i].second, order[i - 1].second + 1);
    EXPECT_NEAR(static_cast<double>((order[i].first - order[i - 1].first).ns), leg, 2000.0);
  }
}

TEST(Transport, TreeMulticastLossCutsOffSubtrees) {
  // Store-and-forward semantics: an interior node that lost the frame has
  // nothing to forward.  With loss_probability = 1 only the root's own
  // transmissions (its k children) are ever attempted; the rest of the
  // tree is cut off without consuming loss-RNG draws.
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  cfg.loss_probability = 1.0;
  Network nw(eng, cfg, 8);
  eng.spawn("tx", [&] { nw.multicast(make_msg(0, kMulticastDst, 1000)); });
  eng.run();
  EXPECT_EQ(nw.deliveries(), 0u);
  EXPECT_EQ(nw.losses_injected(), 2u);   // the root's two children only
  EXPECT_EQ(nw.messages_sent(), 2u);     // only those frames hit the wire
}

// ---------------------------------------------------------------------------
// Sharded hub
// ---------------------------------------------------------------------------

/// Runs the same mixed unicast/multicast script on `cfg`; returns every
/// (receiver, arrival) pair in arrival order plus the facade counters.
struct Trace {
  std::vector<std::tuple<NodeId, std::int64_t>> arrivals;
  std::uint64_t msgs;
  std::uint64_t bytes;
  std::uint64_t deliveries;
  std::int64_t finish_ns;

  bool operator==(const Trace&) const = default;
};

Trace run_script(NetConfig cfg) {
  constexpr std::size_t kNodes = 6;
  sim::Engine eng;
  Network nw(eng, cfg, kNodes);
  Trace t{};
  for (NodeId n = 0; n < kNodes; ++n) {
    eng.spawn("rx" + std::to_string(n), [&nw, &t, &eng, n] {
      // 4 multicasts reach everyone but their sender (node 0 sends 3, node
      // 1 sends 1) plus one unicast to node 2.
      int frames = n == 0 ? 1 : (n == 1 ? 3 : 4);
      if (n == 2) ++frames;
      for (int i = 0; i < frames; ++i) {
        (void)nw.nic(n).inbox().pop();
        t.arrivals.emplace_back(n, eng.now().ns);
      }
    });
  }
  eng.spawn("tx", [&] {
    nw.multicast(make_msg(0, kMulticastDst, 8000, 0, /*group=*/1));
    nw.unicast(make_msg(0, 2, 3000));
    nw.multicast(make_msg(0, kMulticastDst, 8000, 0, /*group=*/2));
    nw.multicast(make_msg(0, kMulticastDst, 8000, 0, /*group=*/3));
  });
  eng.spawn("tx1", [&] { nw.multicast(make_msg(1, kMulticastDst, 5000, 0, /*group=*/4)); });
  eng.run();
  t.msgs = nw.messages_sent();
  t.bytes = nw.bytes_sent();
  t.deliveries = nw.deliveries();
  t.finish_ns = eng.now().ns;
  return t;
}

TEST(ShardedHub, DistinctGroupsRideIndependentMedia) {
  // Two concurrent multicasts whose groups land on different shards must
  // not serialize: both arrive at the same instant.  On HubSwitch the same
  // pair is spaced by one full hub serialization.
  std::uint64_t g0 = 0;
  std::uint64_t g1 = 1;
  while (shard_of(g1, 4) == shard_of(g0, 4)) ++g1;

  const auto arrivals_at = [&](NetConfig cfg) {
    sim::Engine eng;
    Network nw(eng, cfg, 4);
    std::vector<std::int64_t> at;
    eng.spawn("rx", [&] {
      for (int i = 0; i < 2; ++i) {
        (void)nw.nic(3).inbox().pop();
        at.push_back(eng.now().ns);
      }
    });
    eng.spawn("tx0", [&, g0] { nw.multicast(make_msg(0, kMulticastDst, 10000, 0, g0)); });
    eng.spawn("tx1", [&, g1] { nw.multicast(make_msg(1, kMulticastDst, 10000, 0, g1)); });
    eng.run();
    return at;
  };

  NetConfig sharded;
  sharded.transport = TransportKind::ShardedHub;
  sharded.hub_shards = 4;
  const auto spread = arrivals_at(sharded);
  ASSERT_EQ(spread.size(), 2u);
  EXPECT_EQ(spread[0], spread[1]) << "disjoint shards must not serialize";

  const auto serialized = arrivals_at(NetConfig{});  // single hub
  ASSERT_EQ(serialized.size(), 2u);
  const double leg = (10000 + 7 * 42) / 12.5e6 * 1e9;
  EXPECT_NEAR(static_cast<double>(serialized[1] - serialized[0]), leg, 1000.0);
}

TEST(ShardedHub, ShardBusyConservesSingleHubTotal) {
  // Spreading traffic over shards redistributes busy time but never
  // creates or destroys it: the sum over shards equals the single hub's
  // busy for the same frames, and more than one shard does real work.
  const auto run_groups = [](NetConfig cfg) {
    sim::Engine eng;
    Network nw(eng, cfg, 4);
    for (NodeId n = 1; n < 4; ++n) {
      eng.spawn("rx" + std::to_string(n), [&nw, n] {
        for (int i = 0; i < 16; ++i) (void)nw.nic(n).inbox().pop();
      });
    }
    eng.spawn("tx", [&] {
      for (std::uint64_t g = 0; g < 16; ++g) {
        nw.multicast(make_msg(0, kMulticastDst, 4000, 0, g));
      }
    });
    eng.run();
    sim::SimDuration total{};
    std::size_t active = 0;
    for (std::size_t s = 0; s < nw.hub_shards(); ++s) {
      total += nw.hub_busy(s);
      if (nw.hub_busy(s).ns > 0) ++active;
    }
    return std::pair{total, active};
  };

  NetConfig sharded;
  sharded.transport = TransportKind::ShardedHub;
  sharded.hub_shards = 4;
  const auto [sharded_total, sharded_active] = run_groups(sharded);
  const auto [hub_total, hub_active] = run_groups(NetConfig{});
  EXPECT_EQ(sharded_total, hub_total);
  EXPECT_EQ(hub_active, 1u);
  EXPECT_GT(sharded_active, 1u);
}

TEST(ShardedHub, NetworkCountsEachMulticastOnItsGroupsShard) {
  // The facade charges each committed multicast frame to the shard its
  // group maps to: per shard, frames and bytes equal those of the sends
  // placed there, and unicasts touch no shard.
  constexpr std::size_t kShards = 4;
  NetConfig cfg;
  cfg.transport = TransportKind::ShardedHub;
  cfg.hub_shards = kShards;

  for (const bool with_unicasts : {false, true}) {
    sim::Engine eng;
    Network nw(eng, cfg, 4);
    std::array<std::uint64_t, kShards> frames{};
    std::array<std::uint64_t, kShards> bytes{};
    eng.spawn("tx", [&] {
      for (std::uint64_t g = 0; g < 12; ++g) {
        const std::size_t payload = 1000 + 250 * g;
        nw.multicast(make_msg(0, kMulticastDst, payload, 0, g));
        ++frames[shard_of(g, kShards)];
        bytes[shard_of(g, kShards)] += cfg.wire_bytes(payload);
        if (with_unicasts) nw.unicast(make_msg(0, 1 + g % 3, 700));
      }
    });
    eng.run();

    ASSERT_EQ(nw.hub_shards(), kShards);
    std::uint64_t frames_sum = 0;
    std::uint64_t bytes_sum = 0;
    std::size_t active = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(nw.mcast_frames(s), frames[s]) << "shard " << s << " unicasts " << with_unicasts;
      EXPECT_EQ(nw.mcast_bytes(s), bytes[s]) << "shard " << s << " unicasts " << with_unicasts;
      frames_sum += nw.mcast_frames(s);
      bytes_sum += nw.mcast_bytes(s);
      if (frames[s] > 0) ++active;
    }
    EXPECT_GT(active, 1u) << "groups must spread over shards";
    if (with_unicasts) {
      EXPECT_EQ(nw.messages_sent(), frames_sum + 12);
    } else {
      EXPECT_EQ(frames_sum, nw.messages_sent());
      EXPECT_EQ(bytes_sum, nw.bytes_sent());
    }
  }
}

// ---------------------------------------------------------------------------
// Frame coalescing (BatchingTransport + tree piggybacking)
// ---------------------------------------------------------------------------

TEST(Batching, UnicastCoalescesWithinWindowPreservingFifo) {
  // Three back-to-back sends to one destination under a window: the first
  // leaves immediately (idle destination), the second and third ride one
  // combined frame at the window flush -- in send order, at one shared
  // instant, with the carrier/rider byte split summing to wire truth.
  sim::Engine eng;
  NetConfig cfg;
  cfg.batch_window = sim::microseconds(500);
  Network nw(eng, cfg, 4);

  std::vector<std::uint32_t> kinds;
  std::vector<std::int64_t> at;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 3; ++i) {
      kinds.push_back(nw.nic(1).inbox().pop().kind);
      at.push_back(eng.now().ns);
    }
  });
  std::array<std::pair<std::size_t, std::size_t>, 3> charges{};
  eng.spawn("tx", [&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      nw.unicast(make_msg(0, 1, 1000 + 1000 * i, /*kind=*/i),
                 [&charges, i](std::size_t f, std::size_t b) { charges[i] = {f, b}; });
    }
  });
  eng.run();

  EXPECT_EQ(kinds, (std::vector<std::uint32_t>{0, 1, 2}));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_LT(at[0], at[1]);
  EXPECT_EQ(at[1], at[2]) << "coalesced constituents share one delivery instant";
  EXPECT_EQ(nw.messages_sent(), 2u);  // solo frame + one combined frame
  EXPECT_EQ(nw.bytes_sent(), cfg.wire_bytes(1000) + cfg.wire_bytes(2000 + 3000));
  // Per-send charges: solo carrier, batch carrier (frame + headers + own
  // payload), rider (payload only).
  EXPECT_EQ(charges[0], (std::pair<std::size_t, std::size_t>{1, cfg.wire_bytes(1000)}));
  EXPECT_EQ(charges[1],
            (std::pair<std::size_t, std::size_t>{1, cfg.wire_bytes(2000 + 3000) - 3000}));
  EXPECT_EQ(charges[2], (std::pair<std::size_t, std::size_t>{0, 3000}));
}

TEST(Batching, WindowZeroFrameForFrameIdenticalToUnbatched) {
  // batch_window = 0 must never construct the decorator: every backend's
  // wire behaviour -- arrival instants, counters, finish time -- is
  // bit-identical to a default (windowless) config.
  for (TransportKind kind : {TransportKind::HubSwitch, TransportKind::TreeMulticast,
                             TransportKind::DirectAll, TransportKind::ShardedHub}) {
    NetConfig plain;
    plain.transport = kind;
    plain.hub_shards = 4;
    NetConfig zero = plain;
    zero.batch_window = sim::SimDuration{};
    EXPECT_EQ(run_script(zero), run_script(plain)) << transport_name(kind);
  }
}

TEST(Batching, TreePiggybackMergesBackToBackGroupSends) {
  // Interior-node piggybacking: several in-flight sends of one group
  // queued on the same tree edge leave as one combined frame, so a burst
  // costs strictly fewer wire frames than sends x (N-1) -- while every
  // receiver still gets every message, in send order.
  constexpr std::size_t kNodes = 8;
  constexpr std::uint32_t kSends = 6;
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  cfg.batch_window = sim::microseconds(1000);
  Network nw(eng, cfg, kNodes);

  std::map<NodeId, std::vector<std::uint32_t>> got;
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == 2) continue;
    eng.spawn("rx" + std::to_string(n), [&nw, &got, n] {
      for (std::uint32_t i = 0; i < kSends; ++i) {
        got[n].push_back(nw.nic(n).inbox().pop().kind);
      }
    });
  }
  eng.spawn("tx", [&] {
    for (std::uint32_t i = 0; i < kSends; ++i) {
      nw.multicast(make_msg(2, kMulticastDst, 2000, /*kind=*/i, /*group=*/9));
    }
  });
  eng.run();

  const std::vector<std::uint32_t> in_order{0, 1, 2, 3, 4, 5};
  for (const auto& [n, kinds] : got) EXPECT_EQ(kinds, in_order) << "receiver " << n;
  EXPECT_EQ(got.size(), kNodes - 1);
  EXPECT_EQ(nw.deliveries(), kSends * (kNodes - 1));
  EXPECT_LT(nw.messages_sent(), kSends * (kNodes - 1))
      << "piggybacking saved no frames on a same-group burst";
}

TEST(Batching, TreeDeferredCommitsLandOnTheSendsShard) {
  // On the tree with a window, hops commit from forwarding and flush
  // events after the send returned; each still counts on its send's shard,
  // so with only multicasts sent the shards sum to the facade's totals.
  constexpr std::size_t kNodes = 8;
  sim::Engine eng;
  NetConfig cfg;
  cfg.transport = TransportKind::TreeMulticast;
  cfg.hub_shards = 4;
  cfg.batch_window = sim::microseconds(500);
  Network nw(eng, cfg, kNodes);

  std::uint64_t committed_at_return = 0;
  eng.spawn("tx", [&] {
    for (std::uint64_t g = 0; g < 8; ++g) {
      nw.multicast(make_msg(static_cast<NodeId>(g % 3), kMulticastDst, 1500, 0, g % 5));
    }
    committed_at_return = nw.messages_sent();
  });
  eng.run();

  ASSERT_EQ(nw.hub_shards(), 4u);
  std::uint64_t frames_sum = 0;
  std::uint64_t bytes_sum = 0;
  for (std::size_t s = 0; s < nw.hub_shards(); ++s) {
    frames_sum += nw.mcast_frames(s);
    bytes_sum += nw.mcast_bytes(s);
  }
  EXPECT_LT(committed_at_return, nw.messages_sent()) << "no commit was deferred";
  EXPECT_EQ(frames_sum, nw.messages_sent());
  EXPECT_EQ(bytes_sum, nw.bytes_sent());
}

TEST(NetConfig, ParseBatchWindowAcceptsMicrosecondsRejectsJunk) {
  ASSERT_TRUE(parse_batch_window("0").has_value());
  EXPECT_EQ(parse_batch_window("0")->ns, 0);
  ASSERT_TRUE(parse_batch_window("250").has_value());
  EXPECT_EQ(*parse_batch_window("250"), sim::microseconds(250));
  for (const char* bad : {"", "-1", "abc", "12us", "1.5", "1000000001", "+5", " 5"}) {
    EXPECT_FALSE(parse_batch_window(bad).has_value()) << '\'' << bad << '\'';
  }
}

// ---------------------------------------------------------------------------
// Protocol-level cross-backend checksum matrix
// ---------------------------------------------------------------------------

TEST(TransportProtocolMatrix, ChecksumsIdenticalAcrossModesFlowsAndTransports) {
  // Every run Mode and every RSE FlowControl variant must compute the same
  // application result on every transport backend: the wire model may only
  // change timing and traffic, never data.
  using apps::harness::Mode;
  apps::bh::BhConfig bh;
  bh.bodies = 256;
  bh.steps = 1;
  const auto checksum_of = [&](Mode m, const Backend& b, rse::FlowControl f) {
    apps::harness::RunOptions o;
    o.mode = m;
    o.nodes = 4;
    o.flow = f;
    o.net = config_for(b);
    const auto report = apps::harness::run_barnes_hut(o, bh);
    EXPECT_EQ(report.transport, transport_name(b.kind));
    return report.checksum;
  };

  constexpr Backend kMatrixBackends[] = {{TransportKind::HubSwitch, 1},
                                         {TransportKind::TreeMulticast, 1},
                                         {TransportKind::DirectAll, 1},
                                         {TransportKind::ShardedHub, 4}};
  const double ref = checksum_of(Mode::Sequential, {TransportKind::HubSwitch, 1},
                                 rse::FlowControl::Chained);
  for (const Backend& b : kMatrixBackends) {
    for (Mode m : {Mode::Original, Mode::Optimized, Mode::BroadcastSeq}) {
      EXPECT_EQ(checksum_of(m, b, rse::FlowControl::Chained), ref)
          << apps::harness::mode_name(m) << " on " << backend_name(b);
    }
    for (rse::FlowControl f : {rse::FlowControl::Windowed, rse::FlowControl::None}) {
      EXPECT_EQ(checksum_of(Mode::Optimized, b, f), ref)
          << "Optimized/" << apps::harness::flow_name(f) << " on " << backend_name(b);
    }
  }
}

}  // namespace
}  // namespace repseq::net
