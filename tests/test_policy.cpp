// Tests for the adaptive per-section replication policy engine
// (rse::policy): decision determinism, decisions shared by the transports
// of one multicast cost class, cluster-wide decision agreement via the
// section-open multicast, correctness of mixed-strategy runs, the cost
// model's transport prices, and the headline competitiveness claim --
// adaptive within a few percent of the best static mode on both
// applications, and following the transport at 64 nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "net/network.hpp"
#include "ompnow/team.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/access.hpp"

namespace repseq::rse::policy {
namespace {

using apps::harness::Mode;
using apps::harness::RunOptions;
using apps::harness::RunReport;

RunOptions opts(Mode mode, std::size_t nodes) {
  RunOptions o;
  o.mode = mode;
  o.nodes = nodes;
  o.tmk.heap_bytes = 24u << 20;
  return o;
}

apps::ilink::IlinkConfig small_ilink() {
  apps::ilink::IlinkConfig cfg;
  cfg.families = 2;
  cfg.children = 2;
  cfg.genotypes = 1024;
  cfg.iterations = 2;
  cfg.min_nonzero = 64;
  cfg.max_nonzero = 256;
  cfg.threshold = 96;
  return cfg;
}

std::vector<Decision> sorted_by_seq(std::vector<Decision> v) {
  std::sort(v.begin(), v.end(),
            [](const Decision& a, const Decision& b) { return a.seq < b.seq; });
  return v;
}

void expect_same_choices(const std::vector<Decision>& a, const std::vector<Decision>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i])
        << what << ": decision " << i << " differs: site " << a[i].site << " vs " << b[i].site
        << ", strategy " << strategy_name(a[i].strategy) << " vs "
        << strategy_name(b[i].strategy);
  }
}

TEST(PolicyParsing, StrategyAndPinListRoundTrip) {
  for (SectionStrategy s : {SectionStrategy::MasterOnly, SectionStrategy::Replicated,
                            SectionStrategy::BroadcastAfter}) {
    const auto parsed = parse_strategy(strategy_name(s));
    ASSERT_TRUE(parsed.has_value()) << strategy_name(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_strategy("master"), SectionStrategy::MasterOnly);
  EXPECT_FALSE(parse_strategy("bogus").has_value());

  const auto pins = parse_pin_sites("1=broadcast,3=master-only");
  ASSERT_TRUE(pins.has_value());
  ASSERT_EQ(pins->size(), 2u);
  EXPECT_EQ(pins->at(1), SectionStrategy::BroadcastAfter);
  EXPECT_EQ(pins->at(3), SectionStrategy::MasterOnly);
  const auto single = parse_pin_sites("2=replicated");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->at(2), SectionStrategy::Replicated);

  // Malformed pin lists are rejected outright (the env reader exits with
  // the offending value) -- never half-parsed.
  EXPECT_FALSE(parse_pin_sites("1").has_value());
  EXPECT_FALSE(parse_pin_sites("=broadcast").has_value());
  EXPECT_FALSE(parse_pin_sites("x=broadcast").has_value());
  EXPECT_FALSE(parse_pin_sites("+1=broadcast").has_value());
  EXPECT_FALSE(parse_pin_sites("1=bogus").has_value());
  EXPECT_FALSE(parse_pin_sites("1=broadcast,,2=master").has_value());
  EXPECT_FALSE(parse_pin_sites("1=broadcast,").has_value());
  EXPECT_FALSE(parse_pin_sites("1=broadcast,1=master-only").has_value());
  // A site id past uint32 must fail, not silently wrap onto another site.
  EXPECT_FALSE(parse_pin_sites("4294967297=broadcast").has_value());
  EXPECT_TRUE(parse_pin_sites("4294967295=broadcast").has_value());
}

TEST(Policy, PinnedSiteSkipsProbeAndHoldsItsStrategy) {
  // REPSEQ_PIN_SITE semantics: a pinned site executes the pinned strategy
  // on EVERY occurrence -- including the first, which for an unpinned site
  // would run the execute-and-broadcast bootstrap probe -- while unpinned
  // sites adapt normally.  Results must stay bit-identical.
  const auto cfg = small_ilink();
  const RunReport free_run = run_ilink(opts(Mode::Adaptive, 6), cfg);

  RunOptions pinned = opts(Mode::Adaptive, 6);
  pinned.policy.pins[apps::ilink::kSectionSumContrib] = SectionStrategy::MasterOnly;
  const RunReport pin_run = run_ilink(pinned, cfg);

  EXPECT_EQ(pin_run.checksum, free_run.checksum);
  ASSERT_FALSE(pin_run.decisions.empty());

  bool saw_pinned = false;
  bool first_of_pinned = true;
  std::vector<std::uint32_t> seen;
  for (const Decision& d : pin_run.decisions) {
    const bool first = std::find(seen.begin(), seen.end(), d.site) == seen.end();
    if (first) seen.push_back(d.site);
    if (d.site == apps::ilink::kSectionSumContrib) {
      saw_pinned = true;
      EXPECT_EQ(d.strategy, SectionStrategy::MasterOnly)
          << "pinned site deviated at seq " << d.seq;
      if (first_of_pinned) {
        // The probe-bracket fix: no broadcast probe on a pinned site's
        // first occurrence.
        EXPECT_FALSE(d.switched);
        first_of_pinned = false;
      }
    } else if (first) {
      // Unpinned sites still bootstrap with the broadcast probe.
      EXPECT_EQ(d.strategy, SectionStrategy::BroadcastAfter)
          << "unpinned site " << d.site << " lost its bootstrap probe";
    }
  }
  EXPECT_TRUE(saw_pinned);
}

TEST(CostModel, MulticastPriceFollowsTheTransportsCostClass) {
  // One multicast is one frame on one medium on the hub and the sharded
  // hub at any S, so they price it alike; the tree forwards it level by
  // level and prices it higher.
  constexpr std::size_t kNodes = 32;
  sim::Engine eng;
  auto price = [&](net::TransportKind kind, std::size_t shards, double bytes) {
    net::NetConfig nc;
    nc.transport = kind;
    nc.hub_shards = shards;
    const net::Network nw(eng, nc, kNodes);
    return CostModel(tmk::TmkConfig{}, nw).mcast(bytes);
  };
  for (double bytes : {20.0, 4096.0, 24.0 * 4096.0}) {
    const double hub = price(net::TransportKind::HubSwitch, 1, bytes);
    EXPECT_GT(hub, 0.0) << bytes;
    EXPECT_EQ(price(net::TransportKind::ShardedHub, 1, bytes), hub) << bytes;
    EXPECT_EQ(price(net::TransportKind::ShardedHub, 4, bytes), hub) << bytes;
    EXPECT_GT(price(net::TransportKind::TreeMulticast, 1, bytes), hub) << bytes;
  }
}

TEST(PolicyParsing, NamesRoundTrip) {
  using apps::harness::parse_mode;
  EXPECT_EQ(parse_mode("adaptive"), Mode::Adaptive);
  EXPECT_EQ(parse_mode("base"), Mode::Original);
  EXPECT_EQ(parse_mode("replicated"), Mode::Optimized);
  EXPECT_EQ(parse_mode("broadcast"), Mode::BroadcastSeq);
  EXPECT_FALSE(parse_mode("bogus").has_value());
  EXPECT_EQ(apps::harness::parse_flow("windowed"), rse::FlowControl::Windowed);
  EXPECT_FALSE(apps::harness::parse_flow("bogus").has_value());
}

TEST(PolicyReport, SiteSummaryCountsSwitchesAndFinalStrategyPerSite) {
  using S = SectionStrategy;
  // Two interleaved sites; site 10 precedes site 2 in the log and sorts
  // before it as a string, but the summary orders sites numerically.
  const std::vector<Decision> log = {
      {1, 10, S::BroadcastAfter, false}, {2, 2, S::BroadcastAfter, false},
      {3, 10, S::Replicated, true},      {4, 2, S::BroadcastAfter, false},
      {5, 10, S::MasterOnly, true},      {6, 2, S::Replicated, true},
      {7, 10, S::MasterOnly, false},
  };
  EXPECT_EQ(apps::harness::site_policy_summary(log), "2:3/1/replicated 10:4/2/master-only");
  EXPECT_EQ(apps::harness::site_policy_summary({}), "-");
}

TEST(Policy, DecisionSequenceIsDeterministicAcrossReruns) {
  const auto cfg = small_ilink();
  const RunReport a = run_ilink(opts(Mode::Adaptive, 8), cfg);
  const RunReport b = run_ilink(opts(Mode::Adaptive, 8), cfg);
  expect_same_choices(a.decisions, b.decisions, "rerun");
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.policy_switches, b.policy_switches);
}

// Same seed + same telemetry => identical per-section decision sequences
// across the backends of one multicast cost class: the hub and the sharded
// hub at S in {1, 4}, where one multicast is one frame on one medium.  The
// decision function consumes only protocol-level counts and prices them on
// the configured transport, so the shard count underneath must not leak
// into the choices.  The forwarding tree prices a multicast higher and may
// decide differently; its result must still be identical.
TEST(Policy, DecisionSequenceIsInvariantWithinAMulticastCostClass) {
  const auto cfg = small_ilink();

  auto run_with = [&](net::TransportKind kind, std::size_t shards) {
    RunOptions o = opts(Mode::Adaptive, 8);
    o.net.transport = kind;
    o.net.hub_shards = shards;
    return run_ilink(o, cfg);
  };

  const RunReport hub = run_with(net::TransportKind::HubSwitch, 1);
  ASSERT_FALSE(hub.decisions.empty());

  const RunReport sharded1 = run_with(net::TransportKind::ShardedHub, 1);
  const RunReport sharded4 = run_with(net::TransportKind::ShardedHub, 4);
  const RunReport tree = run_with(net::TransportKind::TreeMulticast, 1);

  expect_same_choices(hub.decisions, sharded1.decisions, "sharded S=1");
  expect_same_choices(hub.decisions, sharded4.decisions, "sharded S=4");
  EXPECT_EQ(hub.checksum, sharded1.checksum);
  EXPECT_EQ(hub.checksum, sharded4.checksum);
  EXPECT_EQ(hub.checksum, tree.checksum);
}

// Every node's policy log -- rebuilt from the PolicySectionOpen multicasts
// the master sends at each entry -- must agree with the master's decision
// sequence: the cluster-wide strategy agreement the section-open message
// exists for.
TEST(Policy, AllNodesAgreeOnTheDecisionSequence) {
  constexpr std::size_t kNodes = 6;
  tmk::TmkConfig tc;
  tc.heap_bytes = 24u << 20;
  net::NetConfig nc;
  tmk::Cluster cl(tc, nc, kNodes);
  RseController rse(cl, FlowControl::Chained);
  PolicyEngine policy(cl);
  ompnow::Team team(cl, ompnow::SeqMode::Adaptive, &rse, &policy);

  const auto cfg = small_ilink();
  apps::ilink::IlinkWorld w = apps::ilink::setup_world(cl, cfg);
  cl.run([&](tmk::NodeRuntime&) { (void)apps::ilink::run_program(cl, team, w, cfg); });

  ASSERT_GT(policy.sections(), 0u);
  for (net::NodeId n = 1; n < kNodes; ++n) {
    expect_same_choices(sorted_by_seq(policy.decisions()), sorted_by_seq(policy.node_log(n)),
                        "slave log");
  }
}

TEST(Policy, SecondEngineOnOneClusterAborts) {
  // Both engines would claim the PolicySectionOpen kind.
  tmk::TmkConfig tc;
  tc.heap_bytes = 1u << 20;
  tmk::Cluster cl(tc, net::NetConfig{}, 2);
  PolicyEngine first(cl);
  EXPECT_DEATH(PolicyEngine second(cl), "duplicate handler registration");
}

TEST(Policy, PinnedReplicatedMatchesOptimizedPlusOneOpenFramePerSection) {
  // Pinning Barnes-Hut's only section site to Replicated
  // (REPSEQ_PIN_SITE=1=replicated) must execute exactly like
  // Mode::Optimized; the only extra traffic is the one section-open
  // multicast frame per section (HubSwitch: one frame per send).
  apps::bh::BhConfig cfg;
  cfg.bodies = 512;
  cfg.steps = 2;
  RunOptions pinned = opts(Mode::Adaptive, 4);
  pinned.policy.pins = {{apps::bh::kSectionTreeBuild, SectionStrategy::Replicated}};
  const RunReport a = run_barnes_hut(pinned, cfg);
  const RunReport o = run_barnes_hut(opts(Mode::Optimized, 4), cfg);

  EXPECT_EQ(a.checksum, o.checksum);
  EXPECT_EQ(a.sections_by_strategy[static_cast<std::size_t>(SectionStrategy::Replicated)],
            a.sections);
  EXPECT_EQ(a.policy_switches, 0u);
  EXPECT_EQ(a.total_msgs, o.total_msgs + a.sections);
}

TEST(Policy, MixedStrategiesPreserveResultsAcrossFlowControls) {
  // Master-only, replicated, and broadcast sections interleave within one
  // run; results must stay bit-identical to the sequential baseline under
  // every RSE flow-control variant.  Left alone the engine never picks
  // master-only on this workload, so the below-threshold update site is
  // pinned to it.
  const auto cfg = small_ilink();
  const RunReport seq = run_ilink(opts(Mode::Sequential, 1), cfg);
  for (FlowControl f : {FlowControl::Chained, FlowControl::Windowed}) {
    RunOptions o = opts(Mode::Adaptive, 6);
    o.flow = f;
    o.policy.pins[apps::ilink::kSectionSerialUpdate] = SectionStrategy::MasterOnly;
    const RunReport r = run_ilink(o, cfg);
    for (std::size_t s = 0; s < kStrategyCount; ++s) {
      EXPECT_GT(r.sections_by_strategy[s], 0u)
          << apps::harness::flow_name(f) << ": no "
          << strategy_name(static_cast<SectionStrategy>(s)) << " section";
    }
    EXPECT_EQ(r.checksum, seq.checksum) << apps::harness::flow_name(f);
    EXPECT_EQ(r.aux, seq.aux) << apps::harness::flow_name(f);
  }
}

TEST(Policy, BootstrapProbesEverySiteThenSettles) {
  const auto cfg = small_ilink();
  const RunReport r = run_ilink(opts(Mode::Adaptive, 8), cfg);
  ASSERT_GT(r.sections, 0u);

  // First occurrence of every site is the BroadcastAfter measurement probe.
  std::vector<std::uint32_t> seen;
  for (const Decision& d : r.decisions) {
    if (std::find(seen.begin(), seen.end(), d.site) == seen.end()) {
      seen.push_back(d.site);
      EXPECT_EQ(d.strategy, SectionStrategy::BroadcastAfter)
          << "site " << d.site << " did not bootstrap with the broadcast probe";
      EXPECT_FALSE(d.switched);
    }
  }
  EXPECT_GE(seen.size(), 2u);  // ilink stamps distinct sites

  // Decisions settle rather than flap: a handful of switches overall and a
  // stable tail (the hysteresis margin exists exactly for this).
  EXPECT_LE(r.policy_switches, r.sections / 4);
  const std::size_t tail = r.decisions.size() - r.decisions.size() / 4;
  for (std::size_t i = tail; i < r.decisions.size(); ++i) {
    EXPECT_FALSE(r.decisions[i].switched)
        << "late switch at section " << r.decisions[i].seq;
  }
}

// The headline acceptance claim, at the paper's 32-node scale: adaptive
// lands within 5% of the best static mode for each application, strictly
// beats the worst, reproduces the exact checksums, and each application's
// last section settles on its best static mode's strategy.
TEST(Policy, AdaptiveCompetitiveWithBestStaticAt32Nodes) {
  apps::bh::BhConfig bh;
  bh.bodies = 2048;
  bh.steps = 8;
  const RunReport bh_orig = run_barnes_hut(opts(Mode::Original, 32), bh);
  const RunReport bh_opt = run_barnes_hut(opts(Mode::Optimized, 32), bh);
  const RunReport bh_bc = run_barnes_hut(opts(Mode::BroadcastSeq, 32), bh);
  const RunReport bh_ad = run_barnes_hut(opts(Mode::Adaptive, 32), bh);

  apps::ilink::IlinkConfig il;
  il.iterations = 3;
  const RunReport il_orig = run_ilink(opts(Mode::Original, 32), il);
  const RunReport il_opt = run_ilink(opts(Mode::Optimized, 32), il);
  const RunReport il_bc = run_ilink(opts(Mode::BroadcastSeq, 32), il);
  const RunReport il_ad = run_ilink(opts(Mode::Adaptive, 32), il);

  auto check = [](const RunReport& ad, const RunReport& a, const RunReport& b,
                  const RunReport& c, const char* app) {
    const double best = std::min({a.total_s, b.total_s, c.total_s});
    const double worst = std::max({a.total_s, b.total_s, c.total_s});
    EXPECT_LE(ad.total_s, best * 1.05)
        << app << ": adaptive " << ad.total_s << " vs best static " << best;
    EXPECT_LT(ad.total_s, worst) << app;
    EXPECT_EQ(ad.checksum, a.checksum) << app;
    EXPECT_EQ(ad.checksum, b.checksum) << app;
    EXPECT_EQ(ad.checksum, c.checksum) << app;
  };
  check(bh_ad, bh_orig, bh_opt, bh_bc, "barnes-hut");
  check(il_ad, il_orig, il_opt, il_bc, "ilink");

  // Each application's last section settles on the strategy of its best
  // static mode.  With the multicast fork, every Ilink assignment within
  // the bound runs the contribution sum replicated, as Barnes-Hut runs its
  // tree build, so the two last decisions agree whenever the bound holds;
  // AdaptiveFollowsTheTransportAt64Nodes pins where a per-section policy
  // beats every single static mode.
  auto best_strategy = [](const RunReport& orig, const RunReport& opt, const RunReport& bc) {
    const double best = std::min({orig.total_s, opt.total_s, bc.total_s});
    return best == opt.total_s  ? SectionStrategy::Replicated
           : best == bc.total_s ? SectionStrategy::BroadcastAfter
                                : SectionStrategy::MasterOnly;
  };
  auto settled_on_best = [&](const RunReport& ad, const RunReport& orig, const RunReport& opt,
                             const RunReport& bc, const char* app) {
    ASSERT_FALSE(ad.decisions.empty()) << app;
    EXPECT_EQ(ad.decisions.back().strategy, best_strategy(orig, opt, bc))
        << app << " settled on " << strategy_name(ad.decisions.back().strategy);
  };
  settled_on_best(bh_ad, bh_orig, bh_opt, bh_bc, "barnes-hut");
  settled_on_best(il_ad, il_orig, il_opt, il_bc, "ilink");
}

// The same Ilink at 64 nodes, on a hub and on the forwarding tree.  The
// contribution sum is cheapest replicated on the hub (pinned with pool init
// replicated: 2.490 s against 3.878 s broadcast) and broadcast on the tree
// (6.182 s against 6.219 s), so a policy that prices each strategy on the
// configured transport settles the sum that way on each, and stays within
// 5% of the best static mode on both.  Beating every static mode on the
// tree is out of reach for any policy with a broadcast probe: the best
// per-site pin beats Optimized by 0.4%, while probing pool init broadcast
// once costs about 180 ms more than running it replicated.
TEST(Policy, AdaptiveFollowsTheTransportAt64Nodes) {
  apps::ilink::IlinkConfig il;
  il.iterations = 3;
  for (net::TransportKind kind :
       {net::TransportKind::HubSwitch, net::TransportKind::TreeMulticast}) {
    auto run = [&](Mode mode) {
      RunOptions o = opts(mode, 64);
      o.net.transport = kind;
      return run_ilink(o, il);
    };
    const RunReport orig = run(Mode::Original);
    const RunReport opt = run(Mode::Optimized);
    const RunReport bc = run(Mode::BroadcastSeq);
    const RunReport ad = run(Mode::Adaptive);
    const char* what = net::transport_name(kind);
    const double best = std::min({orig.total_s, opt.total_s, bc.total_s});
    EXPECT_LE(ad.total_s, best * 1.05) << what << ": adaptive " << ad.total_s
                                       << " vs best static " << best;
    const auto sum =
        std::find_if(ad.decisions.rbegin(), ad.decisions.rend(),
                     [](const Decision& d) { return d.site == apps::ilink::kSectionSumContrib; });
    ASSERT_NE(sum, ad.decisions.rend()) << what;
    EXPECT_EQ(sum->strategy, kind == net::TransportKind::HubSwitch
                                 ? SectionStrategy::Replicated
                                 : SectionStrategy::BroadcastAfter)
        << what << ": the sum settled on " << strategy_name(sum->strategy);
    EXPECT_EQ(ad.checksum, orig.checksum) << what;
    EXPECT_EQ(ad.checksum, opt.checksum) << what;
    EXPECT_EQ(ad.checksum, bc.checksum) << what;
  }
}

}  // namespace
}  // namespace repseq::rse::policy
