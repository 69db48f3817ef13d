// Tests for the chk correctness layer: REPSEQ_CHECK parsing and its
// fail-loud contract, the LRC happens-before race detector (a planted race
// is reported with both sites; barrier- and lock-ordered variants stay
// clean), the protocol oracles (each deliberate mutation trips exactly its
// matching oracle -- a checker that cannot fail verifies nothing), and the
// on/off invariance sweep pinning that checking never perturbs results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chk/checker.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "tmk/access.hpp"
#include "tmk/interval.hpp"
#include "tmk/runtime.hpp"
#include "util/pool_ptr.hpp"

namespace repseq::chk {
namespace {

constexpr std::uint8_t kRaces = static_cast<std::uint8_t>(Cat::Races);
constexpr std::uint8_t kProtocol = static_cast<std::uint8_t>(Cat::Protocol);

struct Fixture {
  tmk::TmkConfig cfg;
  net::NetConfig ncfg;

  Fixture() { cfg.heap_bytes = 1u << 20; }

  std::unique_ptr<tmk::Cluster> make(std::size_t nodes) {
    return std::make_unique<tmk::Cluster>(cfg, ncfg, nodes);
  }
};

/// Violations of one checker, in report order.
std::vector<std::string> details_of(const tmk::Cluster& cl, const std::string& checker) {
  std::vector<std::string> out;
  const Checker* c = cl.checker();
  if (c == nullptr) return out;
  for (const Violation& v : c->violations()) {
    if (v.checker == checker) out.push_back(v.detail);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Config axis

TEST(ChkConfig, ParseMaskAcceptsKnownTokens) {
  std::string bad;
  EXPECT_EQ(parse_mask("races", &bad), kRaces);
  EXPECT_EQ(parse_mask("protocol", &bad), kProtocol);
  EXPECT_EQ(parse_mask("races,protocol", &bad), kRaces | kProtocol);
  EXPECT_EQ(parse_mask("protocol,races", &bad), kRaces | kProtocol);
  EXPECT_EQ(parse_mask("all", &bad), kAllCats);
}

TEST(ChkConfig, ParseMaskRejectsUnknownToken) {
  std::string bad;
  EXPECT_EQ(parse_mask("races,bogus", &bad), std::nullopt);
  EXPECT_EQ(bad, "bogus");
}

TEST(ChkConfigDeathTest, UnknownEnvCategoryExitsTwo) {
  // The env axis is fail-loud: a typo'd category must kill the run before
  // any cluster exists, not silently check nothing.
  EXPECT_EXIT(
      {
        ::setenv("REPSEQ_CHECK", "races,bogus", /*overwrite=*/1);
        Fixture fx;
        auto cl = fx.make(2);
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "unknown REPSEQ_CHECK category 'bogus'");
}

TEST(ChkConfig, ScopedConfigOverridesEnvironment) {
  ScopedConfig sc(0);
  Fixture fx;
  auto cl = fx.make(2);
  // Even under REPSEQ_CHECK=races,protocol (the checked CI job), a forced
  // zero mask builds no checker.
  EXPECT_EQ(cl->checker(), nullptr);
}

// ---------------------------------------------------------------------------
// Happens-before race detection

TEST(ChkRace, UnsynchronizedConflictingWritesReportBothSites) {
  ScopedConfig sc(kRaces, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(2);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  // Both nodes write element 0 in the parallel phase with no ordering
  // between them: a textbook W-W race.
  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    data.store(0, static_cast<int>(rt.id()) + 1);
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const std::vector<std::string> races = details_of(*cl, "race");
  ASSERT_FALSE(races.empty());
  // The diagnostic names both access sites: node, epoch, and clock each.
  EXPECT_NE(races[0].find("by node 0"), std::string::npos) << races[0];
  EXPECT_NE(races[0].find("by node 1"), std::string::npos) << races[0];
  EXPECT_NE(races[0].find("epoch"), std::string::npos) << races[0];
  EXPECT_NE(races[0].find("clock"), std::string::npos) << races[0];
}

TEST(ChkRace, RacyReadAgainstWriteReported) {
  ScopedConfig sc(kRaces, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(2);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    if (rt.id() == 0) {
      data.store(0, 7);
    } else {
      (void)data.load(0);
    }
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_FALSE(details_of(*cl, "race").empty());
}

TEST(ChkRace, BarrierOrderedWritesAreClean) {
  ScopedConfig sc(kRaces, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(2);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  // Same conflicting pair as above, but the barrier orders them.
  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    if (rt.id() == 0) data.store(0, 1);
    rt.barrier(1);
    if (rt.id() == 1) data.store(0, 2);
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  ASSERT_NE(cl->checker(), nullptr);
  EXPECT_TRUE(cl->checker()->violations().empty());
}

TEST(ChkRace, LockOrderedWritesAreClean) {
  ScopedConfig sc(kRaces, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(3);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  // The lock grant carries the releaser's shadow clock, ordering every
  // critical section against the next.
  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    rt.lock_acquire(5);
    data.store(0, data.load(0) + 1);
    rt.lock_release(5);
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  ASSERT_NE(cl->checker(), nullptr);
  EXPECT_TRUE(cl->checker()->violations().empty());
}

TEST(ChkRace, DisjointStripesAreClean) {
  ScopedConfig sc(kRaces, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(4);
  // One page, four writers, cyclic partition: heavy false sharing, which is
  // exactly what the byte-range granularity must NOT report.
  auto data = tmk::ShArray<int>::alloc(*cl, 256);

  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    for (std::size_t i = rt.id(); i < data.size(); i += rt.node_count()) {
      data.store(i, static_cast<int>(i));
    }
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  ASSERT_NE(cl->checker(), nullptr);
  EXPECT_TRUE(cl->checker()->violations().empty());
}

// ---------------------------------------------------------------------------
// Protocol oracles, each validated by the mutation that breaks it

TEST(ChkOracle, SuppressedWriteNoticeTripsCoverage) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  ScopedMutation mut(Mutation::SuppressWriteNotice);
  Fixture fx;
  auto cl = fx.make(2);
  // Two pages dirty per master interval, so the mutation has a last page to
  // drop while the record still publishes the other.
  auto data = tmk::ShArray<int>::alloc(*cl, 2048, /*page_aligned=*/true);

  const auto work = cl->register_work([&](tmk::NodeRuntime&) {
    (void)data.load(0);
    (void)data.load(1024);
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    // Round 1 validates both pages on the slave; round 2's suppressed
    // notice then leaves one of them stale-but-valid, which the coverage
    // oracle flags at the slave's next access.
    for (int round = 1; round <= 2; ++round) {
      data.store(0, round);
      data.store(1024, round);
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
    }
  });

  const auto hits = details_of(*cl, "write-notice-coverage");
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].find("page"), std::string::npos) << hits[0];
}

TEST(ChkOracle, ReorderedDiffApplyTripsCausality) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  ScopedMutation mut(Mutation::ReorderDiffApply);
  Fixture fx;
  auto cl = fx.make(3);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  // Node 1 writes, node 2 writes the same page causally after it; node 0
  // then faults and pulls both diffs in one batch.  The mutation reverses
  // the causally-sorted batch, so the newer diff lands while the older one
  // it covers is still pending.
  const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
    if (rt.id() == 1) data.store(0, 10);
    rt.barrier(1);
    if (rt.id() == 2) {
      (void)data.load(0);
      data.store(1, 20);
    }
    rt.barrier(2);
    if (rt.id() == 0) {
      (void)data.load(0);
      (void)data.load(1);
    }
  });
  cl->run([&](tmk::NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const auto hits = details_of(*cl, "diff-apply-causality");
  ASSERT_FALSE(hits.empty());
}

TEST(ChkOracle, ReplicaWriteSetDivergenceTrips) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(4);
  rse::RseController rse(*cl, rse::FlowControl::Chained);
  ompnow::Team team(*cl, ompnow::SeqMode::Replicated, &rse);
  auto data = tmk::ShArray<int>::alloc(*cl, 64);

  cl->run([&](tmk::NodeRuntime&) {
    // A replicated section whose body depends on the executing node is the
    // bug class RSE forbids (paper Section 5.2): every replica must compute
    // the identical write set.
    team.sequential(/*site=*/3, [&](const ompnow::Ctx& ctx) {
      data.store(0, static_cast<int>(ctx.rt.id()));
    });
  });

  const auto hits = details_of(*cl, "replica-write-set");
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].find("site 3"), std::string::npos) << hits[0];
}

TEST(ChkOracle, TruncatedSectionForkTripsIntervalLogAgreement) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  ScopedMutation mut(Mutation::TruncateSectionFork);
  Fixture fx;
  auto cl = fx.make(4);
  rse::RseController rse(*cl, rse::FlowControl::Chained);
  ompnow::Team team(*cl, ompnow::SeqMode::Replicated, &rse);
  auto data = tmk::ShArray<int>::alloc(*cl, 16);

  cl->run([&](tmk::NodeRuntime&) {
    // The master's write closes at the section's fork, so that interval is
    // the fork's only record, and the mutation withholds it from every
    // slave.  The program ends right after the section: a later record of
    // the master's would trip the log's gap check first.
    data.store(0, 1);
    team.sequential(/*site=*/4, [](const ompnow::Ctx&) {});
  });

  const auto hits = details_of(*cl, "replica-interval-log");
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].find("section #0 (site 4)"), std::string::npos) << hits[0];
  EXPECT_NE(hits[0].find("owner 0"), std::string::npos) << hits[0];
}

TEST(ChkOracle, IntervalMonotonicityOnForgedRecord) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(2);

  cl->run([&](tmk::NodeRuntime& rt) {
    // Forge a commit that skips indices 1..4: the per-node interval counter
    // must advance by exactly one per dirty interval.
    auto rec = util::make_pooled<tmk::IntervalRecord>();
    rec->owner = rt.id();
    rec->index = 5;
    rec->vc = tmk::VectorClock(rt.node_count());
    rec->vc.set(rt.id(), 5);
    cl->checker()->on_interval_commit(rt, tmk::IntervalRecordPtr(rec));
  });

  const auto hits = details_of(*cl, "interval-monotonicity");
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].find("5"), std::string::npos) << hits[0];
}

TEST(ChkOracle, RoundSerializationOnOverlappingRounds) {
  ScopedConfig sc(kProtocol, /*abort_on_violation=*/false);
  Fixture fx;
  auto cl = fx.make(2);
  Checker* c = cl->checker();
  ASSERT_NE(c, nullptr);

  c->on_round_start(/*shard=*/0, /*round=*/1);
  c->on_round_start(/*shard=*/0, /*round=*/2);  // round 1 still in flight
  EXPECT_FALSE(details_of(*cl, "round-serialization").empty());
}

// ---------------------------------------------------------------------------
// Invariance: checking observes, never perturbs

TEST(ChkInvariance, CheckerOnOffProducesBitIdenticalRuns) {
  struct Outcome {
    long checksum = 0;
    std::uint64_t events = 0;
    std::vector<std::vector<std::uint32_t>> vcs;
  };
  // A workload exercising diffs, barriers, locks and a replicated section.
  const auto run_once = [](std::uint8_t mask) {
    ScopedConfig sc(mask, /*abort_on_violation=*/true);
    Fixture fx;
    auto cl = fx.make(4);
    rse::RseController rse(*cl, rse::FlowControl::Chained);
    ompnow::Team team(*cl, ompnow::SeqMode::Replicated, &rse);
    auto data = tmk::ShArray<int>::alloc(*cl, 1024, /*page_aligned=*/true);
    Outcome out;

    const auto work = cl->register_work([&](tmk::NodeRuntime& rt) {
      for (std::size_t i = rt.id(); i < data.size(); i += rt.node_count()) {
        data.store(i, static_cast<int>(2 * i));
      }
      rt.barrier(1);
      rt.lock_acquire(9);
      data.store(0, data.load(0) + 1);
      rt.lock_release(9);
    });
    cl->run([&](tmk::NodeRuntime& rt) {
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
      team.sequential(/*site=*/1, [&](const ompnow::Ctx&) {
        for (std::size_t i = 0; i < data.size(); ++i) data.store(i, data.load(i) + 3);
      });
      long sum = 0;
      for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
      out.checksum = sum;
    });

    out.events = cl->engine().events_executed();
    for (tmk::NodeId n = 0; n < 4; ++n) {
      std::vector<std::uint32_t> v;
      for (tmk::NodeId m = 0; m < 4; ++m) v.push_back(cl->node(n).vc().at(m));
      out.vcs.push_back(std::move(v));
    }
    return out;
  };

  const Outcome off = run_once(0);
  // data[0]: 4 lock increments over its cyclic value 0, then +3 in the
  // section; data[i>0]: 2i+3.  Wrong here means the protocol itself (not
  // the checker) dropped or misordered a diff.
  ASSERT_EQ(off.checksum, 7 + 2 * (1023 * 1024 / 2) + 3 * 1023);
  const Outcome on = run_once(kAllCats);
  // Checksums, final interval vectors and even the simulated event count
  // must match exactly: the chk clocks ride excluded from wire accounting,
  // so a checked run IS the unchecked run plus assertions.
  EXPECT_EQ(off.checksum, on.checksum);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.vcs, on.vcs);
}

}  // namespace
}  // namespace repseq::chk
