// Observability-layer unit tests: tracer span handling (nesting, orphan
// repair, ring eviction), category filtering, and the Accumulator's
// streaming percentiles.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "util/stats_accum.hpp"

namespace repseq {
namespace {

sim::SimTime at(std::int64_t ns) { return sim::SimTime{ns}; }

/// Writes the tracer's buffer to a temp file and returns the JSON text.
std::string write_and_read() {
  const std::string& path = obs::tracer().path();
  obs::tracer().write();
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

std::string temp_trace_path(const char* tag) {
  return std::string("/tmp/repseq_test_obs_") + tag + ".json";
}

/// Counts non-overlapping occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Tracer, DisabledByDefaultAndSingleBranchGuard) {
  obs::tracer().configure("", 0);
  EXPECT_FALSE(obs::tracer().active());
  EXPECT_FALSE(obs::enabled(obs::Cat::Sim));
  EXPECT_FALSE(obs::enabled(obs::Cat::Rse));
}

TEST(Tracer, SpansNestAndBalanceInOutput) {
  obs::tracer().configure(temp_trace_path("nest"));
  obs::tracer().begin(obs::Cat::Rse, at(100), 1, "app", "outer");
  obs::tracer().begin(obs::Cat::Tmk, at(200), 1, "app", "inner");
  obs::tracer().end(obs::Cat::Tmk, at(300), 1, "app");
  obs::tracer().end(obs::Cat::Rse, at(400), 1, "app");
  const std::string json = write_and_read();

  // Both spans appear, and the E events inherited their B's names so the
  // validator can match pairs.
  EXPECT_EQ(count_of(json, "\"name\":\"outer\""), 2u);
  EXPECT_EQ(count_of(json, "\"name\":\"inner\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 2u);
  // Inner closes before outer (LIFO): the E at 300 ns precedes the one at
  // 400 ns (ts renders in microseconds).
  ASSERT_NE(json.find("\"ts\":0.300"), std::string::npos);
  EXPECT_LT(json.find("\"ts\":0.300"), json.find("\"ts\":0.400"));
}

TEST(Tracer, UnclosedSpanIsRepairedAndOrphanEndDropped) {
  obs::tracer().configure(temp_trace_path("repair"));
  obs::tracer().end(obs::Cat::Rse, at(50), 1, "app");  // orphan E: dropped
  obs::tracer().begin(obs::Cat::Rse, at(100), 1, "app", "dangling");
  obs::tracer().instant(obs::Cat::Rse, at(500), 1, "app", "last");
  const std::string json = write_and_read();

  // The dangling B gets a synthetic E at the final timestamp; the orphan E
  // (no matching B) never reaches the output.
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"dangling\""), 2u);
  EXPECT_EQ(count_of(json, "\"ts\":0.050"), 0u);
}

TEST(Tracer, CategoryFilterMasksRecording) {
  obs::tracer().configure(temp_trace_path("filter"),
                          static_cast<std::uint8_t>(obs::Cat::Net));
  EXPECT_TRUE(obs::enabled(obs::Cat::Net));
  EXPECT_FALSE(obs::enabled(obs::Cat::Sim));
  EXPECT_FALSE(obs::enabled(obs::Cat::Tmk));
  EXPECT_FALSE(obs::enabled(obs::Cat::Rse));

  // Hooks guard on enabled(); a well-behaved caller never records a masked
  // category, so only the net instant lands in the file.
  if (obs::enabled(obs::Cat::Net)) {
    obs::tracer().instant(obs::Cat::Net, at(10), 1, "net", "frame");
  }
  if (obs::enabled(obs::Cat::Tmk)) {
    obs::tracer().instant(obs::Cat::Tmk, at(20), 1, "tmk", "fault");
  }
  const std::string json = write_and_read();
  EXPECT_EQ(count_of(json, "\"name\":\"frame\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"fault\""), 0u);
  EXPECT_EQ(count_of(json, "\"cat\":\"net\""), 1u);
}

TEST(TracerDeathTest, MalformedFilterExitsTwoEvenWithTracingOff) {
  // A typo'd filter fails when it is set, not first when tracing is turned
  // on and the trace quietly misses the layer under study.
  EXPECT_EXIT(
      {
        ::unsetenv("REPSEQ_TRACE");
        ::setenv("REPSEQ_TRACE_FILTER", "tmk,bogus", /*overwrite=*/1);
        obs::tracer().configure_from_env();
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "unknown REPSEQ_TRACE_FILTER category 'bogus'");
}

TEST(Tracer, ArgsAndProcessMetadataAppear) {
  obs::tracer().configure(temp_trace_path("args"));
  obs::tracer().set_process_name(0, "cluster");
  obs::tracer().set_process_name(3, "node-2");
  obs::tracer().instant(obs::Cat::Rse, at(1000), 3, "policy", "decision",
                        {{"site", 2.0}, {"cost_master_only", 1.5}});
  const std::string json = write_and_read();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"node-2\""), std::string::npos);
  EXPECT_NE(json.find("\"site\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cost_master_only\":1.5"), std::string::npos);
  // ts is emitted in microseconds: 1000 ns -> 1.000.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(Tracer, RingEvictionDropsOldestAndCounts) {
  obs::tracer().configure(temp_trace_path("evict"));
  const std::size_t cap = obs::Tracer::kSlabEvents * obs::Tracer::kMaxSlabsPerProcess;
  for (std::size_t i = 0; i < cap + obs::Tracer::kSlabEvents; ++i) {
    obs::tracer().instant(obs::Cat::Sim, at(static_cast<std::int64_t>(i)), 1, "t", "e");
  }
  EXPECT_EQ(obs::tracer().slabs_dropped(), 1u);
  EXPECT_EQ(obs::tracer().event_count(), cap);
  obs::tracer().configure("", 0);  // discard without writing the ~1M events
}

TEST(Accumulator, StreamingPercentilesApproximateExactRanks) {
  util::Accumulator a;
  for (int i = 1; i <= 10000; ++i) a.add(static_cast<double>(i));
  // Log-bucketed estimate: within ~8% of the exact rank statistic.
  EXPECT_NEAR(a.p50(), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(a.p95(), 9500.0, 9500.0 * 0.08);
  EXPECT_NEAR(a.p99(), 9900.0, 9900.0 * 0.08);
  // Extremes are exact (clamped to observed min/max).
  EXPECT_EQ(a.percentile(0.0), 1.0);
  EXPECT_EQ(a.percentile(1.0), 10000.0);
}

TEST(Accumulator, PercentileMergeMatchesSingleStream) {
  util::Accumulator lo;
  util::Accumulator hi;
  util::Accumulator all;
  for (int i = 1; i <= 5000; ++i) {
    lo.add(i);
    all.add(i);
  }
  for (int i = 5001; i <= 10000; ++i) {
    hi.add(i);
    all.add(i);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_EQ(lo.percentile(0.5), all.percentile(0.5));
  EXPECT_EQ(lo.percentile(0.99), all.percentile(0.99));
}

TEST(Accumulator, NonPositiveValuesRankLowest) {
  util::Accumulator a;
  a.add(0.0);
  a.add(-3.0);
  for (int i = 0; i < 98; ++i) a.add(100.0);
  // The two non-positive samples occupy the lowest ranks (clamped to min).
  EXPECT_EQ(a.percentile(0.0), -3.0);
  EXPECT_NEAR(a.p95(), 100.0, 100.0 * 0.08);
}

}  // namespace
}  // namespace repseq
