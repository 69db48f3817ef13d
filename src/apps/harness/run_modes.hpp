// Experiment harness: builds a cluster in one of the paper's three system
// configurations (plus the broadcast ablation and the adaptive policy
// engine), runs an application, and extracts exactly the measurements
// reported in Tables 1-4 plus the per-section policy accounting.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/barnes_hut/bh.hpp"
#include "apps/ilink/ilink.hpp"
#include "net/net_config.hpp"
#include "rse/controller.hpp"
#include "rse/policy/policy.hpp"
#include "tmk/config.hpp"

namespace repseq::ompnow {
enum class SeqMode;
}  // namespace repseq::ompnow

namespace repseq::apps::harness {

enum class Mode {
  Sequential,    // one node, no parallel directives (the speedup baseline)
  Original,      // base OpenMP/TreadMarks: sequential sections on the master
  Optimized,     // replicated sequential execution with multicast (the paper)
  BroadcastSeq,  // master executes, then multicasts all modified data
                 // (Section 4.2 alternative / Section 6.1.2 hand insertion)
  Adaptive,      // rse::policy picks one of the three above per section
};

[[nodiscard]] const char* mode_name(Mode m);
[[nodiscard]] const char* flow_name(rse::FlowControl f);

/// CLI/env parsing for the harness axes, shared by the benches and examples
/// (the transport axis lives next to its enum: net::parse_transport).
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view s);
[[nodiscard]] std::optional<rse::FlowControl> parse_flow(std::string_view s);

/// How a mode runs its sequential sections (Sequential runs its one node
/// master-only).
[[nodiscard]] ompnow::SeqMode seq_mode_for(Mode m);

struct RunOptions {
  std::size_t nodes = 32;
  Mode mode = Mode::Original;
  rse::FlowControl flow = rse::FlowControl::Chained;
  tmk::TmkConfig tmk;
  net::NetConfig net;           // net.transport selects the wire backend
  rse::policy::PolicyConfig policy;  // Mode::Adaptive site pins
};

/// One row set for the paper's statistics tables.
struct RunReport {
  Mode mode = Mode::Original;
  std::size_t nodes = 0;
  std::string transport;  // wire backend the run used (owned; reports must
                          // outlive reconfigured NetConfig temporaries)

  double total_s = 0;  // Table 1/3 "Total time"
  double seq_s = 0;    // "Sequential time"
  double par_s = 0;    // "Parallel time"

  std::uint64_t total_msgs = 0;   // Table 2/4 "Total messages"
  std::uint64_t total_kb = 0;     // "data (KB)"
  std::uint64_t seq_msgs = 0;     // messages during sequential sections
  std::uint64_t seq_kb = 0;
  std::uint64_t seq_requests = 0;  // "diff requests" (max-faulting thread)
  double seq_response_ms = 0;      // "avg response time (ms)"
  std::uint64_t seq_null_acks = 0;
  std::uint64_t par_msgs = 0;
  std::uint64_t par_kb = 0;
  double par_requests_avg = 0;  // "avg diff requests" per thread
  double par_response_ms = 0;
  double par_fault_wait_max_s = 0;  // slowest thread's diff-request time
  std::uint64_t recoveries = 0;
  std::uint64_t drops = 0;

  // Multicast-medium occupancy: how many serialization domains the backend
  // exposed and the busiest one's transmit time.  On the sharded hub the
  // max-per-shard busy dropping below the single hub's busy is exactly the
  // contention-removal the backend exists for.
  std::size_t hub_shards = 1;
  double hub_busy_max_s = 0;  // busiest shard's transmit time

  // Per-section policy accounting (Mode::Adaptive; zero otherwise).
  std::uint64_t sections = 0;
  /// Sections executed per strategy, indexed by rse::policy::SectionStrategy.
  std::array<std::uint64_t, rse::policy::kStrategyCount> sections_by_strategy{};
  std::uint64_t policy_switches = 0;  // switch points across all sites
  /// The master's full decision log (seq, site, strategy, switch flag).
  std::vector<rse::policy::Decision> decisions;

  double checksum = 0;  // application result for cross-mode verification
  std::uint64_t aux = 0;

  // Host-side performance telemetry (the simulator's own speed, not the
  // simulated cluster's): total events the engine executed, the high-water
  // mark of simultaneously scheduled events, and the host wall-clock the
  // run took.  events/sec = sim_events / host_wall_s is the headline number
  // tracked by bench/perf_sim.
  std::uint64_t sim_events = 0;
  std::size_t peak_live_events = 0;
  double host_wall_s = 0;
};

/// Per-site summary of a decision log: "site:decisions/switches/final" for
/// each site in numeric order -- sections decided there, how many of them
/// switched strategy, and the strategy of the last one -- or "-" for an
/// empty log.
[[nodiscard]] std::string site_policy_summary(const std::vector<rse::policy::Decision>& log);

RunReport run_barnes_hut(const RunOptions& opt, const bh::BhConfig& cfg);
RunReport run_ilink(const RunOptions& opt, const ilink::IlinkConfig& cfg);

}  // namespace repseq::apps::harness
