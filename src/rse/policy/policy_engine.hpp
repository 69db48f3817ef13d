// Adaptive per-section replication policy engine.
//
// The engine sits beside rse::RseController and decides, at every
// sequential-section entry, how *that* section executes: master-only (the
// base system), replicated (the paper's optimization), or
// execute-then-broadcast (the Section 4.2 alternative).  The master makes
// the decision from per-site telemetry and multicasts it in a
// PolicySectionOpen message -- its own message kind, registered through the
// tmk::ProtocolEngine dispatch registry exactly like the RSE flow-control
// handler sets -- so every node records the same agreed decision sequence.
//
// Telemetry discipline: the decision function consumes only protocol-level
// counts (pages written, stale pages read, diff messages per fault,
// post-section diff traffic), which are identical across transport backends
// and shard counts; transport-dependent measures (virtual section time,
// multicast frames and bytes) never feed it.  Only the cost model's prices
// follow the configured transport.  In a real system the counter deltas the
// master reads here would piggyback on the join/barrier messages that
// already bracket every section at zero extra frames; the simulation reads
// them from tmk::NodeStats directly.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "rse/policy/cost_model.hpp"
#include "rse/policy/policy.hpp"
#include "tmk/runtime.hpp"

namespace repseq::rse::policy {

class PolicyEngine {
 public:
  /// Registers the PolicySectionOpen handler with the cluster's dispatch
  /// registry; constructing two engines on one cluster is a wiring bug and
  /// aborts (duplicate registration).
  explicit PolicyEngine(tmk::Cluster& cluster, PolicyConfig cfg = {});

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Master application fiber, at section entry: finalizes the previous
  /// section's aftermath window, decides this section's strategy, multicasts
  /// the decision, and opens the during-section measurement window.
  [[nodiscard]] SectionStrategy open_section(tmk::NodeRuntime& master, std::uint32_t site);

  /// Master application fiber, immediately after the strategy's execution
  /// bracket completes: folds the during-section telemetry into the site
  /// profile and opens the aftermath (post-section contention) window.
  void close_section(tmk::NodeRuntime& master);

  /// The master's decision log.
  [[nodiscard]] const std::vector<Decision>& decisions() const { return log_[0]; }
  /// Per-node copy of the agreed decision sequence, built from the
  /// section-open multicasts.
  [[nodiscard]] const std::vector<Decision>& node_log(net::NodeId n) const { return log_[n]; }

  [[nodiscard]] std::uint64_t sections() const { return log_[0].size(); }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] const std::array<std::uint64_t, kStrategyCount>& strategy_counts() const {
    return counts_;
  }

 private:
  struct SiteState {
    SectionProfile profile;
    SectionStrategy current = SectionStrategy::Replicated;
  };

  [[nodiscard]] SectionStrategy decide(const SiteState& st) const;
  void finalize_aftermath();

  // Counter sums over nodes [first, n) (the values a real master would
  // piggyback on the bracketing synchronization messages).
  [[nodiscard]] std::uint64_t sum(net::NodeId first, tmk::Phase phase,
                                  std::uint64_t tmk::PhaseCounters::*counter) const;

  /// Parallel-phase diff traffic sent so far: the master's and every node's.
  struct ParDiffs {
    std::uint64_t master_msgs = 0;
    std::uint64_t master_bytes = 0;
    std::uint64_t cluster_msgs = 0;
    std::uint64_t cluster_bytes = 0;
  };
  [[nodiscard]] ParDiffs par_diffs() const;

  tmk::Cluster& cluster_;
  PolicyConfig cfg_;
  CostModel model_;

  std::map<std::uint32_t, SiteState> sites_;
  std::vector<std::vector<Decision>> log_;  // [node] -> agreed sequence
  std::array<std::uint64_t, kStrategyCount> counts_{};
  std::uint64_t switches_ = 0;
  std::uint64_t next_seq_ = 1;

  // During-section window (master side).
  bool section_open_ = false;
  std::uint32_t open_site_ = 0;
  SectionStrategy open_strategy_ = SectionStrategy::Replicated;
  std::uint64_t snap_master_seq_faults_ = 0;
  std::uint64_t snap_fwd_requests_ = 0;
  std::uint64_t snap_slave_seq_diffs_ = 0;
  std::uint32_t snap_master_vc0_ = 0;

  // Aftermath window: close -> next open, attributed to the closed section.
  bool aftermath_pending_ = false;
  std::uint32_t aftermath_site_ = 0;
  SectionStrategy aftermath_strategy_ = SectionStrategy::Replicated;
  ParDiffs snap_par_diffs_;
};

}  // namespace repseq::rse::policy
