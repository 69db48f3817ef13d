// Adaptive per-section replication policy engine.
//
// The engine sits beside rse::RseController and decides, at every
// sequential-section entry, how *that* section executes: master-only (the
// base system), replicated (the paper's optimization), or
// execute-then-broadcast (the Section 4.2 alternative).  The master makes
// the decision alone, from per-site telemetry, and sends no message for it:
// a slave learns what a section asks of it from the master's fork
// (replicated), from its broadcast (execute-then-broadcast) or from nothing
// (master-only).  The master's decision log is the one record of the
// policy's choices.
//
// Telemetry discipline: the decision function consumes only protocol-level
// counts (pages written, stale pages read, diff messages per fault,
// post-section diff traffic), which are identical across transport backends
// and shard counts; transport-dependent measures (virtual section time,
// multicast frames and bytes) never feed it.  Only the cost model's prices
// follow the configured transport.  In a real system the counter deltas the
// master reads here would piggyback on the fork and join messages that
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
  explicit PolicyEngine(tmk::Cluster& cluster, PolicyConfig cfg = {});

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Master application fiber, at section entry: finalizes the previous
  /// section's aftermath window, decides this section's strategy, logs the
  /// decision, and opens the during-section measurement window.
  [[nodiscard]] SectionStrategy open_section(tmk::NodeRuntime& master, std::uint32_t site);

  /// Master application fiber, immediately after the strategy's execution
  /// bracket completes: folds the during-section telemetry into the site
  /// profile and opens the aftermath (post-section contention) window.
  void close_section(tmk::NodeRuntime& master);

  /// The decision log, one entry per section in order; every count below
  /// is derived from it.
  [[nodiscard]] const std::vector<Decision>& decisions() const { return log_; }
  [[nodiscard]] std::uint64_t sections() const { return log_.size(); }
  [[nodiscard]] std::uint64_t switches() const;
  [[nodiscard]] std::array<std::uint64_t, kStrategyCount> strategy_counts() const;

 private:
  struct SiteState {
    SectionProfile profile;
    SectionStrategy current = SectionStrategy::Replicated;
  };

  [[nodiscard]] SectionStrategy decide(const SiteState& st) const;
  /// Folds the diff traffic since log_.back() closed into its site profile.
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
  std::vector<Decision> log_;

  // During-section window of log_.back().
  bool section_open_ = false;
  std::uint64_t snap_master_seq_faults_ = 0;
  std::uint64_t snap_fwd_requests_ = 0;
  std::uint64_t snap_fwd_owners_ = 0;
  std::uint64_t snap_slave_seq_diffs_ = 0;

  // Aftermath window of log_.back(): its close -> the next open.
  ParDiffs snap_par_diffs_;
};

}  // namespace repseq::rse::policy
