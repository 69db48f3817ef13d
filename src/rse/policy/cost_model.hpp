// Closed-form per-strategy cost estimates for one sequential section --
// the paper's Section 4 analysis as arithmetic over per-site telemetry.
//
// The inputs are counts; the prices follow the transport.  Every input is a
// protocol-level count (pages written, stale pages read, diff messages per
// fault, post-section diff traffic), identical across transport backends
// and shard counts.  Wall-clock times and wire frame/byte counters both
// vary with the backend and are deliberately excluded -- feeding them back
// would make the decision sequence timing-dependent.  What each multicast
// costs is asked of the configured transport (net::Network::multicast_price:
// one frame on a hub medium, a chain of forwarding levels on the tree), so
// decisions are identical within one multicast cost class (the hub and the
// sharded hub at any S) and may differ across classes.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "rse/policy/policy.hpp"
#include "tmk/config.hpp"

namespace repseq::rse::policy {

/// Transport-invariant telemetry for one section site, EWMA-smoothed over
/// its occurrences.
struct SectionProfile {
  std::uint64_t runs = 0;

  /// Pages the section body writes: the pages the master's write barrier
  /// saw inside the section (tmk::NodeRuntime::section_writes), listed the
  /// same way under every strategy.
  double pages_written = 0;

  /// Stale pages the section reads: master faults under MasterOnly and
  /// BroadcastAfter, flow-controlled multicast rounds under Replicated.
  double faults_in = 0;

  /// Diff messages converging on a faulting node per stale page: one reply
  /// from each writer of the page (about 31 for Ilink's contribution pages
  /// at 32 nodes).  Measured per master fault under MasterOnly and
  /// BroadcastAfter, and as the owners each elected request names under
  /// Replicated.
  double fan_in = 1;
  std::uint64_t fan_in_samples = 0;

  /// Measured post-section diff traffic, per strategy that actually ran,
  /// from the section's close to the next section's open.  `master` counts
  /// what the master sends (the paper's Section 3 queue); `cluster` counts
  /// every node's, which also sees the slaves refaulting pages the section
  /// left stale.  Parallel-phase diff traffic is unicast, counted per
  /// logical message at its standalone wire size, so both are
  /// transport-invariant.  tried[] gates the prediction fallback in
  /// CostModel.
  struct Traffic {
    double msgs = 0;
    double bytes = 0;
  };
  Traffic after_master[kStrategyCount];
  Traffic after_cluster[kStrategyCount];
  std::uint64_t tried[kStrategyCount] = {0, 0, 0};
};

class CostModel {
 public:
  /// Payload of a small control frame: a fork, a null ack, a round's
  /// request.
  static constexpr double kControlBytes = 20;

  /// Prices multicasts on `net`'s configured transport for its node count;
  /// `net` must outlive the model.
  CostModel(const tmk::TmkConfig& tmk, const net::Network& net);

  /// Modeled protocol-overhead seconds of running one occurrence of a
  /// section with profile `p` under strategy `s`.  The section's own
  /// compute is identical under every strategy and cancels out.
  [[nodiscard]] double cost(SectionStrategy s, const SectionProfile& p) const;

  /// Seconds of one multicast of `payload_bytes` on the transport.
  [[nodiscard]] double mcast(double payload_bytes) const;

  /// Seconds of one ack-chain step: a multicast of `payload_bytes`
  /// reaching the sender's successor.
  [[nodiscard]] double step(double payload_bytes) const;

  /// Seconds `traffic` costs one node that sends or serves all of it.
  [[nodiscard]] double serialized(const SectionProfile::Traffic& traffic) const;

  /// Seconds of the post-section contention strategy `s` is assumed to
  /// cause until it has run for the site.  Mispredicting toward
  /// replication is cheap and the reverse is not, so both strategies that
  /// leave section-written pages stale assume the worst: every slave reads
  /// every page the section wrote (MasterOnly, served by the master) or
  /// every stale page it read (BroadcastAfter, from every writer).
  /// Replication leaves no section-written page stale: zero.
  [[nodiscard]] double untried_after(SectionStrategy s, const SectionProfile& p) const;

 private:
  /// Seconds of the post-section contention strategy `s` caused, as
  /// measured once it has run for the site (untried_after before): the
  /// master's serialized diff service or the cluster's diff traffic spread
  /// over every node, whichever is larger.
  [[nodiscard]] double after(SectionStrategy s, const SectionProfile& p) const;

  /// Seconds of one master fault: a request to and a reply from each
  /// writer, a page-sized payload each way on the master's port, and the
  /// diffs' creation and application.
  [[nodiscard]] double fault(const SectionProfile& p) const;

  /// Seconds of one burst of the replicated section's bracket (the valid
  /// notices or the joins) combining up tmk::CombiningTree: the critical
  /// path of receives beyond one message's flight, (n-1) receives when
  /// the tree is flat.
  [[nodiscard]] double combining_burst() const;

  const net::Network& net_;
  std::size_t n_;
  double send_;        // software send per message
  double recv_;        // software receive per message
  double link_rate_;   // switched unicast port, bytes/second
  double page_bytes_;  // payload bytes of one page
  double page_wire_;   // wire bytes of one page-sized payload
  double diff_;        // create + apply one page's diff
  double mcast_ctl_;   // one small control multicast (fork, table, request)
  double step_ctl_;    // one ack-chain step of a small control frame
  double mcast_page_;  // one page-sized multicast (a round's reply)
  double burst_;       // combining_burst()
};

}  // namespace repseq::rse::policy
