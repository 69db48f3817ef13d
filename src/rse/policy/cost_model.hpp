// Closed-form per-strategy cost estimates for one sequential section --
// the paper's Section 4 analysis as arithmetic over per-site telemetry.
//
// Every input is a protocol-level count (pages written, stale pages read,
// post-section faults): counts are identical across transport backends and
// shard counts, so the decisions derived from them are too.  Wall-clock
// times and wire frame/byte counters both vary with the backend and are
// deliberately excluded -- feeding them back would make the decision
// sequence timing-dependent.  The constants come from the calibrated
// NetConfig/TmkConfig scalars (software overheads, hub rate, page size),
// which a transport choice does not alter.
#pragma once

#include <cstdint>

#include "net/net_config.hpp"
#include "rse/policy/policy.hpp"
#include "tmk/config.hpp"

namespace repseq::rse::policy {

/// Transport-invariant telemetry for one section site, EWMA-smoothed over
/// its occurrences.
struct SectionProfile {
  std::uint64_t runs = 0;

  /// Pages the section body writes.  Measured under MasterOnly (newly
  /// dirtied pages) and BroadcastAfter (the closed interval's page list);
  /// replicated execution leaves no write trace by design (Section 5.2), so
  /// the last measured value carries -- section sites have stable static
  /// write sets, which is the premise of per-site policies.
  double pages_written = 0;

  /// Stale pages the section reads: master faults under MasterOnly and
  /// BroadcastAfter, flow-controlled multicast rounds under Replicated.
  double faults_in = 0;

  /// Measured post-section contention, per strategy that actually ran:
  /// diff messages/bytes converging on the *master* during the aftermath
  /// window (the paper's Section 3 queue).  Counting master-side traffic
  /// rather than cluster-wide faults keeps background contention -- e.g.
  /// faults on pages other parallel threads wrote, served evenly by all
  /// nodes -- from being attributed to the section.  Parallel-phase diff
  /// traffic is unicast, and every backend shares the switched unicast
  /// path, so both counters are transport-invariant.  tried[] gates the
  /// prediction fallback in CostModel.
  double after_msgs[kStrategyCount] = {0, 0, 0};
  double after_bytes[kStrategyCount] = {0, 0, 0};
  std::uint64_t tried[kStrategyCount] = {0, 0, 0};
};

class CostModel {
 public:
  CostModel(const tmk::TmkConfig& tmk, const net::NetConfig& net, std::size_t nodes);

  /// Modeled protocol-overhead seconds of running one occurrence of a
  /// section with profile `p` under strategy `s`.  The section's own
  /// compute is identical under every strategy and cancels out.
  [[nodiscard]] double cost(SectionStrategy s, const SectionProfile& p) const;

 private:
  /// Master service time for an aftermath traffic volume: per-message
  /// software cost plus the measured (or predicted) payload on the wire.
  [[nodiscard]] double after_cost(double msgs, double bytes) const;

  std::size_t n_;
  double c_msg_;       // software send + receive per message
  double c_page_;      // one page-sized payload: wire + diff create/apply
  double c_ack_;       // one small control frame (null ack class)
  double rt_;          // uncontended fault round trip (Table 2's ~0.7-0.9 ms)
  double round_;       // one flow-controlled multicast round (n chained frames)
  double repl_fixed_;  // per-section replicated bracket: fork/join, entry and
                       // exit barriers, valid-notice exchange (Section 5.2/5.4.1)
  double link_rate_;   // switched unicast port, bytes/second
  double page_wire_;   // wire bytes of one page-sized payload
};

}  // namespace repseq::rse::policy
