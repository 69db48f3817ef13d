// Execution statistics matching the paper's Tables 1-4 row for row.
//
// Counters are split by execution phase (sequential vs parallel section);
// the phase is a cluster-global property toggled by the OpenMP layer at
// fork/join boundaries, which are global synchronizations.
#pragma once

#include <cstdint>

#include "sim/clock.hpp"
#include "util/stats_accum.hpp"

namespace repseq::tmk {

enum class Phase : std::uint8_t {
  Sequential,  // between a join and the next fork (includes program init)
  Parallel,    // between a fork and its join
};

/// One shard's aggregate occupancy over a whole run: the multicast
/// frames/bytes the network committed on it plus the time the medium spent
/// transmitting (busy cycles).  Benches report max-per-shard busy to show
/// whether the medium -- not the protocol -- is the serialization
/// bottleneck.
struct HubOccupancy {
  std::uint64_t mcast_msgs = 0;
  std::uint64_t mcast_bytes = 0;
  sim::SimDuration busy{};
};

/// Counters for one node within one phase class.
struct PhaseCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t diff_msgs_sent = 0;
  std::uint64_t diff_bytes_sent = 0;

  std::uint64_t page_faults = 0;      // faults taken by this node
  std::uint64_t diff_requests = 0;    // fault-driven request rounds issued
  std::uint64_t null_acks_sent = 0;   // RSE flow-control null acknowledgments
  std::uint64_t fwd_requests = 0;     // RSE requests forwarded via master
  std::uint64_t fwd_owners = 0;       // owners those requests name, summed
  std::uint64_t recoveries = 0;       // timeout recovery rounds

  /// Round-trip per diff request round, milliseconds.
  util::Accumulator response_ms;
  /// Total time this node spent blocked in fault handling.
  sim::SimDuration fault_wait{};

  void merge(const PhaseCounters& o) {
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    diff_msgs_sent += o.diff_msgs_sent;
    diff_bytes_sent += o.diff_bytes_sent;
    page_faults += o.page_faults;
    diff_requests += o.diff_requests;
    null_acks_sent += o.null_acks_sent;
    fwd_requests += o.fwd_requests;
    fwd_owners += o.fwd_owners;
    recoveries += o.recoveries;
    response_ms.merge(o.response_ms);
    fault_wait += o.fault_wait;
  }
};

struct NodeStats {
  PhaseCounters seq;
  PhaseCounters par;

  PhaseCounters& for_phase(Phase p) { return p == Phase::Sequential ? seq : par; }
  [[nodiscard]] const PhaseCounters& for_phase(Phase p) const {
    return p == Phase::Sequential ? seq : par;
  }
};

}  // namespace repseq::tmk
