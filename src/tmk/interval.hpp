// Interval records and the per-node interval log.
//
// An interval is the span of a thread's execution between two consecutive
// synchronization operations that produced shared-memory writes.  Its record
// carries the interval's Lamport stamp and the list of pages written (the
// write notices).  Receivers order diffs by the stamp alone, so the
// interval's vector timestamp stays with its owner and never travels.
// Records are immutable once published; every node's log eventually holds
// the records it needs by virtue of the consistency protocol's notice
// exchange.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "tmk/gaddr.hpp"
#include "tmk/vector_clock.hpp"
#include "util/check.hpp"
#include "util/pool_ptr.hpp"

namespace repseq::tmk {

struct IntervalRecord {
  NodeId owner = 0;
  std::uint32_t index = 0;  // owner's interval counter value
  /// Lamport stamp: the sum of the owner's vector clock as the interval
  /// committed (VectorClock::lamport_sum), set once by end_interval.  It
  /// strictly increases along happens-before, so sorting diffs on it
  /// applies every causally earlier diff first (Lamport, CACM 1978).
  std::uint64_t lamport = 0;
  std::vector<PageId> pages;  // write notices

  /// Serialized size: owner + index (8) + stamp (8) + 4 bytes per page
  /// id, whatever the cluster's size.
  [[nodiscard]] std::size_t wire_bytes() const { return 16 + 4 * pages.size(); }
};

/// Pool-backed, non-atomically counted: records fan out to every node
/// inside synchronization payloads, so handle copies are a hot path.
using IntervalRecordPtr = util::PoolPtr<const IntervalRecord>;

/// All interval records a node knows, indexed by owner.  Records per owner
/// are stored densely in index order (index i at position i-1).
class IntervalLog {
 public:
  explicit IntervalLog(std::size_t nodes) : per_owner_(nodes) {}

  /// Highest interval index known for `owner` (0 = none).
  [[nodiscard]] std::uint32_t known(NodeId owner) const {
    return static_cast<std::uint32_t>(per_owner_[owner].size());
  }

  /// Inserts a record; must arrive in index order per owner (the protocol
  /// guarantees this: notices propagate along synchronization edges).
  /// Duplicate arrivals are ignored.
  void insert(IntervalRecordPtr rec) {
    auto& vec = per_owner_[rec->owner];
    if (rec->index <= vec.size()) return;  // already known
    REPSEQ_CHECK(rec->index == vec.size() + 1,
                 "interval record gap for owner " + std::to_string(rec->owner) + ": have " +
                     std::to_string(vec.size()) + ", got " + std::to_string(rec->index));
    vec.push_back(std::move(rec));
  }

  [[nodiscard]] const IntervalRecord& get(NodeId owner, std::uint32_t index) const {
    REPSEQ_CHECK(index >= 1 && index <= per_owner_[owner].size(), "unknown interval");
    return *per_owner_[owner][index - 1];
  }

  /// All records not covered by `vc`, i.e. those the holder of `vc` has not
  /// yet seen.  Returned in (owner, index) order.
  [[nodiscard]] std::vector<IntervalRecordPtr> records_after(const VectorClock& vc) const {
    std::vector<IntervalRecordPtr> out;
    for (NodeId o = 0; o < per_owner_.size(); ++o) {
      for (std::uint32_t i = vc.at(o) + 1; i <= known(o); ++i) {
        out.push_back(per_owner_[o][i - 1]);
      }
    }
    return out;
  }

 private:
  std::vector<std::vector<IntervalRecordPtr>> per_owner_;
};

}  // namespace repseq::tmk
