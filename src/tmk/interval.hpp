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

/// All interval records a node knows, by owner and by page, and so its
/// vector clock (paper Section 5.1): insert is their one writer.  Records
/// per owner are stored densely in index order (index i at position i-1).
class IntervalLog {
 public:
  explicit IntervalLog(std::size_t nodes) : per_owner_(nodes), clock_(nodes) {}

  /// Highest interval index known for `owner` (0 = none).
  [[nodiscard]] std::uint32_t known(NodeId owner) const {
    return static_cast<std::uint32_t>(per_owner_[owner].size());
  }
  /// The node's clock: entry o is known(o), the newest interval of o seen.
  [[nodiscard]] const VectorClock& clock() const { return clock_; }

  /// Logs a record, raising clock() and listing it under each of its pages;
  /// a known record changes nothing and returns false.  Records arrive in
  /// index order per owner (notices propagate along synchronization edges).
  bool insert(IntervalRecordPtr rec);

  [[nodiscard]] const IntervalRecord& get(NodeId owner, std::uint32_t index) const {
    REPSEQ_CHECK(index >= 1 && index <= per_owner_[owner].size(), "unknown interval");
    return *per_owner_[owner][index - 1];
  }

  /// The records of `owner` after interval `after`, in index order.
  [[nodiscard]] std::vector<IntervalRecordPtr> records_of(NodeId owner, std::uint32_t after) const {
    const auto& vec = per_owner_[owner];
    REPSEQ_CHECK(after <= vec.size(), "records asked after an unknown interval");
    return std::vector<IntervalRecordPtr>(vec.begin() + after, vec.end());
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

  /// All records (own and remote) known to mention `p`, in the order they
  /// were logged, so each owner's in ascending index order.  The RSE
  /// requester election uses this as the universe of write notices for a
  /// page (logs are identical cluster-wide once the multicast fork has
  /// opened a replicated section).
  [[nodiscard]] const std::vector<IntervalRecordPtr>& page_notices(PageId p) const {
    static const std::vector<IntervalRecordPtr> kEmpty;
    auto it = page_index_.find(p);
    return it == page_index_.end() ? kEmpty : it->second;
  }
  /// Every page with at least one known write notice, ascending, mapped to
  /// page_notices(p).  A page with pending notices is always in it, so a
  /// walk over it finds every invalid page without scanning the heap.
  [[nodiscard]] const std::map<PageId, std::vector<IntervalRecordPtr>>& page_notice_index()
      const {
    return page_index_;
  }

 private:
  std::vector<std::vector<IntervalRecordPtr>> per_owner_;
  VectorClock clock_;
  std::map<PageId, std::vector<IntervalRecordPtr>> page_index_;
};

}  // namespace repseq::tmk
