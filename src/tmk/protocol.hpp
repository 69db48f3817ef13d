// Wire protocol: message kinds and typed payloads.
//
// Payloads are passed by shared pointer (the cluster shares one address
// space), but every payload computes the byte size a real serialization
// would occupy so that message/byte accounting matches the paper's tables.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "tmk/diff.hpp"
#include "tmk/interval.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {

enum class MsgKind : std::uint32_t {
  // ---- base TreadMarks protocol ----
  DiffRequest = 1,
  DiffReply,
  LockAcquire,   // acquirer -> manager
  LockForward,   // manager -> last releaser
  LockRelease,   // holder  -> manager
  LockGrant,     // releaser -> acquirer (write notices ride here)
  BarrierArrive,
  BarrierDepart,
  Fork,
  Join,
  // ---- replicated sequential execution (paper Sections 5.2-5.4) ----
  ValidNotices,      // node -> master right after a replicated section's fork
  ValidTable,        // master -> all (multicast): aggregated valid notices
  McastRequestFwd,   // elected requester -> master (point-to-point)
  McastDiffRequest,  // master -> all (multicast), starts a reply chain
  McastDiffReply,    // diff holder -> all (multicast), doubles as chain ack
  McastNullAck,      // non-holder -> all (multicast), pure chain ack
  RecoverRequest,    // timeout recovery: faulter -> holder directly
  // ---- broadcast-all alternative (paper Sections 4.2 / 6.1.2 ablations) ----
  BcastUpdate,       // master -> all (multicast): notices + diffs of a section
  BcastAck,          // receiver -> master: applied
  // ---- adaptive replication policy (rse::policy) ----
  PolicySectionOpen,  // master -> all (multicast): section id + chosen strategy
  // ---- local control (never on the wire) ----
  RseRoundTick,      // master-local timer: force round progression on loss
};

/// A diff frozen at its owner's flush together with its full registration:
/// the write-notice intervals of (owner, page) it satisfies.  Lazy diff
/// creation can merge several intervals into one diff, so `covers` may list
/// more than one index (paper Section 5.1).  Immutable once registered.
struct RegisteredDiff {
  /// Creation sequence at the owner; orders multiple diffs registered under
  /// the same interval (early flushes of a still-open interval).
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> covers;  // every interval this diff backs
  DiffPtr diff;
};
using RegisteredDiffPtr = util::PoolPtr<const RegisteredDiff>;

/// One diff on the wire: a handle to the owner's registration, so copying a
/// packet (reply payloads, multicast staging at every receiver) is a count
/// bump, never an allocation.
///
/// `covers()` is always the diff's FULL registration (every interval it was
/// frozen for), not just the intervals a particular requester asked about.
/// Receivers use min(covers) against their per-page validity clock to
/// recognize a batch they have already applied: re-applying a frozen batch
/// after newer writes landed would resurrect stale data.
struct DiffPacket {
  NodeId owner = 0;
  PageId page = 0;
  RegisteredDiffPtr reg;

  [[nodiscard]] std::uint64_t seq() const { return reg->seq; }
  [[nodiscard]] const std::vector<std::uint32_t>& covers() const { return reg->covers; }
  [[nodiscard]] const Diff& diff() const { return *reg->diff; }

  [[nodiscard]] std::size_t wire_bytes() const {
    return reg->diff->wire_bytes() + 4 * reg->covers.size();
  }
};

/// One write notice a diff batch satisfies: interval `index` of `owner` on
/// `page`.  Ordered page-major, so a sorted run groups a page's covers.
struct NoticeKey {
  PageId page = 0;
  NodeId owner = 0;
  std::uint32_t index = 0;
  auto operator<=>(const NoticeKey&) const = default;
};

// Per-owner list of wanted interval indices for one page.
using WantedByOwner = std::vector<std::pair<NodeId, std::vector<std::uint32_t>>>;

inline std::size_t wanted_wire_bytes(const WantedByOwner& w) {
  std::size_t b = 0;
  for (const auto& [owner, ivs] : w) b += 8 + 4 * ivs.size();
  return b;
}

inline std::size_t packets_wire_bytes(const std::vector<DiffPacket>& ps) {
  std::size_t b = 0;
  for (const DiffPacket& p : ps) b += p.wire_bytes();
  return b;
}

inline std::size_t records_wire_bytes(const std::vector<IntervalRecordPtr>& rs) {
  std::size_t b = 0;
  for (const auto& r : rs) b += r->wire_bytes();
  return b;
}

struct DiffRequestP {
  std::uint64_t req_id = 0;
  PageId page = 0;
  std::vector<std::uint32_t> intervals;  // wanted intervals of the dst node
  [[nodiscard]] std::size_t wire_bytes() const { return 16 + 4 * intervals.size(); }
};

struct DiffReplyP {
  std::uint64_t req_id = 0;
  PageId page = 0;
  std::vector<DiffPacket> packets;
  [[nodiscard]] std::size_t wire_bytes() const { return 16 + packets_wire_bytes(packets); }
};

struct LockAcquireP {
  std::uint64_t req_id = 0;
  std::uint32_t lock = 0;
  VectorClock vc;
  [[nodiscard]] std::size_t wire_bytes() const { return 16 + vc.wire_bytes(); }
};

struct LockForwardP {
  std::uint64_t req_id = 0;
  std::uint32_t lock = 0;
  NodeId acquirer = 0;
  VectorClock vc;
  [[nodiscard]] std::size_t wire_bytes() const { return 20 + vc.wire_bytes(); }
};

struct LockReleaseP {
  std::uint32_t lock = 0;
  [[nodiscard]] static std::size_t wire_bytes() { return 8; }
};

struct LockGrantP {
  std::uint64_t req_id = 0;
  std::uint32_t lock = 0;
  VectorClock vc;
  std::vector<IntervalRecordPtr> records;
  /// Shadow happens-before snapshot for the chk race detector; empty (and
  /// excluded from wire_bytes) unless checking is on -- the analysis rides
  /// the sync messages without perturbing the accounted wire.
  VectorClock chk{};
  [[nodiscard]] std::size_t wire_bytes() const {
    return 16 + vc.wire_bytes() + records_wire_bytes(records);
  }
};

struct BarrierArriveP {
  /// (barrier id << 32) | per-node epoch counter; SPMD execution makes the
  /// epoch consistent across nodes and keeps back-to-back barriers with the
  /// same id from colliding.
  std::uint64_t barrier_seq = 0;
  VectorClock vc;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const {
    return 8 + vc.wire_bytes() + records_wire_bytes(records);
  }
};

struct BarrierDepartP {
  std::uint64_t barrier_seq = 0;
  VectorClock vc;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const {
    return 8 + vc.wire_bytes() + records_wire_bytes(records);
  }
};

struct ForkP {
  std::uint64_t work_id = 0;  // "pointer to the region subroutine"
  VectorClock vc;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const {
    // work descriptor: function id + argument block (paper: subroutine
    // pointer, arguments, and additional information)
    return 32 + vc.wire_bytes() + records_wire_bytes(records);
  }
};

struct JoinP {
  VectorClock vc;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const {
    return 8 + vc.wire_bytes() + records_wire_bytes(records);
  }
};

// ---- replicated sequential execution payloads ----

/// One node's valid notices: for each page it would fault on, its local
/// validity timestamp (paper Section 5.4.1).
struct ValidNoticesP {
  std::vector<std::pair<PageId, VectorClock>> entries;
  [[nodiscard]] std::size_t wire_bytes() const {
    std::size_t b = 8;
    for (const auto& [page, vc] : entries) b += 4 + vc.wire_bytes();
    return b;
  }
};

/// The aggregated table, multicast by the master: per node, that node's
/// ValidNotices entries.
struct ValidTableP {
  std::shared_ptr<const std::vector<ValidNoticesP>> per_node;
  [[nodiscard]] std::size_t wire_bytes() const {
    std::size_t b = 8;
    for (const auto& vn : *per_node) b += vn.wire_bytes();
    return b;
  }
};

struct McastRequestFwdP {
  PageId page = 0;
  NodeId requester = 0;
  WantedByOwner wanted;  // union over all faulting threads
  [[nodiscard]] std::size_t wire_bytes() const { return 12 + wanted_wire_bytes(wanted); }
};

struct McastDiffRequestP {
  std::uint64_t round = 0;  // master-assigned serialization number
  PageId page = 0;
  NodeId requester = 0;
  WantedByOwner wanted;
  [[nodiscard]] std::size_t wire_bytes() const { return 20 + wanted_wire_bytes(wanted); }
};

struct McastDiffReplyP {
  std::uint64_t round = 0;  // 0 = recovery reply outside any chain
  PageId page = 0;
  NodeId sender = 0;
  std::vector<DiffPacket> packets;
  [[nodiscard]] std::size_t wire_bytes() const { return 20 + packets_wire_bytes(packets); }
};

struct McastNullAckP {
  std::uint64_t round = 0;
  PageId page = 0;
  NodeId sender = 0;
  [[nodiscard]] static std::size_t wire_bytes() { return 20; }
};

struct RecoverRequestP {
  std::uint64_t req_id = 0;
  PageId page = 0;
  std::vector<std::uint32_t> intervals;  // wanted intervals of the dst node
  [[nodiscard]] std::size_t wire_bytes() const { return 16 + 4 * intervals.size(); }
};

/// Push-style update: the "multicast all data modified during the sequential
/// execution" alternative the paper compares against (Section 4.2), also the
/// hand-inserted tree broadcast of Section 6.1.2.
struct BcastUpdateP {
  std::uint64_t req_id = 0;
  std::vector<IntervalRecordPtr> records;
  std::vector<DiffPacket> packets;
  [[nodiscard]] std::size_t wire_bytes() const {
    return 16 + records_wire_bytes(records) + packets_wire_bytes(packets);
  }
};

struct BcastAckP {
  std::uint64_t req_id = 0;
  [[nodiscard]] static std::size_t wire_bytes() { return 16; }
};

/// The per-section strategy decision, multicast by the master at section
/// entry so every node records the same agreed decision sequence (the
/// adaptive-policy analogue of the fork's work descriptor).  Slaves only log
/// it; the execution itself is still driven by the master's fork-or-inline
/// choice, which this message names.
struct PolicySectionOpenP {
  std::uint64_t seq = 0;      // cluster-global section sequence number
  std::uint32_t site = 0;     // application-stamped section site id
  std::uint8_t strategy = 0;  // rse::policy::SectionStrategy
  std::uint8_t switched = 0;  // differs from this site's previous strategy
  [[nodiscard]] static std::size_t wire_bytes() { return 16; }
};

/// Master-local watchdog tick (injected into the master's own inbox, never
/// transmitted): if the multicast round `round` on `shard` is still in
/// flight when the tick is handled, the master abandons it and starts that
/// shard's next one; the faulters of the dead round fall back to direct
/// recovery.  Round numbers are per-shard sequences, so the shard must ride
/// along to name the round unambiguously.
struct RseRoundTickP {
  std::uint64_t round = 0;
  std::uint32_t shard = 0;
  [[nodiscard]] static std::size_t wire_bytes() { return 0; }
};

inline MsgKind kind_of(const net::Message& m) { return static_cast<MsgKind>(m.kind); }

/// True for message kinds that carry diff traffic (the paper's "diff
/// messages" accounting rows).
inline bool is_diff_traffic(MsgKind k) {
  switch (k) {
    case MsgKind::DiffRequest:
    case MsgKind::DiffReply:
    case MsgKind::McastRequestFwd:
    case MsgKind::McastDiffRequest:
    case MsgKind::McastDiffReply:
    case MsgKind::McastNullAck:
    case MsgKind::RecoverRequest:
    case MsgKind::BcastUpdate:
      return true;
    default:
      return false;
  }
}

/// Builds a transport message around a typed payload.
template <typename P>
net::Message make_message(MsgKind kind, NodeId src, NodeId dst, P payload) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.kind = static_cast<std::uint32_t>(kind);
  // Loss injection exercises the diff-request recovery paths; the
  // synchronization messages (fork/join/barrier/lock) are modeled as
  // reliable transport (TreadMarks retries them below the protocol layer).
  // The same split governs receive-ring overflow: diff traffic -- the
  // Section 5.4 hazard the flow control exists for -- drops on a full
  // ring, while sync traffic is admitted as if kernel-retried (a dropped
  // Join/Barrier has no protocol-level recovery and would deadlock the
  // cluster, e.g. when concurrent sharded rounds' ack tails overlap the
  // join burst at a section boundary).
  m.reliable = !is_diff_traffic(kind);
  m.payload_bytes = payload.wire_bytes();
  m.payload = util::make_pooled<P>(std::move(payload));
  return m;
}

}  // namespace repseq::tmk
