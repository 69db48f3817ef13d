// Wire protocol: message kinds and typed payloads.
//
// Payloads are passed by shared pointer (the cluster shares one address
// space), but every payload computes the byte size a real serialization
// would occupy so that message/byte accounting matches the paper's tables.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "tmk/diff.hpp"
#include "tmk/interval.hpp"
#include "tmk/stats.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {

enum class MsgKind : std::uint32_t {
  // ---- base TreadMarks protocol ----
  DiffRequest = 1,
  DiffReply,
  BarrierArrive,
  BarrierDepart,
  Fork,
  Join,
  // ---- replicated sequential execution (paper Sections 5.2-5.4) ----
  ValidNotices,      // node -> combining-tree parent: its subtree's valid notices
  ValidTable,        // master -> all (multicast): aggregated valid notices
  McastRequestFwd,   // elected requester -> master (point-to-point)
  McastDiffRequest,  // master -> all (multicast), starts a reply chain
  McastDiffReply,    // diff holder -> all (multicast), doubles as chain ack
  McastNullAck,      // non-holder -> all (multicast), pure chain ack
  RecoverRequest,    // timeout recovery: faulter -> holder directly
  // ---- broadcast-all alternative (paper Sections 4.2 / 6.1.2 ablations) ----
  BcastUpdate,       // master -> all (multicast): notices + diffs of a section
  BcastAck,          // receiver -> master: applied
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

// The four sync payloads carry the interval records their receiver lacks
// and no vector clock: a node's clock is its interval log's high-water
// marks, so each receiver rebuilds what the sender's clock told it from
// the records (NodeRuntime::apply_notice raises the clock with every
// record it logs).  Their size does not depend on the node count.

struct BarrierArriveP {
  /// (barrier id << 32) | per-node epoch counter; SPMD execution makes the
  /// epoch consistent across nodes and keeps back-to-back barriers with the
  /// same id from colliding.
  std::uint64_t barrier_seq = 0;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const { return 8 + records_wire_bytes(records); }
};

struct BarrierDepartP {
  std::uint64_t barrier_seq = 0;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const { return 8 + records_wire_bytes(records); }
};

struct ForkP {
  std::uint64_t work_id = 0;  // "pointer to the region subroutine"
  /// Phase::Sequential for a replicated section, whose closing join
  /// combines up the CombiningTree; a parallel region's goes to the master.
  Phase phase = Phase::Parallel;
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const {
    // work descriptor: function id + argument block + phase (paper:
    // subroutine pointer, arguments, and additional information)
    return 32 + records_wire_bytes(records);
  }
};

struct JoinP {
  std::vector<IntervalRecordPtr> records;
  VectorClock chk{};  // shadow clock side-channel, excluded from wire_bytes
  [[nodiscard]] std::size_t wire_bytes() const { return 8 + records_wire_bytes(records); }
};

// ---- replicated sequential execution payloads ----

/// A set of node ids as an n-bit map.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::size_t nodes) : size_(nodes), words_((nodes + 63) / 64) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  void insert(NodeId n) { words_[n / 64] |= std::uint64_t{1} << (n % 64); }
  [[nodiscard]] bool contains(NodeId n) const { return (words_[n / 64] >> (n % 64)) & 1u; }
  /// Calls `fn(id)` for every member, ascending.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }
  [[nodiscard]] std::size_t wire_bytes() const { return (size_ + 7) / 8; }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// One page a node would fault on, as its valid notice (paper Section
/// 5.4.1).  The fork leaves every node's interval log equal, and a node's
/// pending notices from one owner are that owner's newest on the page, so
/// the entry carries only what a receiver cannot rebuild from its own log,
/// as differential vector clocks do (Singhal & Kshemkalyani, IPL 1992):
/// which owners' notices are pending, and for each owner lacked by more
/// than its newest notice, the oldest interval lacked.
struct ValidNotice {
  PageId page = 0;
  NodeSet owners;  // the owners with a notice pending on the page here
  /// (owner, oldest pending interval) for every owner with two or more
  /// notices pending on the page, ascending by owner.
  std::vector<std::pair<NodeId, std::uint32_t>> lags;
  /// Page id, owner map, lag count, then 8 bytes per lag.
  [[nodiscard]] std::size_t wire_bytes() const {
    return 4 + owners.wire_bytes() + 1 + 8 * lags.size();
  }
};

/// One node's valid notices, ascending by page.
struct ValidNoticesP {
  NodeId node = 0;
  std::vector<ValidNotice> entries;
  /// Node id and entry count, then the entries.
  [[nodiscard]] std::size_t wire_bytes() const {
    std::size_t b = 8;
    for (const ValidNotice& e : entries) b += e.wire_bytes();
    return b;
  }
};

/// A ValidNotices message: the valid notices of the sender's subtree of
/// the CombiningTree, one block per node.  A leaf sends its own block.
struct ValidNoticeBlocksP {
  std::vector<ValidNoticesP> blocks;
  [[nodiscard]] std::size_t wire_bytes() const {
    std::size_t b = 0;
    for (const ValidNoticesP& vn : blocks) b += vn.wire_bytes();
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
  // synchronization messages (fork/join/barrier) are modeled as reliable
  // transport (TreadMarks retries them below the protocol layer).
  // The same split governs receive-ring overflow: diff traffic -- the
  // Section 5.4 hazard the flow control exists for -- drops on a full
  // ring, while sync traffic is admitted as if kernel-retried (a dropped
  // Join/Barrier has no protocol-level recovery and would deadlock the
  // cluster, e.g. when concurrent sharded rounds' ack tails overlap the
  // join burst at a section boundary).  The section broadcast counts as
  // diff traffic but is reliable like the fork: it carries the section's
  // write notices, and a slave that missed it would never acknowledge, so
  // the master would wait for its BcastAck forever.
  m.reliable = !is_diff_traffic(kind) || kind == MsgKind::BcastUpdate;
  m.payload_bytes = payload.wire_bytes();
  m.payload = util::make_pooled<P>(std::move(payload));
  return m;
}

}  // namespace repseq::tmk
