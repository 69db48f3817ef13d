// Replicated sequential execution (the paper's contribution, Sections 4-5).
//
// Every node executes the sequential section on its own copy of shared
// data.  The multicast fork opens it, leaving every interval log equal to
// the master's; entry performs the valid-notice exchange (Section 5.4.1)
// and the dirty-page write-protection pass (Section 5.3).  Faults during
// the section use the flow-controlled multicast protocol (Section 5.4.2):
// one elected requester per page forwards a request to the master, the
// master serializes rounds and multicasts the request, and holders reply by
// multicast in thread-id order with chained (null-) acknowledgments;
// receivers land the replies through the runtime's pushed-diff rule
// (tmk::NodeRuntime::apply_pushed).  The join closes the section,
// exchanging no coherence information (Section 5.2).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "sim/channel.hpp"
#include "tmk/runtime.hpp"

namespace repseq::rse {

/// Flow-control policy for the multicast diff replies (Section 5.4.3
/// discusses the chained scheme's overhead; Windowed is the paper's
/// envisioned less-conservative scheme; None is the strawman from the start
/// of Section 5.4 that overruns receive buffers).
enum class FlowControl {
  Chained,   // paper protocol: serialized rounds + per-thread ack chain
  Windowed,  // serialized rounds, concurrent replies, no null acks
  None,      // no master serialization, no acks: requester multicasts
};

class RseController final : public tmk::RseHooks {
 public:
  /// Attaches to `cluster` (a second controller on one cluster aborts) and
  /// registers the handler set of `flow` with its dispatch registry.
  explicit RseController(tmk::Cluster& cluster, FlowControl flow = FlowControl::Chained);

  RseController(const RseController&) = delete;
  RseController& operator=(const RseController&) = delete;

  /// Section bracket, called on EVERY node's application fiber (the omp
  /// layer forks the section body to the slaves).
  void enter(tmk::NodeRuntime& rt);
  void exit(tmk::NodeRuntime& rt);
  /// Master, after every slave joined the section: no node waits in
  /// on_fault, so queued rounds are dropped and rounds in flight finished
  /// (one whose ack-chain tail a full receive ring dropped would otherwise
  /// hold its shard until the watchdog fires).
  void retire_rounds(tmk::NodeRuntime& master);

  [[nodiscard]] FlowControl flow() const { return flow_; }

  /// This node's valid notices (Section 5.4.1): one entry per page it would
  /// fault on, ascending by page.  Visits only pages with known write
  /// notices, not the whole heap.  Checks that each entry, decoded against
  /// the node's own log, names exactly the page's pending notices.
  [[nodiscard]] static tmk::ValidNoticesP local_valid_notices(tmk::NodeRuntime& rt);

  /// The valid notice of `page` for a node with `pending` notices on it
  /// (any order) in a cluster of `nodes`.
  [[nodiscard]] static tmk::ValidNotice valid_notice(
      tmk::PageId page, const std::vector<tmk::IntervalRecordPtr>& pending, std::size_t nodes);

  /// A thread that will fault on a page, with its valid notice for it.
  using FaultingThread = std::pair<net::NodeId, const tmk::ValidNotice*>;
  /// The elected requester's merged request (Section 5.4.2): the union over
  /// the `faulting` threads of the intervals in `notices` (the page's known
  /// write notices) each one lacks: for every owner its entry names, the
  /// newest notice of that owner, or every notice from its lag on.  Owners
  /// ascending, intervals ascending and unique per owner.
  [[nodiscard]] static tmk::WantedByOwner union_missing(
      const std::vector<tmk::IntervalRecordPtr>& notices,
      const std::vector<FaultingThread>& faulting);

  // --- RseHooks (fault integration) ---
  void on_fault(tmk::NodeRuntime& rt, tmk::PageId page) override;

  /// Total virtual time nodes spent inside the valid-notice exchange
  /// (reported in Section 6 as part of the overhead decomposition).
  [[nodiscard]] sim::SimDuration valid_notice_time() const { return valid_notice_time_; }

 private:
  /// Chained/windowed state of the round in progress on ONE shard of the
  /// multicast medium.  Rounds on distinct shards are independent: each
  /// shard runs its own reply chain, so a node can be mid-chain on several
  /// shards at once.
  struct RoundState {
    std::uint64_t round = 0;  // 0 = idle (round numbers are per-shard)
    tmk::PageId round_page = 0;
    tmk::WantedByOwner round_wanted;
    net::NodeId next_sender = 0;
    /// Reply/ack frames observed for rounds this node has not started yet
    /// (a non-FIFO transport can deliver a reply before its request);
    /// replayed when the round's request arrives, pruned at round start.
    std::map<std::uint64_t, std::set<net::NodeId>> early_frames;
  };

  /// Master-only round serialization for ONE shard: the single in-flight
  /// gate the paper describes, replicated per shard so concurrent rounds on
  /// disjoint shards proceed in parallel instead of queueing behind one
  /// another.
  struct MasterShard {
    std::deque<tmk::McastDiffRequestP> queue;
    bool round_in_flight = false;
    std::uint64_t active_round = 0;
    std::uint64_t next_round_no = 1;
    sim::EventQueue::Handle round_watchdog;
    /// Windowed mode: owners whose reply for the current round is pending.
    std::vector<net::NodeId> awaiting_replies;
  };

  struct NodeState {
    /// Pages write-protected at entry (those holding a twin; Section 5.3),
    /// so exit resets exactly these.
    std::vector<tmk::PageId> write_protected;
    /// The aggregated valid-notice table multicast by the master.
    std::shared_ptr<const std::vector<tmk::ValidNoticesP>> table;
    /// Page -> the threads whose `table` entry shows they will fault on it,
    /// ascending by thread, each with its validity (points into `table`; the
    /// shared_ptr keeps the storage alive).  The front thread is the page's
    /// elected requester (Section 5.4.1).
    std::map<tmk::PageId, std::vector<FaultingThread>> faulting;
    /// The valid-notice exchange's inbox: the slaves' ValidNotices on the
    /// master, the master's ValidTable on a slave.
    std::unique_ptr<sim::Channel<net::Message>> exchange;

    /// Per-shard round state (index = shard id, sized to the backend's
    /// shard count; single-medium backends have exactly one entry).
    std::vector<RoundState> rounds;

    // ---- master-only state ----
    std::vector<MasterShard> shards;  // per-shard round tables (node 0 only)
  };

  /// The shard of the multicast medium carrying round traffic for `page`
  /// (round traffic is multicast with the page as its group).
  [[nodiscard]] std::size_t shard_for(tmk::PageId page) const {
    return cluster_.network().shard_of_group(page);
  }
  /// This node's per-shard round state (tables sized at construction).
  [[nodiscard]] RoundState& round_state(tmk::NodeRuntime& rt, std::size_t shard);
  [[nodiscard]] MasterShard& master_shard(std::size_t shard);

  /// Master: enqueue a forwarded request on its page's shard, start it if
  /// that shard has no round in flight.
  void master_enqueue(tmk::NodeRuntime& master, tmk::McastRequestFwdP fwd);
  void master_start_next(tmk::NodeRuntime& master, std::size_t shard);
  void master_round_finished(tmk::NodeRuntime& master, std::size_t shard);

  /// Round entry at node `rt` (on multicast-request receipt, or locally at
  /// the sender): Chained walks the ack chain, Windowed/None reply
  /// immediately when holding requested diffs.
  void begin_round(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req);
  void chain_begin_chained(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req);
  void begin_concurrent(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req);
  /// Advances the shard's ack chain after `sender`'s frame was observed.
  void chain_observe(tmk::NodeRuntime& rt, std::size_t shard, net::NodeId sender);
  /// Finishes the master's round when the chain has walked every node AND
  /// the round is still the one in flight (a watchdog-abandoned round's
  /// late-completing chain must not finish its successor).
  void chain_maybe_finish(tmk::NodeRuntime& rt, std::size_t shard);
  /// Sends this node's frame (diffs or null ack) for the shard's round.
  void send_own_frame(tmk::NodeRuntime& rt, std::size_t shard);
  /// send_own_frame at this node's chain turn; advances the turn counter.
  void chain_send_own(tmk::NodeRuntime& rt, std::size_t shard);
  /// Windowed: retire `sender`'s reply for `round` from the shard's master
  /// window (ignores replies of abandoned rounds).
  void window_retire(tmk::NodeRuntime& rt, std::size_t shard, net::NodeId sender,
                     std::uint64_t round);

  /// Timeout recovery (Section 5.4.2): request own missing diffs directly.
  void recover(tmk::NodeRuntime& rt, tmk::PageId page);

  /// Registers the handler set for the configured FlowControl variant.
  /// Chained registers the full round/ack-chain machinery; Windowed drops
  /// the null-ack chain in favor of a master-side reply window; None
  /// registers only the request/reply pair (no rounds, no acks).
  void register_handlers(tmk::ProtocolEngine& engine);

  tmk::Cluster& cluster_;
  FlowControl flow_;
  std::vector<NodeState> state_;
  sim::SimDuration valid_notice_time_{};
};

}  // namespace repseq::rse
