// The per-node DSM runtime and the cluster that wires nodes together.
//
// NodeRuntime implements TreadMarks' multiple-writer, lazy-invalidate
// release consistency protocol (paper Sections 2.2 and 5.1):
//   * explicit read/write barriers stand in for VM page protection,
//   * intervals close at synchronization operations and publish write
//     notices, which invalidate remote copies lazily,
//   * diffs are created lazily at first request (or when a remote notice
//     invalidates a locally dirty page) and applied in causal order,
//   * fork, join and barriers are the only synchronization, and they carry
//     the consistency information.  A slave synchronizes only with the
//     master, so every write notice it learns comes from the master.
//
// A request-server (dispatcher) fiber per node services incoming messages,
// preempting application compute through the sim::Cpu interrupt model --
// FIFO servicing of queued requests is precisely the paper's contention
// mechanism (Section 3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "tmk/config.hpp"
#include "tmk/gaddr.hpp"
#include "tmk/interval.hpp"
#include "tmk/page.hpp"
#include "tmk/protocol.hpp"
#include "tmk/protocol_engine.hpp"
#include "tmk/shared_heap.hpp"
#include "tmk/stats.hpp"
#include "tmk/vector_clock.hpp"
#include "util/lazy_bytes.hpp"

namespace repseq::chk {
class Checker;
}  // namespace repseq::chk

namespace repseq::tmk {

class Cluster;
class NodeRuntime;

/// Hook interface for the replicated-sequential-execution engine
/// (implemented in src/rse).  While a node is inside a replicated
/// sequential section, page faults are delegated here instead of to the
/// base protocol.  The engine registers its message handlers with the
/// cluster's ProtocolEngine itself, like any protocol extension.
class RseHooks {
 public:
  virtual ~RseHooks() = default;
  /// Handles a fault on `page` during replicated execution (app fiber).
  virtual void on_fault(NodeRuntime& node, PageId page) = 0;
};

/// The diagnostic of a retry-exhaustion abort: the node whose request for
/// `page` is stuck, every server still owing a reply with the intervals
/// wanted from it, the attempts that timed out and the last timeout.
[[nodiscard]] std::string stuck_request(NodeId node, PageId page, const WantedByOwner& outstanding,
                                        int attempts, sim::SimDuration timeout);

class NodeRuntime {
 public:
  NodeRuntime(Cluster& cluster, NodeId id);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool is_master() const { return id_ == 0; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }
  [[nodiscard]] NodeStats& stats() { return stats_; }
  [[nodiscard]] const TmkConfig& config() const;
  [[nodiscard]] std::size_t node_count() const;

  // ---- instrumented access layer (called by ShArray & friends) ----

  /// Ensures [addr, addr+bytes) is readable; faults in missing diffs.
  void read_barrier(GAddr addr, std::size_t bytes);
  /// Ensures writability; creates twins / records dirtiness as needed.
  void write_barrier(GAddr addr, std::size_t bytes);
  /// Raw pointer into this node's local backing for a shared address.
  template <typename T>
  [[nodiscard]] T* local(GAddr addr) {
    return reinterpret_cast<T*>(mem_.data() + addr.off);
  }
  [[nodiscard]] std::span<std::byte> page_span(PageId p);
  [[nodiscard]] std::span<const std::byte> page_span(PageId p) const;

  /// Charges application compute (forwarded to the CPU model).
  void charge(sim::SimDuration d) { cpu_.accrue(d); }

  // ---- synchronization API (TreadMarks primitives) ----

  void barrier(std::uint32_t barrier_id);

  /// Master: fork a parallel region; slaves run `work_id` via the cluster's
  /// registered work table.  `phase` tags statistics while the region runs
  /// (replicated *sequential* sections are forked too, but their traffic
  /// belongs to the sequential-section accounting of Tables 2 and 4).  A
  /// Phase::Sequential fork is one multicast to every slave, and so is a
  /// parallel region's when no slave lacks an interval record; otherwise a
  /// parallel region's is one unicast per slave.
  void fork(std::uint64_t work_id, Phase phase = Phase::Parallel);
  /// Master: wait for all slaves' join messages; after a replicated
  /// section's fork, only for its CombiningTree children's.
  void join_master();
  /// Slave main loop: waits for forks, runs work, sends joins.  After a
  /// replicated section's fork, a slave's join waits for its
  /// CombiningTree children's and goes to its parent.
  void slave_loop();

  // ---- protocol internals (exposed for the RSE engine and tests) ----

  /// This node's clock: entry o is the newest interval of owner o in its
  /// log, which alone raises it, as it logs each record, own or remote.
  [[nodiscard]] const VectorClock& vc() const { return log_.clock(); }
  [[nodiscard]] const IntervalLog& log() const { return log_; }
  /// Master only: slave `s`'s clock, rebuilt from the records the master
  /// sent it and the records it sent the master.
  [[nodiscard]] const VectorClock& slave_known(NodeId s) const { return slave_known_vc_[s]; }
  [[nodiscard]] PageState& page(PageId p) { return pages_[p]; }
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

  /// Pages currently holding a twin, in no particular order.
  [[nodiscard]] const std::vector<PageId>& twinned_pages() const { return twinned_pages_; }
  /// Pages this node wrote inside the current or the last sequential
  /// section (while current_site() != kNoSite), in first-write order: the
  /// section's write set, listed the same way whatever strategy runs the
  /// section.  Replication keeps these writes out of every interval
  /// (Section 5.2).
  [[nodiscard]] const std::vector<PageId>& section_writes() const { return section_writes_; }

  /// Closes the current interval if dirty: logs a record of its write
  /// notices stamped with the Lamport sum of the clock it commits under
  /// (the notices travel with the next synchronization message; the clock
  /// stays here).
  void end_interval();

  /// Logs a remote interval record and invalidates its pages.
  void apply_notice(const IntervalRecordPtr& rec);

  /// Creates and registers the diff for a page's twin (lazy diff creation).
  void flush_diff(PageId p);

  /// Serves a diff request: collects (creating when needed) diffs covering
  /// `intervals` of this node for `page`.
  std::vector<DiffPacket> collect_diffs(PageId page, const std::vector<std::uint32_t>& intervals);

  /// Applies a batch of packets in causal order (see causal_order), each
  /// registration once however often it is listed, updates page validity,
  /// clears the pending notices the batch satisfies and charges the apply
  /// costs.
  void apply_packets_causally(std::vector<DiffPacket> pkts);

  /// Lands pushed diffs: a section broadcast's packets or an RSE round's
  /// multicast replies.  Stages each packet under its page, skipping pages
  /// already valid (their data may have moved past the image the packet
  /// carries), then applies every page whose pending notices the stage now
  /// covers, with all of its staged packets, in one causal batch.  Pages
  /// still incomplete stay staged for the next call.
  void apply_pushed(const std::vector<DiffPacket>& pkts);

  /// One packet's place in a batch's causal order.
  struct CausalKey {
    std::uint64_t lamport = 0;  // of the packet's newest cover `log` knows
    std::uint64_t seq = 0;
    NodeId owner = 0;
    std::uint32_t pos = 0;  // the packet's index in the batch as it arrived
  };
  /// Fills `keys` with the batch's application order: by the Lamport
  /// projection of each packet's newest cover known to `log`, then owner,
  /// seq and arrival position -- the order a stable sort on (Lamport,
  /// owner, seq) gives.  Each key is computed once per packet, not per
  /// comparison.  `keys` is a caller-owned buffer, so this allocates
  /// nothing once it has grown.
  static void causal_order(const IntervalLog& log, const std::vector<DiffPacket>& pkts,
                           std::vector<CausalKey>& keys);

  /// The base-protocol fault path: request diffs from the last writers.
  void fault_in_page(PageId p);

  /// Groups a page's pending notices by owner (ascending intervals).
  [[nodiscard]] WantedByOwner wanted_for_page(PageId p) const;

  /// Send helpers: charge CPU overhead and tag per-phase statistics.
  void send_raw_unicast(net::Message msg);
  void send_raw_multicast(net::Message msg);

  template <typename P>
  void send_unicast(MsgKind kind, NodeId dst, P payload) {
    send_raw_unicast(make_message(kind, id_, dst, std::move(payload)));
  }
  /// `group` keys the multicast group: the sharded-hub medium hashes it to
  /// a shard, so traffic for disjoint groups rides independent media.  The
  /// RSE engine keys round traffic by page; control traffic uses group 0.
  template <typename P>
  void send_multicast(MsgKind kind, P payload, std::uint64_t group = 0) {
    net::Message m = make_message(kind, id_, net::kMulticastDst, std::move(payload));
    m.mcast_group = group;
    send_raw_multicast(std::move(m));
  }

  /// RSE integration.  Leaving a replicated section drops the round frames
  /// still staged (apply_pushed): they say nothing about the next section's
  /// pending sets.
  [[nodiscard]] bool in_replicated_section() const { return in_replicated_section_; }
  void set_in_replicated_section(bool v) {
    in_replicated_section_ = v;
    if (!v) staged_.clear();
  }

  /// The sequential-section site currently executing on this node's app
  /// fiber (kNoSite outside sections), stamped by ompnow::Team.  The chk
  /// layer's race reports name it; entering a site starts a new
  /// section_writes().
  static constexpr std::uint32_t kNoSite = 0xFFFFFFFFu;
  [[nodiscard]] std::uint32_t current_site() const { return current_site_; }
  void set_current_site(std::uint32_t site) {
    current_site_ = site;
    if (site == kNoSite) return;
    for (PageId p : section_writes_) pages_[p].section_written = false;
    section_writes_.clear();
  }

  /// A fresh correlation id for request/reply matching.
  std::uint64_t next_req_id() { return next_req_id_++; }

  /// Opens the node's one reply slot to replies carrying `req_id`; a second
  /// request outstanding aborts (only the application fiber issues them).
  sim::Channel<net::Message>& expect_replies(std::uint64_t req_id);
  /// Closes the reply slot, dropping the replies it still holds
  /// (duplicates after a retransmit), as every later one for the request.
  void drop_reply_slot();

  /// Wakes the fiber blocked on `page` becoming valid (RSE wait path).
  void notify_page_valid(PageId p);
  /// Blocks the application fiber until `page` is valid; false on timeout.
  bool wait_page_valid(PageId p, sim::SimDuration timeout);

  /// Record a completed fault round in this node's phase stats.
  void record_fault_round(sim::SimTime start, bool counted_as_request);

  /// Master, right after a master-only sequential section (paper Section
  /// 4.2; Section 6.1.2's tree broadcast): closes the section's interval,
  /// the only one it wrote in (Team::seq_broadcast_after closes the one
  /// before, and a section never synchronizes), multicasts its diffs in one
  /// BcastUpdate that slaves land through apply_pushed, and waits for every
  /// acknowledgment.
  void broadcast_section();

  /// The dispatcher fiber body (spawned by Cluster).
  void dispatcher_loop();

  /// Registers the base TreadMarks protocol's message handlers (one per
  /// MsgKind) with the cluster's dispatch registry.
  static void register_base_protocol(ProtocolEngine& engine);

 private:
  friend class Cluster;

  /// Gives page `p` a twin buffer and lists it in twinned_pages().  Buffers
  /// are recycled between twin lifetimes (created at the first write to a
  /// clean page, freed at diff flush -- a high-frequency pairing on
  /// write-heavy workloads).  The caller fills the buffer.
  void acquire_twin(PageId p);
  /// Returns page `p`'s twin buffer to the pool and unlists the page.
  void release_twin(PageId p);

  /// Whether the running fiber is this node's request server.  Protocol
  /// work done there is service time, preempting the application (the
  /// paper's contention mechanism); anywhere else it is application
  /// compute.  False before Cluster::run and off any fiber.
  [[nodiscard]] bool on_server() const {
    return dispatcher_ != nullptr && sim::Fiber::current() == dispatcher_;
  }

  // message handlers (dispatcher fiber)
  void handle_message(const net::Message& msg);
  /// Queues a reply to the outstanding request; a stale `req_id` is dropped.
  void route_reply(std::uint64_t req_id, const net::Message& msg);
  void handle_diff_request(const net::Message& msg);
  void handle_barrier_arrive(const net::Message& msg);

  /// Pops `joins` joins, merging each one's records and shadow clock.
  void merge_joins(std::size_t joins);
  /// Logs a fork's, join's or barrier message's records, which raises
  /// this node's clock to the sender's; on the master, also completes what
  /// it knows of the sending slave.
  void merge_sync_payload(NodeId from, const std::vector<IntervalRecordPtr>& records);
  /// Master: the records the least-informed slave lacks (element-wise
  /// minimum of slave_known_vc_), what one multicast to every slave carries.
  [[nodiscard]] std::vector<IntervalRecordPtr> records_some_slave_lacks() const;

  // barrier bookkeeping (master side)
  struct BarrierGroup {
    std::vector<NodeId> waiters;  // the slaves arrived, in arrival order
    bool master_arrived = false;
    sim::WaitToken* master_waiter = nullptr;
  };
  void barrier_complete_if_ready(std::uint64_t barrier_seq);

  Cluster& cluster_;
  NodeId id_;
  sim::Fiber* dispatcher_ = nullptr;  // recorded by Cluster::run
  sim::Cpu cpu_;
  util::LazyBytes mem_;
  std::vector<PageState> pages_;
  IntervalLog log_;
  std::vector<PageId> current_dirty_;
  std::vector<PageId> section_writes_;
  /// Own diffs per (page, interval); the same registration may appear under
  /// several intervals (merged lazy diffs).
  std::map<std::pair<PageId, std::uint32_t>, std::vector<RegisteredDiffPtr>> own_diffs_;
  std::uint64_t next_diff_seq_ = 1;
  /// apply_packets_causally's buffers, kept between batches so
  /// steady-state batches allocate nothing.
  std::vector<CausalKey> order_buffer_;
  std::vector<NoticeKey> satisfied_buffer_;
  /// Pushed packets staged per page until they cover every notice the page
  /// had pending when its staging began (apply_pushed).  `needed` holds
  /// those (owner, index) notices, sorted; arriving covers flag entries and
  /// `remaining` counts the unflagged, so completeness costs O(log) per
  /// cover instead of a rescan of everything staged.  A round's wanted set
  /// can hold hundreds of intervals at 1024 nodes, so linear work per frame
  /// here turns quadratic per round per receiver (measured 1.3x on the
  /// ilink sweep).
  struct StagedPage {
    struct Notice {
      std::pair<NodeId, std::uint32_t> id;  // (owner, index)
      bool covered = false;                 // a staged packet covers it
    };
    std::vector<DiffPacket> packets;
    std::vector<Notice> needed;
    std::size_t remaining = 0;
  };
  std::map<PageId, StagedPage> staged_;
  std::vector<std::unique_ptr<std::byte[]>> twin_pool_;
  std::vector<PageId> twinned_pages_;  // PageState::twin_slot indexes it

  NodeStats stats_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t reply_req_ = 0;  // the outstanding request (0 = none)
  sim::Channel<net::Message> replies_;
  PageId waited_page_ = 0;
  sim::WaitToken* page_waiter_ = nullptr;

  // synchronization state
  std::map<std::uint64_t, BarrierGroup> barriers_;   // master only, keyed by seq
  std::map<std::uint32_t, std::uint32_t> barrier_epochs_;  // per-node id -> uses
  sim::Channel<net::Message> fork_ch_;
  sim::Channel<net::Message> depart_ch_;
  sim::Channel<net::Message> join_ch_;  // the master's, an interior replica's
  /// Slave only: the index of this node's newest record the master holds.
  /// A slave learns other owners' records only from the master, so a join
  /// or arrival carries its own records after this one and nothing else.
  std::uint32_t own_sent_ = 0;
  /// Master only: what each slave knows.  Exact, since a slave learns
  /// notices only from the master and from its own intervals, and every
  /// sync message carries the records its receiver lacks.
  std::vector<VectorClock> slave_known_vc_;

  bool in_replicated_section_ = false;
  std::uint32_t current_site_ = kNoSite;
  /// The cluster's checker, cached so every hook is one null test when
  /// checking is off (mirrors the obs-layer mask pattern).
  chk::Checker* chk_ = nullptr;
};

/// The whole simulated cluster: engine, network, one runtime per node, the
/// shared heap, the registered parallel work table and the phase flag.
class Cluster {
 public:
  Cluster(TmkConfig cfg, net::NetConfig net_cfg, std::size_t nodes);
  ~Cluster();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] NodeRuntime& node(NodeId n) { return *nodes_[n]; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] const TmkConfig& config() const { return cfg_; }
  [[nodiscard]] SharedHeap& heap() { return heap_; }

  [[nodiscard]] Phase phase() const { return phase_; }
  void set_phase(Phase p) { phase_ = p; }

  /// Registers a parallel work function; returns its work id (standing in
  /// for the translator-generated subroutine pointer in the fork message).
  std::uint64_t register_work(std::function<void(NodeRuntime&)> fn);
  [[nodiscard]] const std::function<void(NodeRuntime&)>& work(std::uint64_t id) const;

  /// Runs `master_program` as node 0's application, with slaves in their
  /// fork-wait loops, until completion.  Returns total virtual time.
  sim::SimDuration run(std::function<void(NodeRuntime&)> master_program);

  /// Aggregate statistics over all nodes.
  [[nodiscard]] PhaseCounters total(Phase p) const;

  /// Per-shard multicast occupancy over the whole run (both phases): the
  /// network's committed frames/bytes plus medium busy time from the
  /// transport.  Size equals the backend's shard count.
  [[nodiscard]] std::vector<HubOccupancy> hub_occupancy() const;

  /// The RSE engine attachment point (one controller per cluster); a
  /// second attachment is a wiring bug and aborts.
  void set_rse_hooks(RseHooks* hooks);
  [[nodiscard]] RseHooks* rse_hooks() const { return rse_hooks_; }

  /// The message-dispatch registry serving every node's request server.
  [[nodiscard]] ProtocolEngine& protocol() { return protocol_; }

  /// The correctness checker, present iff REPSEQ_CHECK (or a test's
  /// chk::ScopedConfig) selected at least one category at construction.
  [[nodiscard]] chk::Checker* checker() const { return checker_.get(); }

  /// The runtime owning the calling fiber (application or dispatcher).
  static NodeRuntime& current();

 private:
  TmkConfig cfg_;
  std::size_t node_count_ = 0;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  SharedHeap heap_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::function<void(NodeRuntime&)>> work_table_;
  ProtocolEngine protocol_;
  std::unique_ptr<chk::Checker> checker_;
  Phase phase_ = Phase::Sequential;
  RseHooks* rse_hooks_ = nullptr;
  bool ran_ = false;
};

}  // namespace repseq::tmk
