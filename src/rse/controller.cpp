#include "rse/controller.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <string>

#include "chk/checker.hpp"
#include "obs/trace.hpp"
#include "tmk/combining_tree.hpp"
#include "util/check.hpp"

namespace repseq::rse {

namespace {
/// CPU cost per valid-notice entry scanned/serialized during the exchange.
constexpr sim::SimDuration kPerEntryCost{120};

using tmk::MsgKind;
using tmk::PageId;
using tmk::PageProt;

/// Track carrying one shard's master rounds: round_in_flight serializes
/// them, so B/E pairs on it always alternate and nest trivially.
const char* shard_track(std::size_t shard) {
  return obs::tracer().intern("rse-round-shard" + std::to_string(shard));
}

/// The owner of the first (owner, interval) pair in which two ascending
/// lists differ (they must differ).
tmk::NodeId first_differing_owner(const std::vector<std::pair<tmk::NodeId, std::uint32_t>>& a,
                                  const std::vector<std::pair<tmk::NodeId, std::uint32_t>>& b) {
  std::size_t k = 0;
  while (k < a.size() && k < b.size() && a[k] == b[k]) ++k;
  if (k == a.size()) return b[k].first;
  if (k == b.size()) return a[k].first;
  return std::min(a[k].first, b[k].first);
}

/// Buffers of `lacked` and of the valid-notice check, kept between calls
/// so that a steady state allocates nothing.
struct DecodeScratch {
  /// Per owner: kNotLacked, kNewestOnly or the lowest lag any thread names.
  std::vector<std::uint32_t> from;
  std::vector<std::pair<tmk::NodeId, std::uint32_t>> lacked;
  std::vector<std::pair<tmk::NodeId, std::uint32_t>> pending;
};
thread_local DecodeScratch scratch;

constexpr std::uint32_t kNotLacked = 0;
constexpr std::uint32_t kNewestOnly = std::numeric_limits<std::uint32_t>::max();

/// Fills `out` with the (owner, interval) pairs of `notices` the `faulting`
/// threads lack, ascending and unique.  Each lacked owner's notices are a
/// suffix of its notices on the page, so the union lacks, per owner, every
/// notice from the lowest lag any thread names, or only the newest when no
/// thread names a lag.  `notices` lists each owner's notices in index
/// order (IntervalLog::page_notices), so the walk runs backwards and stops
/// once every lacked owner has reached its lag or its newest notice: it
/// visits the notices since the oldest one lacked, not the page's history.
void lacked(const std::vector<tmk::IntervalRecordPtr>& notices,
            std::span<const RseController::FaultingThread> faulting,
            std::vector<std::pair<tmk::NodeId, std::uint32_t>>& out) {
  out.clear();
  if (faulting.empty()) return;
  // `from` holds kNotLacked between calls; only the owners an entry names
  // are touched, and reset on the way out.
  std::vector<std::uint32_t>& from = scratch.from;
  const std::size_t nodes = faulting.front().second->owners.size();
  if (from.size() < nodes) from.resize(nodes, kNotLacked);
  std::size_t open = 0;  // lacked owners the walk has not closed yet
  for (const auto& [t, entry] : faulting) {
    entry->owners.for_each([&](tmk::NodeId o) {
      if (from[o] == kNotLacked) {
        from[o] = kNewestOnly;
        ++open;
      }
    });
    for (const auto& [o, oldest] : entry->lags) from[o] = std::min(from[o], oldest);
  }
  for (auto it = notices.rbegin(); it != notices.rend() && open > 0; ++it) {
    const tmk::IntervalRecord& rec = **it;
    const std::uint32_t f = from[rec.owner];
    if (f == kNotLacked) continue;
    if (f == kNewestOnly || rec.index >= f) out.emplace_back(rec.owner, rec.index);
    if (f == kNewestOnly || rec.index <= f) {
      from[rec.owner] = kNotLacked;  // closed: the owner's older notices are not lacked
      --open;
    }
  }
  for (const auto& [t, entry] : faulting) {
    entry->owners.for_each([&](tmk::NodeId o) { from[o] = kNotLacked; });
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}
}  // namespace

RseController::RseController(tmk::Cluster& cluster, FlowControl flow)
    : cluster_(cluster), flow_(flow), state_(cluster.node_count()) {
  const std::size_t shards = cluster.network().hub_shards();
  for (NodeState& st : state_) {
    st.rounds.resize(shards);
    st.exchange = std::make_unique<sim::Channel<net::Message>>(cluster.engine());
  }
  state_[0].shards.resize(shards);
  cluster_.set_rse_hooks(this);
  register_handlers(cluster_.protocol());
}

RseController::RoundState& RseController::round_state(tmk::NodeRuntime& rt, std::size_t shard) {
  return state_[rt.id()].rounds[shard];
}

RseController::MasterShard& RseController::master_shard(std::size_t shard) {
  return state_[0].shards[shard];
}

void RseController::begin_round(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req) {
  if (flow_ == FlowControl::Chained) {
    chain_begin_chained(rt, req);
  } else {
    begin_concurrent(rt, req);
  }
}

tmk::ValidNotice RseController::valid_notice(PageId page,
                                             const std::vector<tmk::IntervalRecordPtr>& pending,
                                             std::size_t nodes) {
  tmk::ValidNotice e{page, tmk::NodeSet(nodes), {}};
  for (const tmk::IntervalRecordPtr& rec : pending) {
    if (!e.owners.contains(rec->owner)) {
      e.owners.insert(rec->owner);
      continue;
    }
    // A second notice of this owner: the entry names its oldest one.
    if (std::none_of(e.lags.begin(), e.lags.end(),
                     [&](const auto& lag) { return lag.first == rec->owner; })) {
      std::uint32_t oldest = rec->index;
      for (const tmk::IntervalRecordPtr& r : pending) {
        if (r->owner == rec->owner) oldest = std::min(oldest, r->index);
      }
      e.lags.emplace_back(rec->owner, oldest);
    }
  }
  std::sort(e.lags.begin(), e.lags.end());
  return e;
}

tmk::ValidNoticesP RseController::local_valid_notices(tmk::NodeRuntime& rt) {
  tmk::ValidNoticesP out{rt.id(), {}};
  for (const auto& [p, notices] : rt.log().page_notice_index()) {
    const tmk::PageState& ps = rt.page(p);
    if (ps.pending.empty()) continue;
    tmk::ValidNotice& e = out.entries.emplace_back(valid_notice(p, ps.pending, rt.node_count()));
    // The entry is exact only if this node's pending notices from each
    // owner are that owner's newest on the page (and every node's log is
    // the one the entry is decoded against, see the replica interval-log
    // oracle).
    const FaultingThread self{rt.id(), &e};
    lacked(notices, {&self, 1}, scratch.lacked);
    scratch.pending.clear();
    for (const tmk::IntervalRecordPtr& r : ps.pending) {
      scratch.pending.emplace_back(r->owner, r->index);
    }
    std::sort(scratch.pending.begin(), scratch.pending.end());
    REPSEQ_CHECK(scratch.lacked == scratch.pending,
                 "the valid notice of node " + std::to_string(rt.id()) + ", page " +
                     std::to_string(p) + " misnames the pending notices of owner " +
                     std::to_string(first_differing_owner(scratch.lacked, scratch.pending)));
  }
  return out;
}

void RseController::enter(tmk::NodeRuntime& rt) {
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().begin(obs::Cat::Rse, cluster_.engine().now(),
                        static_cast<std::int32_t>(rt.id()) + 1, "app", "rse-bracket");
  }
  // "A join before a replicated sequential section behaves like a barrier"
  // (Section 5.2): the master joined every slave before its fork, and the
  // fork carried every record the least-informed slave lacked, so every
  // interval log already equals the master's.  The exchange below aligns
  // the nodes: no body starts before every node has sent its notices.
  NodeState& st = state_[rt.id()];
  const std::size_t n = cluster_.node_count();
  const sim::SimTime t0 = cluster_.engine().now();

  if (n > 1) {
    tmk::ValidNoticeBlocksP subtree{{local_valid_notices(rt)}};
    rt.charge(kPerEntryCost * static_cast<std::int64_t>(subtree.blocks[0].entries.size() + 1));
    // The notices combine up the tree: a node adds its children's blocks
    // to its own and sends its subtree's in one message, so no node
    // receives more than CombiningTree::kFanIn of them.  Its children's
    // arrive before the table, which waits for every block.
    for (std::size_t i = tmk::CombiningTree::children(rt.id(), n); i > 0; --i) {
      const net::Message msg = st.exchange->pop();
      const auto& blocks = msg.as<tmk::ValidNoticeBlocksP>().blocks;
      subtree.blocks.insert(subtree.blocks.end(), blocks.begin(), blocks.end());
    }

    if (rt.is_master()) {
      std::vector<tmk::ValidNoticesP> gathered(n);
      for (tmk::ValidNoticesP& vn : subtree.blocks) gathered[vn.node] = std::move(vn);
      st.table = std::make_shared<const std::vector<tmk::ValidNoticesP>>(std::move(gathered));
      rt.send_multicast(MsgKind::ValidTable, tmk::ValidTableP{st.table});
    } else {
      rt.send_unicast(MsgKind::ValidNotices, tmk::CombiningTree::parent(rt.id()),
                      std::move(subtree));
      st.table = st.exchange->pop().as<tmk::ValidTableP>().per_node;
    }

    // Index the table by page for O(log) per-fault lookups.  Threads are
    // visited in ascending order, so each page's list is sorted.
    for (std::size_t t = 0; t < n; ++t) {
      for (const tmk::ValidNotice& e : (*st.table)[t].entries) {
        st.faulting[e.page].emplace_back(static_cast<net::NodeId>(t), &e);
      }
      rt.charge(kPerEntryCost * static_cast<std::int64_t>((*st.table)[t].entries.size()));
    }
    rt.cpu().flush();
  }
  valid_notice_time_ += cluster_.engine().now() - t0;

  // Write-protect dirty pages so that pre-section modifications are flushed
  // into diffs at the first replicated write (the lazy-diff hazard fix of
  // Section 5.3).
  st.write_protected.assign(rt.twinned_pages().begin(), rt.twinned_pages().end());
  for (PageId p : st.write_protected) rt.page(p).rse_write_protected = true;

  rt.set_in_replicated_section(true);
  if (chk::Checker* c = cluster_.checker()) [[unlikely]] {
    c->on_section_enter(rt, rt.current_site());
  }
}

void RseController::exit(tmk::NodeRuntime& rt) {
  NodeState& st = state_[rt.id()];
  REPSEQ_CHECK(rt.in_replicated_section(), "RSE exit without enter");
  // Digest the section's write set before any post-section state is
  // touched: every replica must have produced identical bytes.
  if (chk::Checker* c = cluster_.checker()) [[unlikely]] {
    c->on_section_exit(rt);
  }

  // Remaining write-protected dirty pages return to their normal state
  // (Section 5.3); their twins still hold the pre-section modifications.
  for (PageId p : st.write_protected) rt.page(p).rse_write_protected = false;
  st.write_protected.clear();
  st.table = nullptr;
  st.faulting.clear();
  rt.set_in_replicated_section(false);  // also drops the round frames still staged

  // "At the fork at the end of a sequential section, threads wait until all
  // other threads have finished...  No memory coherence information is
  // exchanged" (Section 5.2).  That wait is the join the omp layer sends
  // next; no interval closed during the section, so it carries no notices.
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().end(obs::Cat::Rse, cluster_.engine().now(),
                      static_cast<std::int32_t>(rt.id()) + 1, "app");
  }
}

void RseController::retire_rounds(tmk::NodeRuntime& master) {
  for (std::size_t shard = 0; shard < state_[0].shards.size(); ++shard) {
    MasterShard& ms = master_shard(shard);
    ms.queue.clear();
    if (ms.round_in_flight) master_round_finished(master, shard);
  }
}

tmk::WantedByOwner RseController::union_missing(const std::vector<tmk::IntervalRecordPtr>& notices,
                                                const std::vector<FaultingThread>& faulting) {
  lacked(notices, faulting, scratch.lacked);
  tmk::WantedByOwner out;
  for (const auto& [owner, index] : scratch.lacked) {
    if (out.empty() || out.back().first != owner) {
      out.emplace_back(owner, std::vector<std::uint32_t>{});
    }
    out.back().second.push_back(index);
  }
  return out;
}

void RseController::on_fault(tmk::NodeRuntime& rt, PageId page) {
  NodeState& st = state_[rt.id()];
  REPSEQ_CHECK(rt.in_replicated_section(), "RSE fault outside a replicated section");
  tmk::PhaseCounters& c = rt.stats().for_phase(cluster_.phase());
  ++c.page_faults;
  rt.charge(rt.config().fault_overhead);
  rt.cpu().flush();
  const sim::SimTime t0 = cluster_.engine().now();
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().begin(obs::Cat::Rse, t0, static_cast<std::int32_t>(rt.id()) + 1, "app",
                        "rse-fault", {{"page", static_cast<double>(page)}});
  }

  // The lowest-id thread whose table entry shows it will fault requests the
  // page for everyone (Section 5.4.1).
  const auto faulting = st.faulting.find(page);
  const bool i_request =
      faulting != st.faulting.end() && faulting->second.front().first == rt.id();
  if (i_request) {
    tmk::WantedByOwner wanted = union_missing(rt.log().page_notices(page), faulting->second);
    REPSEQ_CHECK(!wanted.empty(), "requester elected with nothing to request");
    ++c.fwd_requests;
    c.fwd_owners += wanted.size();
    if (flow_ == FlowControl::None) {
      // Strawman: the faulting node multicasts its request directly; no
      // serialization at the master, holders reply immediately.
      tmk::McastDiffRequestP req{0, page, rt.id(), std::move(wanted)};
      rt.send_multicast(MsgKind::McastDiffRequest, req, /*group=*/page);
      begin_round(rt, req);
    } else {
      tmk::McastRequestFwdP fwd{page, rt.id(), std::move(wanted)};
      if (rt.is_master()) {
        master_enqueue(rt, std::move(fwd));
      } else {
        rt.send_unicast(MsgKind::McastRequestFwd, 0, std::move(fwd));
      }
    }
  }

  // Everyone missing the page -- the requester included -- blocks until the
  // multicast replies make the local copy valid.  The retry interval backs
  // off exponentially: every waiter that times out asks every owner, and
  // every owner answers with a full multicast, so fixed-interval retries on
  // a slow transport (the serialized forwarding tree above all) inject
  // recovery traffic faster than the wire can drain it -- each salvo delays
  // the very replies the waiters are timing out on, and the storm feeds
  // itself until the retry budget is exhausted.  Doubling the wait lets the
  // backlog drain between salvos while keeping the first retry prompt.
  int attempts = 0;
  sim::SimDuration wait = rt.config().rse_wait_timeout;
  const sim::SimDuration wait_cap{rt.config().rse_wait_timeout.ns * 64};
  while (!rt.wait_page_valid(page, wait)) {
    ++attempts;
    ++c.recoveries;
    if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
      // Backoff level = attempts; wait_ns is the doubled interval the next
      // wait will use -- exactly the retry-storm signature of PR 6.
      obs::tracer().instant(obs::Cat::Rse, cluster_.engine().now(),
                            static_cast<std::int32_t>(rt.id()) + 1, "app", "recovery-retry",
                            {{"page", static_cast<double>(page)},
                             {"attempt", static_cast<double>(attempts)},
                             {"wait_ns", static_cast<double>(wait.ns)}});
    }
    REPSEQ_CHECK(attempts <= rt.config().max_retries,
                 "RSE recovery retries exhausted: " +
                     tmk::stuck_request(rt.id(), page, rt.wanted_for_page(page), attempts, wait));
    recover(rt, page);
    wait = std::min(sim::SimDuration{wait.ns * 2}, wait_cap);
  }
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().end(obs::Cat::Rse, cluster_.engine().now(),
                      static_cast<std::int32_t>(rt.id()) + 1, "app");
  }
  rt.record_fault_round(t0, /*counted_as_request=*/i_request);
}

void RseController::recover(tmk::NodeRuntime& rt, PageId page) {
  // Section 5.4.2: on timeout a thread requests its own missing diffs
  // directly, ignoring the election; the replies are still multicast.
  const tmk::WantedByOwner wanted = rt.wanted_for_page(page);
  for (const auto& [owner, ivs] : wanted) {
    rt.send_unicast(MsgKind::RecoverRequest, owner, tmk::RecoverRequestP{rt.next_req_id(), page, ivs});
  }
}

void RseController::master_enqueue(tmk::NodeRuntime& master, tmk::McastRequestFwdP fwd) {
  const std::size_t shard = shard_for(fwd.page);
  MasterShard& ms = master_shard(shard);
  ms.queue.push_back(tmk::McastDiffRequestP{0, fwd.page, fwd.requester, std::move(fwd.wanted)});
  if (!ms.round_in_flight) master_start_next(master, shard);
}

void RseController::master_start_next(tmk::NodeRuntime& master, std::size_t shard) {
  MasterShard& ms = master_shard(shard);
  if (ms.queue.empty()) {
    ms.round_in_flight = false;
    return;
  }
  ms.round_in_flight = true;
  tmk::McastDiffRequestP req = std::move(ms.queue.front());
  ms.queue.pop_front();
  req.round = ms.next_round_no++;
  ms.active_round = req.round;
  if (chk::Checker* c = cluster_.checker()) [[unlikely]] {
    c->on_round_start(shard, req.round);
  }
  if (flow_ == FlowControl::Windowed) {
    ms.awaiting_replies.clear();
    for (const auto& [owner, _] : req.wanted) ms.awaiting_replies.push_back(owner);
  }
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().begin(obs::Cat::Rse, cluster_.engine().now(), 1, shard_track(shard),
                        "round",
                        {{"round", static_cast<double>(req.round)},
                         {"page", static_cast<double>(req.page)},
                         {"requester", static_cast<double>(req.requester)},
                         {"queued", static_cast<double>(ms.queue.size())}});
  }
  master.send_multicast(MsgKind::McastDiffRequest, req, /*group=*/req.page);
  begin_round(master, req);  // the master never receives its own frame

  // Watchdog: a lost frame stalls the ack chain (and with it this shard's
  // round queue) indefinitely.  If this round is still in flight when the
  // tick lands, the master abandons it -- the faulters repair themselves
  // through the direct-recovery path of Section 5.4.2.
  const std::uint64_t round_no = req.round;
  ms.round_watchdog =
      cluster_.engine().schedule_in(master.config().rse_wait_timeout, [this, round_no, shard] {
        MasterShard& m = master_shard(shard);
        if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
          obs::tracer().instant(obs::Cat::Rse, cluster_.engine().now(), 1, "watchdog",
                                "watchdog-tick",
                                {{"round", static_cast<double>(round_no)},
                                 {"shard", static_cast<double>(shard)},
                                 {"fires", m.round_in_flight && m.active_round == round_no
                                               ? 1.0
                                               : 0.0}});
        }
        if (m.round_in_flight && m.active_round == round_no) {
          cluster_.network().nic(0).inbox().push(tmk::make_message(
              MsgKind::RseRoundTick, 0, 0,
              tmk::RseRoundTickP{round_no, static_cast<std::uint32_t>(shard)}));
        }
      });
}

void RseController::master_round_finished(tmk::NodeRuntime& master, std::size_t shard) {
  MasterShard& ms = master_shard(shard);
  REPSEQ_CHECK(ms.round_in_flight, "round finish without a round");
  // Every round ending -- normal chain/window completion AND watchdog
  // abandonment -- funnels through here, so this one hook closes the
  // at-most-one-in-flight oracle's bracket.
  if (chk::Checker* c = cluster_.checker()) [[unlikely]] {
    c->on_round_finish(shard, ms.active_round);
  }
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().end(obs::Cat::Rse, cluster_.engine().now(), 1, shard_track(shard));
  }
  ms.round_in_flight = false;
  if (ms.round_watchdog) {
    cluster_.engine().cancel(ms.round_watchdog);
    ms.round_watchdog = nullptr;
  }
  master_start_next(master, shard);
}

void RseController::chain_begin_chained(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req) {
  const std::size_t shard = shard_for(req.page);
  RoundState& st = round_state(rt, shard);
  st.round = req.round;
  st.round_page = req.page;
  st.round_wanted = req.wanted;
  st.next_sender = 0;
  // Frames of this round that overtook its request on a non-FIFO transport
  // were parked in early_frames; replay them after the round state is set
  // up.  Everything at or below this round number is settled either way.
  std::set<net::NodeId> replay;
  if (auto it = st.early_frames.find(req.round); it != st.early_frames.end()) {
    replay = std::move(it->second);
  }
  st.early_frames.erase(st.early_frames.begin(), st.early_frames.upper_bound(req.round));
  while (st.next_sender == rt.id()) {
    chain_send_own(rt, shard);
  }
  for (net::NodeId s : replay) {
    chain_observe(rt, shard, s);
  }
  chain_maybe_finish(rt, shard);
}

void RseController::begin_concurrent(tmk::NodeRuntime& rt, const tmk::McastDiffRequestP& req) {
  // Concurrent replies: every holder answers immediately.
  const std::size_t shard = shard_for(req.page);
  RoundState& st = round_state(rt, shard);
  st.round = req.round;
  st.round_page = req.page;
  st.round_wanted = req.wanted;
  const bool i_hold = std::any_of(req.wanted.begin(), req.wanted.end(),
                                  [&](const auto& w) { return w.first == rt.id(); });
  if (i_hold) {
    send_own_frame(rt, shard);
    if (flow_ == FlowControl::Windowed && rt.is_master()) {
      window_retire(rt, shard, rt.id(), req.round);
    }
  }
}

void RseController::send_own_frame(tmk::NodeRuntime& rt, std::size_t shard) {
  RoundState& st = round_state(rt, shard);
  auto it = std::find_if(st.round_wanted.begin(), st.round_wanted.end(),
                         [&](const auto& w) { return w.first == rt.id(); });
  if (it != st.round_wanted.end()) {
    std::vector<tmk::DiffPacket> packets = rt.collect_diffs(st.round_page, it->second);
    rt.send_multicast(MsgKind::McastDiffReply,
                      tmk::McastDiffReplyP{st.round, st.round_page, rt.id(), std::move(packets)},
                      /*group=*/st.round_page);
  } else {
    // "otherwise a null acknowledgment message is sent" (Section 5.4.2).
    rt.send_multicast(MsgKind::McastNullAck, tmk::McastNullAckP{st.round, st.round_page, rt.id()},
                      /*group=*/st.round_page);
  }
}

void RseController::chain_send_own(tmk::NodeRuntime& rt, std::size_t shard) {
  send_own_frame(rt, shard);
  ++round_state(rt, shard).next_sender;
}

void RseController::chain_observe(tmk::NodeRuntime& rt, std::size_t shard, net::NodeId sender) {
  RoundState& st = round_state(rt, shard);
  // On the FIFO hub, frames arrive strictly in thread-id order without
  // loss.  A gap means a lost frame (skip over it; the requester's timeout
  // recovery repairs any missing diffs) or, on a non-FIFO transport such as
  // the multicast tree, frames overtaking each other on paths of different
  // depth.  Either way this node's own slot may be jumped: send its frame
  // late so holders' diffs still reach the group.
  if (sender < st.next_sender) return;  // duplicate or stale
  const bool own_turn_skipped = st.next_sender <= rt.id() && rt.id() < sender;
  st.next_sender = sender + 1;
  if (own_turn_skipped) {
    send_own_frame(rt, shard);
  }
  while (st.next_sender == rt.id()) {
    chain_send_own(rt, shard);
  }
  chain_maybe_finish(rt, shard);
}

void RseController::chain_maybe_finish(tmk::NodeRuntime& rt, std::size_t shard) {
  if (!rt.is_master()) return;
  const RoundState& st = round_state(rt, shard);
  if (st.next_sender < cluster_.node_count()) return;
  // The chain completing is only this round's completion if the master
  // still has it in flight: the watchdog may have abandoned it (and moved
  // on to a successor round, or gone idle) while its late frames were still
  // trickling in -- their diffs apply, but they must not finish someone
  // else's round.
  const MasterShard& ms = master_shard(shard);
  if (ms.round_in_flight && ms.active_round == st.round) {
    master_round_finished(rt, shard);
  }
}

void RseController::window_retire(tmk::NodeRuntime& rt, std::size_t shard, net::NodeId sender,
                                  std::uint64_t round) {
  MasterShard& ms = master_shard(shard);
  // A reply from a watchdog-abandoned round must not shrink the successor
  // round's window.
  if (!ms.round_in_flight || round != ms.active_round) return;
  std::erase(ms.awaiting_replies, sender);
  if (ms.awaiting_replies.empty()) master_round_finished(rt, shard);
}

void RseController::register_handlers(tmk::ProtocolEngine& engine) {
  // ---- handlers common to every flow-control variant ----

  engine.on(MsgKind::ValidNotices, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
    REPSEQ_CHECK(tmk::CombiningTree::parent(msg.src) == rt.id(),
                 "valid notices routed past the combining tree");
    state_[rt.id()].exchange->push(msg);
  });
  engine.on(MsgKind::ValidTable, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
    state_[rt.id()].exchange->push(msg);
  });
  engine.on(MsgKind::McastDiffRequest, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
    begin_round(rt, msg.as<tmk::McastDiffRequestP>());
  });
  engine.on(MsgKind::RecoverRequest, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
    const auto& r = msg.as<tmk::RecoverRequestP>();
    std::vector<tmk::DiffPacket> packets = rt.collect_diffs(r.page, r.intervals);
    rt.send_multicast(MsgKind::McastDiffReply,
                      tmk::McastDiffReplyP{0, r.page, rt.id(), std::move(packets)},
                      /*group=*/r.page);
  });

  // ---- per-variant handler sets ----

  switch (flow_) {
    case FlowControl::Chained:
      engine.on(MsgKind::McastDiffReply, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
        const auto& r = msg.as<tmk::McastDiffReplyP>();
        // Forward, then apply: this node's own frame never depends on the
        // apply (a page pending here had its twin flushed when the notice
        // arrived, and apply_pushed never touches a page held valid), so
        // the chain's next step does not wait for a page's worth of diffs.
        if (r.round != 0) {
          const std::size_t shard = shard_for(r.page);
          RoundState& st = round_state(rt, shard);
          if (r.round == st.round) {
            chain_observe(rt, shard, r.sender);
          } else if (r.round > st.round) {
            // Overtook its own round's request (non-FIFO transport); park
            // for replay when that request arrives.
            st.early_frames[r.round].insert(r.sender);
          }
        }
        rt.apply_pushed(r.packets);
      });
      engine.on(MsgKind::McastNullAck, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
        const auto& a = msg.as<tmk::McastNullAckP>();
        const std::size_t shard = shard_for(a.page);
        RoundState& st = round_state(rt, shard);
        if (a.round == st.round) {
          chain_observe(rt, shard, a.sender);
        } else if (a.round > st.round) {
          st.early_frames[a.round].insert(a.sender);
        }
      });
      break;
    case FlowControl::Windowed:
      engine.on(MsgKind::McastDiffReply, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
        const auto& r = msg.as<tmk::McastDiffReplyP>();
        rt.apply_pushed(r.packets);
        if (r.round != 0 && rt.is_master()) {
          window_retire(rt, shard_for(r.page), r.sender, r.round);
        }
      });
      break;
    case FlowControl::None:
      // No rounds, no acks: replies carry diffs and nothing else.
      engine.on(MsgKind::McastDiffReply, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
        rt.apply_pushed(msg.as<tmk::McastDiffReplyP>().packets);
      });
      break;
  }

  // Round serialization at the master exists only for the variants that
  // forward requests there (Section 5.4.2's protocol and its windowed
  // relaxation); the None strawman multicasts requests directly.
  if (flow_ != FlowControl::None) {
    engine.on(MsgKind::McastRequestFwd, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
      REPSEQ_CHECK(rt.is_master(), "forwarded request routed to non-master");
      master_enqueue(rt, msg.as<tmk::McastRequestFwdP>());
    });
    engine.on(MsgKind::RseRoundTick, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
      REPSEQ_CHECK(rt.is_master(), "round tick on non-master");
      const auto& tick = msg.as<tmk::RseRoundTickP>();
      MasterShard& ms = master_shard(tick.shard);
      if (ms.round_in_flight && ms.active_round == tick.round) {
        if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
          obs::tracer().instant(obs::Cat::Rse, cluster_.engine().now(), 1, "watchdog",
                                "round-abandon",
                                {{"round", static_cast<double>(tick.round)},
                                 {"shard", static_cast<double>(tick.shard)}});
        }
        master_round_finished(rt, tick.shard);
      }
    });
  }
}

}  // namespace repseq::rse
