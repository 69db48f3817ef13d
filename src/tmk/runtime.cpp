#include "tmk/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>

#include "chk/checker.hpp"
#include "obs/trace.hpp"
#include "tmk/combining_tree.hpp"
#include "util/check.hpp"

namespace repseq::tmk {

namespace {
sim::SimDuration per_byte(double ns_per_byte, std::size_t bytes) {
  return sim::SimDuration{static_cast<std::int64_t>(ns_per_byte * static_cast<double>(bytes))};
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeRuntime: construction and trivial accessors
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(Cluster& cluster, NodeId id)
    : cluster_(cluster),
      id_(id),
      cpu_(cluster.engine(), cluster.config().compute_quantum),
      mem_(cluster.config().heap_bytes),
      pages_(cluster.config().heap_bytes / cluster.config().page_bytes),
      log_(cluster.node_count()),
      replies_(cluster.engine()),
      fork_ch_(cluster.engine()),
      depart_ch_(cluster.engine()),
      join_ch_(cluster.engine()) {
  for (PageState& ps : pages_) ps.valid_vc = VectorClock(cluster.node_count());
  if (id_ == 0) {
    slave_known_vc_.assign(cluster.node_count(), VectorClock(cluster.node_count()));
  }
  chk_ = cluster.checker();
}

const TmkConfig& NodeRuntime::config() const { return cluster_.config(); }
std::size_t NodeRuntime::node_count() const { return cluster_.node_count(); }

std::span<std::byte> NodeRuntime::page_span(PageId p) {
  const std::size_t pb = config().page_bytes;
  return {mem_.data() + static_cast<std::size_t>(p) * pb, pb};
}

std::span<const std::byte> NodeRuntime::page_span(PageId p) const {
  const std::size_t pb = config().page_bytes;
  return {mem_.data() + static_cast<std::size_t>(p) * pb, pb};
}

void NodeRuntime::acquire_twin(PageId p) {
  PageState& ps = pages_[p];
  if (!twin_pool_.empty()) {
    ps.twin = std::move(twin_pool_.back());
    twin_pool_.pop_back();
  } else {
    // Uninitialized: the caller memcpys the full page over it immediately.
    ps.twin.reset(new std::byte[config().page_bytes]);
  }
  ps.twin_slot = static_cast<std::uint32_t>(twinned_pages_.size());
  twinned_pages_.push_back(p);
}

void NodeRuntime::release_twin(PageId p) {
  PageState& ps = pages_[p];
  twin_pool_.push_back(std::move(ps.twin));
  // Swap-remove: the list's last page takes over p's slot.
  const PageId moved = twinned_pages_.back();
  twinned_pages_[ps.twin_slot] = moved;
  pages_[moved].twin_slot = ps.twin_slot;
  twinned_pages_.pop_back();
}

// ---------------------------------------------------------------------------
// Access barriers
// ---------------------------------------------------------------------------

void NodeRuntime::read_barrier(GAddr addr, std::size_t bytes) {
  REPSEQ_CHECK(!addr.is_null(), "read through null shared address");
  if (chk_ != nullptr) [[unlikely]] chk_->on_access(*this, addr, bytes, /*write=*/false);
  const std::size_t pb = config().page_bytes;
  const PageId first = page_of(addr, pb);
  const PageId last = page_of(addr + (bytes == 0 ? 0 : bytes - 1), pb);
  for (PageId p = first; p <= last; ++p) {
    if (pages_[p].prot == PageProt::Invalid) {
      if (in_replicated_section_) {
        cluster_.rse_hooks()->on_fault(*this, p);
      } else {
        fault_in_page(p);
      }
    }
  }
}

void NodeRuntime::write_barrier(GAddr addr, std::size_t bytes) {
  REPSEQ_CHECK(!addr.is_null(), "write through null shared address");
  if (chk_ != nullptr) [[unlikely]] chk_->on_access(*this, addr, bytes, /*write=*/true);
  const std::size_t pb = config().page_bytes;
  const PageId first = page_of(addr, pb);
  const PageId last = page_of(addr + (bytes == 0 ? 0 : bytes - 1), pb);
  for (PageId p = first; p <= last; ++p) {
    PageState& ps = pages_[p];
    if (current_site_ != kNoSite && !ps.section_written) {
      ps.section_written = true;
      section_writes_.push_back(p);
    }

    if (in_replicated_section_) {
      // Writes during replicated execution are performed identically by
      // every node; they are never twinned or diffed.  The only special
      // case is the Section 5.3 hazard: a page dirty from *before* the
      // section must flush its pre-section modifications into a diff at
      // the first replicated write.
      if (ps.prot == PageProt::Invalid) cluster_.rse_hooks()->on_fault(*this, p);
      if (ps.rse_write_protected) {
        charge(config().fault_overhead);  // the write-protection trap
        flush_diff(p);
        ps.rse_write_protected = false;
      }
      continue;
    }

    if (ps.prot == PageProt::Writable) {  // fast path, no yield
      REPSEQ_CHECK(ps.has_twin(), "writable page without twin");
      if (!ps.dirty_in_current) {
        ps.dirty_in_current = true;
        current_dirty_.push_back(p);
      }
      continue;
    }

    // Slow path.  Charging compute may yield, and a concurrently-arriving
    // write notice (dispatcher fiber) may invalidate the page meanwhile, so
    // all charges happen before a commit step that never yields.
    charge(config().fault_overhead);
    charge(per_byte(config().twin_ns_per_byte, pb));
    for (;;) {
      if (ps.prot == PageProt::Invalid) {
        fault_in_page(p);
        continue;  // re-examine: state can change across the fault
      }
      if (ps.prot == PageProt::Writable) {
        if (!ps.dirty_in_current) {
          ps.dirty_in_current = true;
          current_dirty_.push_back(p);
        }
        break;
      }
      // ReadOnly: create the twin and commit, yield-free.
      acquire_twin(p);
      std::memcpy(ps.twin.get(), page_span(p).data(), pb);
      ps.prot = PageProt::Writable;
      if (!ps.dirty_in_current) {
        ps.dirty_in_current = true;
        current_dirty_.push_back(p);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Intervals, notices, diffs
// ---------------------------------------------------------------------------

void NodeRuntime::end_interval() {
  cpu_.flush();
  // The shadow happens-before clock advances at EVERY interval end (the
  // protocol clock below only bumps for dirty intervals): read-only epochs
  // must participate in the race detector's order.
  if (chk_ != nullptr) [[unlikely]] chk_->on_release(id_);
  if (current_dirty_.empty()) return;
  const std::uint32_t idx = log_.known(id_) + 1;
  if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Tmk, cluster_.engine().now(),
                          static_cast<std::int32_t>(id_) + 1, "tmk", "interval-commit",
                          {{"idx", static_cast<double>(idx)},
                           {"pages", static_cast<double>(current_dirty_.size())}});
  }
  auto rec = util::make_pooled<IntervalRecord>();
  rec->owner = id_;
  rec->index = idx;
  // The record carries the Lamport sum of the clock it commits under, not
  // the clock: receivers only order diffs by it, and it costs 8 bytes where
  // the clock would cost 4 per node on every record a fork, join, barrier
  // or section broadcast forwards.
  rec->lamport = log_.clock().lamport_sum() + 1;  // the clock once idx is logged
  // Oracle-validation mutation: stamp the interval with its index, so
  // causal order degrades to per-owner order; the interval-stamp oracle
  // must fire at this commit and diff-apply-causality at the first diff
  // that lands ahead of one it follows.
  if (chk::g_test_mutation == chk::Mutation::FlatIntervalStamp) [[unlikely]] rec->lamport = idx;
  rec->pages = current_dirty_;
  log_.insert(rec);  // raises the clock to the one the interval commits under
  if (chk_ != nullptr) [[unlikely]] chk_->on_interval_commit(*this, rec);
  // Oracle-validation mutation: publish a record missing its last write
  // notice.  The checker captured the TRUE write set above; local page
  // state below iterates current_dirty_, so only the published lie differs.
  if (chk::g_test_mutation == chk::Mutation::SuppressWriteNotice && rec->pages.size() > 1)
      [[unlikely]] {
    rec->pages.pop_back();
  }
  for (PageId p : current_dirty_) {
    PageState& ps = pages_[p];
    ps.dirty_in_current = false;
    ps.valid_vc.set(id_, idx);
    if (ps.has_twin()) {
      ps.open_intervals.push_back(idx);
    } else if (own_diffs_.find({p, idx}) == own_diffs_.end()) {
      // The twin was flushed early (mid-interval diff request) and nothing
      // was written afterwards.  The interval's modifications already
      // travelled inside the flushed diff under its closed covers; register
      // an empty diff so requests for this interval are answerable.
      own_diffs_[{p, idx}].push_back(util::make_pooled<RegisteredDiff>(RegisteredDiff{
          next_diff_seq_++, {idx}, util::make_pooled<Diff>()}));
    }
  }
  current_dirty_.clear();
}

void NodeRuntime::apply_notice(const IntervalRecordPtr& rec) {
  if (!log_.insert(rec)) return;  // duplicate
  if (rec->owner == id_) return;  // own records never invalidate locally
  for (PageId p : rec->pages) {
    PageState& ps = pages_[p];
    if (ps.valid_vc.covers(rec->owner, rec->index)) {
      // This copy already incorporates the interval (a previously applied
      // merged diff covered it ahead of the notice's arrival).
      continue;
    }
    if (ps.has_twin()) {
      // Multiple-writer protocol: capture local modifications in a diff
      // before the page is invalidated by a remote notice.
      flush_diff(p);
    }
    ps.prot = PageProt::Invalid;
    ps.pending.push_back(rec);
  }
}

void NodeRuntime::flush_diff(PageId p) {
  PageState& ps = pages_[p];
  if (!ps.has_twin()) return;
  const std::size_t pb = config().page_bytes;

  const sim::SimDuration cost =
      config().diff_create_fixed + per_byte(config().diff_create_ns_per_byte, pb);
  if (on_server()) {
    cpu_.service(cost);
  } else {
    charge(cost);
  }

  DiffPtr diff = util::make_pooled<Diff>(Diff::create({ps.twin.get(), pb}, page_span(p)));

  if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Tmk, cluster_.engine().now(),
                          static_cast<std::int32_t>(id_) + 1, "tmk", "diff-create",
                          {{"page", static_cast<double>(p)},
                           {"wire_bytes", static_cast<double>(diff->wire_bytes())},
                           {"on_server", on_server() ? 1.0 : 0.0}});
  }
  // Coverage rule.  The diff carries every modification since the twin was
  // taken, which may span several *closed* intervals plus a prefix of the
  // still-open one.  It is registered under the closed intervals only: any
  // node that "has" one of those closed intervals can only have gotten it
  // by applying this very diff (a flushed twin never re-opens), so the
  // open-interval prefix always travels with the closed covers and never
  // needs a separate registration.  Registering under the open interval's
  // future index would let a node that already applied this diff re-fetch
  // it later and clobber its own (or third parties') newer writes.
  // Exception: a twin created *inside* the open interval carries only that
  // interval's writes and is registered under its future index.  A page
  // written again before that interval closes gives the interval a second
  // registration, and a request for it is answered with both.
  std::vector<std::uint32_t> covers = ps.open_intervals;
  if (ps.dirty_in_current && covers.empty()) {
    covers.push_back(log_.known(id_) + 1);
  }
  REPSEQ_CHECK(!covers.empty(), "twin with no covered intervals");
  auto rd = util::make_pooled<RegisteredDiff>(
      RegisteredDiff{next_diff_seq_++, covers, std::move(diff)});
  for (std::uint32_t i : covers) {
    own_diffs_[{p, i}].push_back(rd);
  }
  ps.open_intervals.clear();
  release_twin(p);
  if (ps.prot == PageProt::Writable) {
    ps.prot = PageProt::ReadOnly;  // next write re-twins
  }
}

std::vector<DiffPacket> NodeRuntime::collect_diffs(PageId page,
                                                   const std::vector<std::uint32_t>& intervals) {
  PageState& ps = pages_[page];
  // A requested interval whose modifications are (partly) still under the
  // twin must be flushed first, or the frozen batch would miss its suffix.
  if (ps.has_twin()) {
    const bool twin_covers_request =
        std::any_of(intervals.begin(), intervals.end(), [&](std::uint32_t i) {
          return std::find(ps.open_intervals.begin(), ps.open_intervals.end(), i) !=
                 ps.open_intervals.end();
        });
    if (twin_covers_request) flush_diff(page);
  }
  // Answer each registered batch once, carrying its FULL covers so the
  // receiver can recognize batches it has already applied.  A registration
  // listed under several requested intervals appears once, in seq order.
  std::vector<DiffPacket> out;
  out.reserve(intervals.size());
  for (std::uint32_t i : intervals) {
    auto it = own_diffs_.find({page, i});
    REPSEQ_CHECK(it != own_diffs_.end(),
                 "diff requested for unknown interval " + std::to_string(i) + " of page " +
                     std::to_string(page));
    for (const RegisteredDiffPtr& rd : it->second) out.push_back({id_, page, rd});
  }
  std::sort(out.begin(), out.end(),
            [](const DiffPacket& a, const DiffPacket& b) { return a.seq() < b.seq(); });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const DiffPacket& a, const DiffPacket& b) { return a.reg == b.reg; }),
            out.end());
  return out;
}

void NodeRuntime::causal_order(const IntervalLog& log, const std::vector<DiffPacket>& pkts,
                               std::vector<CausalKey>& keys) {
  keys.clear();
  for (std::size_t pos = 0; pos < pkts.size(); ++pos) {
    const DiffPacket& pkt = pkts[pos];
    // Covers can extend past this node's log (a batch may be frozen through
    // intervals whose notices have not reached us yet); key on the newest
    // cover we know about.
    const std::uint32_t known = log.known(pkt.owner);
    std::uint32_t newest = 0;
    for (std::uint32_t i : pkt.covers()) {
      if (i <= known) newest = std::max(newest, i);
    }
    REPSEQ_CHECK(newest > 0, "diff batch with no locally-known cover");
    keys.push_back({log.get(pkt.owner, newest).lamport, pkt.seq(), pkt.owner,
                    static_cast<std::uint32_t>(pos)});
  }
  std::sort(keys.begin(), keys.end(), [](const CausalKey& a, const CausalKey& b) {
    return std::tie(a.lamport, a.owner, a.seq, a.pos) < std::tie(b.lamport, b.owner, b.seq, b.pos);
  });
}

void NodeRuntime::apply_packets_causally(std::vector<DiffPacket> pkts) {
  // Causal order: by the Lamport projection of the newest covered interval.
  // Data-race-free programs order same-word writers totally, so the writer
  // whose interval is causally latest must land last.
  //
  // The reused buffers are taken for the whole call: the cost charge below
  // can yield, and a batch applied on this node's other fiber meanwhile
  // then grows buffers of its own instead of clobbering these.
  std::vector<CausalKey> order = std::exchange(order_buffer_, {});
  std::vector<NoticeKey> satisfied = std::exchange(satisfied_buffer_, {});
  causal_order(log_, pkts, order);
  // Oracle-validation mutation: undo the causal sort (the PR 4 bug class);
  // the diff-apply-causality oracle must fire on the first stale apply.
  if (chk::g_test_mutation == chk::Mutation::ReorderDiffApply && order.size() > 1) [[unlikely]] {
    std::reverse(order.begin(), order.end());
  }
  satisfied.clear();
  std::size_t applied = 0;
  std::size_t bytes = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const DiffPacket& pkt = pkts[order[k].pos];
    // A registration listed twice (a multicast frame delivered again by
    // recovery) sorts next to itself; it lands and is charged once.
    if (k > 0 && pkt.reg == pkts[order[k - 1].pos].reg) continue;
    const std::uint32_t oldest = *std::min_element(pkt.covers().begin(), pkt.covers().end());
    // Batch guard: if this copy's validity reached the packet's oldest
    // interval before this batch, this exact frozen batch was applied here
    // before.  Re-applying it would overwrite every write that landed since
    // (local writes and other owners' diffs) with the batch's stale image.
    // The notices it satisfies are still cleared below.  Validity rises
    // after the loop, so an interval's second registration for the page
    // (see flush_diff) lands too.
    if (pages_[pkt.page].valid_vc.at(pkt.owner) < oldest) {
      // The oracle must see the notices pending as this packet lands: the
      // page's list minus what earlier packets of the batch satisfied.
      if (chk_ != nullptr) [[unlikely]] chk_->on_diff_apply(*this, pkt, satisfied);
      pkt.diff().apply(page_span(pkt.page));
    }
    for (std::uint32_t i : pkt.covers()) satisfied.push_back({pkt.page, pkt.owner, i});
    ++applied;
    bytes += pkt.wire_bytes();
  }
  // Raise each touched page's validity to the newest cover applied per
  // owner and clear its satisfied pending notices, one pass per page
  // (sorted, `satisfied` groups each page's covers into one run, each
  // owner's ascending).  Both happen before the charge, which can yield.
  std::sort(satisfied.begin(), satisfied.end());
  for (auto run = satisfied.begin(); run != satisfied.end();) {
    const PageId p = run->page;
    const auto end = std::find_if(run, satisfied.end(),
                                  [p](const NoticeKey& k) { return k.page != p; });
    PageState& ps = pages_[p];
    for (auto k = run; k != end; ++k) {
      const bool owner_newest = k + 1 == end || (k + 1)->owner != k->owner;
      if (owner_newest && k->index > ps.valid_vc.at(k->owner)) ps.valid_vc.set(k->owner, k->index);
    }
    std::erase_if(ps.pending, [&](const IntervalRecordPtr& r) {
      return std::binary_search(run, end, NoticeKey{p, r->owner, r->index});
    });
    run = end;
  }
  if (obs::enabled(obs::Cat::Tmk) && applied > 0) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Tmk, cluster_.engine().now(),
                          static_cast<std::int32_t>(id_) + 1, "tmk", "diff-apply",
                          {{"packets", static_cast<double>(applied)},
                           {"bytes", static_cast<double>(bytes)},
                           {"on_server", on_server() ? 1.0 : 0.0}});
  }
  const sim::SimDuration cost = config().diff_apply_fixed * static_cast<std::int64_t>(applied) +
                                per_byte(config().diff_apply_ns_per_byte, bytes);
  if (on_server()) {
    cpu_.service(cost);
  } else {
    charge(cost);
    cpu_.flush();
  }
  for (std::size_t k = 0; k < satisfied.size(); ++k) {
    if (k > 0 && satisfied[k].page == satisfied[k - 1].page) continue;
    const PageId p = satisfied[k].page;
    PageState& ps = pages_[p];
    if (ps.pending.empty() && ps.prot == PageProt::Invalid) {
      ps.prot = PageProt::ReadOnly;
      if (chk_ != nullptr) [[unlikely]] chk_->on_page_revalidate(*this, p);
      notify_page_valid(p);
    }
  }
  order_buffer_ = std::move(order);
  satisfied_buffer_ = std::move(satisfied);
}

void NodeRuntime::apply_pushed(const std::vector<DiffPacket>& pkts) {
  // Pushed packets arrive in send order, not causal order: a round's frames
  // come in chain (node-id) order, and a page can owe an older third-party
  // notice (say, another slave's pre-section writes) that a broadcast does
  // not carry.  Applying a page's packets before all of its pending notices
  // are covered would let an older diff, landing later, clobber the newer
  // data: silent replica divergence.  A page that completes partway through
  // the call still takes the call's later packets for it (an interval's
  // second registration, see flush_diff).
  bool completed = false;
  for (const DiffPacket& pkt : pkts) {
    const auto& pending = pages_[pkt.page].pending;
    // Never touch a page this node already holds valid: its replicated
    // writes may have moved it past the image these diffs carry.
    if (pending.empty()) {
      staged_.erase(pkt.page);  // validated meanwhile: what it staged is stale
      continue;
    }
    auto [it, inserted] = staged_.try_emplace(pkt.page);
    StagedPage& sp = it->second;
    if (inserted) {
      // A page's packets usually number its pending notices: one
      // reservation instead of regrowth as they arrive.
      sp.packets.reserve(pending.size());
      sp.needed.reserve(pending.size());
      for (const IntervalRecordPtr& r : pending) sp.needed.push_back({{r->owner, r->index}});
      std::sort(sp.needed.begin(), sp.needed.end(),
                [](const auto& a, const auto& b) { return a.id < b.id; });
      sp.remaining = sp.needed.size();
    }
    sp.packets.push_back(pkt);  // a duplicate lands once (apply_packets_causally)
    for (std::uint32_t i : pkt.covers()) {
      const std::pair<NodeId, std::uint32_t> id{pkt.owner, i};
      const auto nit = std::lower_bound(sp.needed.begin(), sp.needed.end(), id,
                                        [](const auto& n, const auto& k) { return n.id < k; });
      if (nit != sp.needed.end() && nit->id == id && !nit->covered) {
        nit->covered = true;
        if (--sp.remaining == 0) completed = true;
      }
    }
  }
  if (!completed) return;
  // Completed pages leave the stage before the batch applies: the apply can
  // yield, and the stage may be dropped meanwhile (section exit).  A second
  // walk over the call's packets finds them, so no list of them is kept.
  std::vector<DiffPacket> batch;
  for (const DiffPacket& pkt : pkts) {
    const auto it = staged_.find(pkt.page);
    if (it == staged_.end() || it->second.remaining > 0) continue;
    if (batch.empty()) {
      batch = std::move(it->second.packets);  // a round frame completes one page
    } else {
      batch.insert(batch.end(), std::make_move_iterator(it->second.packets.begin()),
                   std::make_move_iterator(it->second.packets.end()));
    }
    staged_.erase(it);
  }
  apply_packets_causally(std::move(batch));
}

std::string stuck_request(NodeId node, PageId page, const WantedByOwner& outstanding,
                          int attempts, sim::SimDuration timeout) {
  char timeout_ms[32];
  std::snprintf(timeout_ms, sizeof timeout_ms, "%.3f", timeout.millis());
  std::string out = "node ";
  out += std::to_string(node);
  out += ", page ";
  out += std::to_string(page);
  out += ", ";
  out += std::to_string(attempts);
  out += " attempts timed out (timeout ";
  out += timeout_ms;
  out += " ms); outstanding servers:";
  for (const auto& [server, ivs] : outstanding) {
    out += ' ';
    out += std::to_string(server);
    out += " (intervals";
    for (std::uint32_t i : ivs) {
      out += ' ';
      out += std::to_string(i);
    }
    out += ')';
  }
  return out;
}

WantedByOwner NodeRuntime::wanted_for_page(PageId p) const {
  std::map<NodeId, std::vector<std::uint32_t>> grouped;
  for (const IntervalRecordPtr& rec : pages_[p].pending) {
    grouped[rec->owner].push_back(rec->index);
  }
  WantedByOwner out;
  out.reserve(grouped.size());
  for (auto& [owner, ivs] : grouped) {
    std::sort(ivs.begin(), ivs.end());
    out.emplace_back(owner, std::move(ivs));
  }
  return out;
}

void NodeRuntime::record_fault_round(sim::SimTime start, bool counted_as_request) {
  PhaseCounters& c = stats_.for_phase(cluster_.phase());
  const sim::SimDuration dt = cluster_.engine().now() - start;
  c.response_ms.add(dt.millis());
  c.fault_wait += dt;
  if (counted_as_request) ++c.diff_requests;
}

void NodeRuntime::fault_in_page(PageId p) {
  PageState& ps = pages_[p];
  REPSEQ_CHECK(ps.prot == PageProt::Invalid, "fault on valid page");
  REPSEQ_CHECK(!ps.pending.empty(), "invalid page without pending notices");

  PhaseCounters& c = stats_.for_phase(cluster_.phase());
  ++c.page_faults;
  charge(config().fault_overhead);
  cpu_.flush();
  const sim::SimTime t0 = cluster_.engine().now();
  if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
    obs::tracer().begin(obs::Cat::Tmk, t0, static_cast<std::int32_t>(id_) + 1, "app",
                        "page-fault",
                        {{"page", static_cast<double>(p)},
                         {"pending", static_cast<double>(ps.pending.size())}});
  }

  // Outer loop: in rare interleavings a new write notice arrives while the
  // fetched diffs are being applied; the page is then still invalid and the
  // missing diffs are fetched in another pass (all within this one fault).
  while (ps.prot == PageProt::Invalid) {
    const WantedByOwner wanted = wanted_for_page(p);
    const std::uint64_t req_id = next_req_id();
    auto& slot = expect_replies(req_id);

    std::set<NodeId> outstanding;
    auto unanswered = [&] {
      WantedByOwner out;
      for (const auto& w : wanted) {
        if (outstanding.contains(w.first)) out.push_back(w);
      }
      return out;
    };
    auto send_requests = [&](const std::set<NodeId>& to) {
      for (const auto& [owner, ivs] : wanted) {
        if (!to.contains(owner)) continue;
        REPSEQ_CHECK(owner != id_, "pending notice from self");
        send_unicast(MsgKind::DiffRequest, owner, DiffRequestP{req_id, p, ivs});
      }
    };
    for (const auto& [owner, _] : wanted) outstanding.insert(owner);
    send_requests(outstanding);

    std::vector<DiffPacket> collected;
    int retries = 0;
    while (!outstanding.empty()) {
      auto msg = slot.pop_with_timeout(config().request_timeout);
      if (!msg) {
        ++retries;
        ++c.recoveries;
        if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
          obs::tracer().instant(obs::Cat::Tmk, cluster_.engine().now(),
                                static_cast<std::int32_t>(id_) + 1, "app", "fault-retry",
                                {{"page", static_cast<double>(p)},
                                 {"retry", static_cast<double>(retries)},
                                 {"outstanding", static_cast<double>(outstanding.size())}});
        }
        REPSEQ_CHECK(retries <= config().max_retries,
                     "diff request retries exhausted: " +
                         stuck_request(id_, p, unanswered(), retries, config().request_timeout));
        send_requests(outstanding);
        continue;
      }
      const auto& reply = msg->as<DiffReplyP>();
      if (!outstanding.erase(msg->src)) continue;  // duplicate after retransmit
      for (const DiffPacket& pkt : reply.packets) collected.push_back(pkt);
    }
    drop_reply_slot();
    apply_packets_causally(std::move(collected));
  }
  if (obs::enabled(obs::Cat::Tmk)) [[unlikely]] {
    obs::tracer().end(obs::Cat::Tmk, cluster_.engine().now(),
                      static_cast<std::int32_t>(id_) + 1, "app");
  }
  record_fault_round(t0, /*counted_as_request=*/true);
}

// ---------------------------------------------------------------------------
// Send helpers
// ---------------------------------------------------------------------------

void NodeRuntime::send_raw_unicast(net::Message msg) {
  const auto& ncfg = cluster_.network().config();
  const std::size_t wire = ncfg.wire_bytes(msg.payload_bytes);
  PhaseCounters& c = stats_.for_phase(cluster_.phase());
  // Diff traffic is counted per *logical* protocol message at its standalone
  // wire size, synchronously: the adaptive policy engine consumes these as
  // transport-invariant aftermath measures, so they must not vary with the
  // coalescing window.  Wire frames/bytes, by contrast, follow the wire:
  // they are charged by the commit callback below, which under a coalescing
  // backend fires at the window flush with this send's share of the
  // combined frame (frames may be 0 for a send that rode another's frame).
  if (is_diff_traffic(kind_of(msg))) {
    ++c.diff_msgs_sent;
    c.diff_bytes_sent += wire;
  }
  if (on_server()) {
    cpu_.service(ncfg.send_overhead);
  } else {
    cpu_.flush();
    cpu_.compute(ncfg.send_overhead);
  }
  cluster_.network().unicast(std::move(msg), [&c](std::size_t frames, std::size_t bytes) {
    c.msgs_sent += frames;
    c.bytes_sent += bytes;
  });
}

void NodeRuntime::send_raw_multicast(net::Message msg) {
  net::Network& nw = cluster_.network();
  const auto& ncfg = nw.config();
  const MsgKind kind = kind_of(msg);
  // The sending CPU pays software send overhead per frame it transmits
  // itself (one on the hub; its own children on the tree; every frame in
  // the fan-out strawman).  Receiver-side loss never refunds CPU time.
  const auto sender_frames = static_cast<std::int64_t>(nw.multicast_sender_frames());
  if (on_server()) {
    cpu_.service(ncfg.send_overhead * sender_frames);
  } else {
    cpu_.flush();
    cpu_.compute(ncfg.send_overhead * sender_frames);
  }
  if (kind == MsgKind::McastNullAck) ++stats_.for_phase(cluster_.phase()).null_acks_sent;
  // Wire accounting follows the backend, frame by frame as hops commit:
  // the event-driven tree transmits interior hops from deferred forwarding
  // events (and a lost frame prunes its whole subtree uncharged), so the
  // charge lands through a callback instead of a synchronous count.  Each
  // frame is attributed to the phase of the *send*, whose traffic it is,
  // even if it commits after a phase flip.
  PhaseCounters& c = stats_.for_phase(cluster_.phase());
  const bool diff = is_diff_traffic(kind);
  nw.multicast(std::move(msg), [&c, diff](std::size_t frames, std::size_t bytes) {
    c.msgs_sent += frames;
    c.bytes_sent += bytes;
    if (diff) {
      c.diff_msgs_sent += frames;
      c.diff_bytes_sent += bytes;
    }
  });
}

// ---------------------------------------------------------------------------
// Reply routing and page-valid waiting
// ---------------------------------------------------------------------------

sim::Channel<net::Message>& NodeRuntime::expect_replies(std::uint64_t req_id) {
  REPSEQ_CHECK(reply_req_ == 0, "a second request outstanding on one node");
  reply_req_ = req_id;
  return replies_;
}

void NodeRuntime::drop_reply_slot() {
  reply_req_ = 0;
  while (!replies_.empty()) (void)replies_.pop();
}

void NodeRuntime::route_reply(std::uint64_t req_id, const net::Message& msg) {
  if (req_id == reply_req_) replies_.push(msg);  // ids start at 1, so 0 matches none
}

void NodeRuntime::notify_page_valid(PageId p) {
  if (page_waiter_ == nullptr || waited_page_ != p) return;
  page_waiter_->signal();
  page_waiter_ = nullptr;
}

bool NodeRuntime::wait_page_valid(PageId p, sim::SimDuration timeout) {
  if (pages_[p].prot != PageProt::Invalid) return true;
  REPSEQ_CHECK(page_waiter_ == nullptr, "two fibers wait for a page on one node");
  sim::WaitToken tok(cluster_.engine());
  waited_page_ = p;
  page_waiter_ = &tok;
  (void)tok.wait(timeout);
  page_waiter_ = nullptr;  // already cleared unless the timeout fired first
  return pages_[p].prot != PageProt::Invalid;
}

// ---------------------------------------------------------------------------
// Synchronization: barriers
// ---------------------------------------------------------------------------

void NodeRuntime::merge_sync_payload(NodeId from, const std::vector<IntervalRecordPtr>& records) {
  for (const IntervalRecordPtr& rec : records) apply_notice(rec);
  // A slave's join or arrival carries its own records after the newest the
  // master held, so the newest of them completes what the master knew of it.
  if (is_master() && !records.empty()) slave_known_vc_[from].set(from, records.back()->index);
  if (chk_ != nullptr) [[unlikely]] chk_->on_sync_merge(*this, from);
}

void NodeRuntime::barrier(std::uint32_t barrier_id) {
  end_interval();
  if (node_count() == 1) return;
  const std::uint64_t seq =
      (static_cast<std::uint64_t>(barrier_id) << 32) | barrier_epochs_[barrier_id]++;
  if (is_master()) {
    BarrierGroup& g = barriers_[seq];
    g.master_arrived = true;
    barrier_complete_if_ready(seq);
    auto it = barriers_.find(seq);
    if (it != barriers_.end()) {
      sim::WaitToken tok(cluster_.engine());
      it->second.master_waiter = &tok;
      tok.wait();
    }
  } else {
    BarrierArriveP arr{seq, log_.records_of(id_, own_sent_)};
    own_sent_ = log_.known(id_);  // before the send, as at a join
    if (chk_ != nullptr) [[unlikely]] {
      arr.chk = chk_->shadow(id_);
      chk_->on_sync_send(*this, 0);
    }
    send_unicast(MsgKind::BarrierArrive, 0, std::move(arr));
    net::Message msg = depart_ch_.pop();
    const auto& d = msg.as<BarrierDepartP>();
    REPSEQ_CHECK(d.barrier_seq == seq, "barrier sequence mismatch");
    merge_sync_payload(0, d.records);
    if (chk_ != nullptr) [[unlikely]] chk_->on_acquire(id_, d.chk);
  }
}

void NodeRuntime::handle_barrier_arrive(const net::Message& msg) {
  const auto& a = msg.as<BarrierArriveP>();
  BarrierGroup& g = barriers_[a.barrier_seq];
  merge_sync_payload(msg.src, a.records);
  // Shadow clocks must NOT merge here: the dispatcher handles arrivals in
  // the middle of the master's epoch, and an eager merge would falsely
  // order slave writes before the master's in-progress accesses.  Buffer,
  // merge at completion (below), which is the real acquire edge.
  if (chk_ != nullptr) [[unlikely]] chk_->buffer_barrier_arrival(a.barrier_seq, a.chk);
  g.waiters.push_back(msg.src);
  barrier_complete_if_ready(a.barrier_seq);
}

void NodeRuntime::barrier_complete_if_ready(std::uint64_t barrier_seq) {
  auto it = barriers_.find(barrier_seq);
  REPSEQ_CHECK(it != barriers_.end(), "unknown barrier");
  BarrierGroup& g = it->second;
  if (!g.master_arrived || g.waiters.size() != node_count() - 1) return;
  if (chk_ != nullptr) [[unlikely]] chk_->on_barrier_complete(barrier_seq);

  // Departures are sent, then the group is destroyed, so a late lookup by a
  // next-epoch arrival cannot confuse this (already keyed) group.
  for (NodeId slave : g.waiters) {
    BarrierDepartP dep{barrier_seq, log_.records_after(slave_known_vc_[slave])};
    // What the slave will know is recorded before the send, which yields:
    // the dispatcher may merge a next-epoch arrival from a slave already
    // departed, and the clock after that merge is more than `dep` carries.
    slave_known_vc_[slave] = vc();
    if (chk_ != nullptr) [[unlikely]] {
      dep.chk = chk_->shadow(id_);
      chk_->on_sync_send(*this, slave);
    }
    send_unicast(MsgKind::BarrierDepart, slave, std::move(dep));
  }
  sim::WaitToken* waiter = g.master_waiter;
  barriers_.erase(it);
  if (waiter != nullptr) waiter->signal();
}

// ---------------------------------------------------------------------------
// Fork / join and the section broadcast
// ---------------------------------------------------------------------------

std::vector<IntervalRecordPtr> NodeRuntime::records_some_slave_lacks() const {
  VectorClock least = slave_known_vc_[1];
  for (NodeId s = 2; s < node_count(); ++s) {
    for (NodeId o = 0; o < node_count(); ++o) {
      least.set(o, std::min(least.at(o), slave_known_vc_[s].at(o)));
    }
  }
  return log_.records_after(least);
}

void NodeRuntime::fork(std::uint64_t work_id, Phase phase) {
  REPSEQ_CHECK(is_master(), "fork from non-master");
  end_interval();
  cluster_.set_phase(phase);
  if (node_count() == 1) return;
  std::vector<IntervalRecordPtr> lacked = records_some_slave_lacks();
  if (phase == Phase::Parallel && !lacked.empty()) {
    // A parallel region that hands out write notices keeps TreadMarks'
    // fork: one unicast per slave, carrying only what that slave lacks.
    for (NodeId s = 1; s < node_count(); ++s) {
      ForkP f{work_id, phase, log_.records_after(slave_known_vc_[s])};
      // Recorded before the send, which yields: a slave forked earlier may
      // reach a barrier meanwhile, and its merged arrival is not in `f`.
      slave_known_vc_[s] = vc();
      if (chk_ != nullptr) [[unlikely]] {
        f.chk = chk_->shadow(id_);
        chk_->on_sync_send(*this, s);
      }
      send_unicast(MsgKind::Fork, s, std::move(f));
    }
    return;
  }
  // A replicated section hands every slave the same work, so its fork is
  // one multicast.  It carries every record the least-informed slave
  // lacks; a better-informed slave drops the duplicates on arrival.  A
  // parallel region whose slaves lack no record, as after a replicated
  // section or a section broadcast, sends every slave the same empty fork:
  // one multicast too, since "no memory coherence information is
  // exchanged" there (paper Section 5.2).
  ForkP f{work_id, phase, std::move(lacked)};
  // Oracle-validation mutation: withhold the last record; the
  // replica-interval-log oracle must fire at section entry.
  if (chk::g_test_mutation == chk::Mutation::TruncateSectionFork && !f.records.empty())
      [[unlikely]] {
    f.records.pop_back();
  }
  for (NodeId s = 1; s < node_count(); ++s) slave_known_vc_[s].max_with(vc());  // before the send
  if (chk_ != nullptr) [[unlikely]] {
    f.chk = chk_->shadow(id_);
    for (NodeId s = 1; s < node_count(); ++s) chk_->on_sync_send(*this, s);
  }
  send_multicast(MsgKind::Fork, std::move(f));
}

void NodeRuntime::merge_joins(std::size_t joins) {
  for (std::size_t i = 0; i < joins; ++i) {
    net::Message msg = join_ch_.pop();
    const auto& j = msg.as<JoinP>();
    merge_sync_payload(msg.src, j.records);
    if (chk_ != nullptr) [[unlikely]] chk_->on_acquire(id_, j.chk);
  }
}

void NodeRuntime::join_master() {
  REPSEQ_CHECK(is_master(), "join_master from non-master");
  end_interval();
  // A replicated section's joins combine up the tree (see slave_loop): the
  // master hears from its children, each speaking for its subtree.
  merge_joins(cluster_.phase() == Phase::Sequential ? CombiningTree::children(id_, node_count())
                                                    : node_count() - 1);
  cluster_.set_phase(Phase::Sequential);
}

void NodeRuntime::slave_loop() {
  for (;;) {
    net::Message msg = fork_ch_.pop();  // parks forever once the program ends
    const auto& f = msg.as<ForkP>();
    merge_sync_payload(0, f.records);
    if (chk_ != nullptr) [[unlikely]] chk_->on_acquire(id_, f.chk);
    cluster_.work(f.work_id)(*this);
    end_interval();
    // The join closing a replicated section combines up the tree: it
    // leaves once the node's children have joined, so it speaks for the
    // subtree.  It carries no record (no interval closes in the section),
    // so every notice a slave learns still comes from the master.
    NodeId parent = 0;
    if (f.phase == Phase::Sequential) {
      merge_joins(CombiningTree::children(id_, node_count()));
      parent = CombiningTree::parent(id_);
    }
    JoinP join{log_.records_of(id_, own_sent_)};
    // Oracle-validation mutation: withhold the slave's newest record; the
    // sync-clock oracle must fire when the master merges the join.
    if (chk::g_test_mutation == chk::Mutation::WithholdJoinRecord && !join.records.empty())
        [[unlikely]] {
      join.records.pop_back();
    }
    REPSEQ_CHECK(f.phase != Phase::Sequential || join.records.empty(),
                 "node " + std::to_string(id_) + " closed an interval in a replicated section");
    own_sent_ = log_.known(id_);  // before the send, as the master's fork loop does
    if (chk_ != nullptr) [[unlikely]] {
      join.chk = chk_->shadow(id_);
      chk_->on_sync_send(*this, parent);
    }
    send_unicast(MsgKind::Join, parent, std::move(join));
  }
}

void NodeRuntime::broadcast_section() {
  REPSEQ_CHECK(is_master(), "section broadcast must run on the master");
  const std::uint32_t before = log_.known(id_);
  end_interval();
  const std::size_t n = node_count();
  if (n == 1) return;

  // Receivers must get contiguous notice streams, so the broadcast carries
  // every record the least-informed slave might lack (duplicates are
  // dropped on arrival); diffs are attached only for the section's own
  // interval -- the "data modified during the sequential execution".  The
  // record lists each page once, so no registration repeats.
  std::vector<IntervalRecordPtr> records = records_some_slave_lacks();

  std::vector<DiffPacket> packets;
  if (const std::uint32_t section = log_.known(id_); section > before) {
    for (PageId p : log_.get(id_, section).pages) {
      for (DiffPacket& pkt : collect_diffs(p, {section})) packets.push_back(std::move(pkt));
    }
  }
  if (records.empty() && packets.empty()) return;

  const std::uint64_t req_id = next_req_id();
  auto& slot = expect_replies(req_id);
  for (NodeId s = 1; s < n; ++s) slave_known_vc_[s].max_with(vc());  // before the send, as a fork's
  send_multicast(MsgKind::BcastUpdate, BcastUpdateP{req_id, std::move(records), std::move(packets)});
  for (std::size_t i = 1; i < n; ++i) {
    (void)slot.pop();  // one BcastAck per slave
  }
  drop_reply_slot();
}

// ---------------------------------------------------------------------------
// Dispatcher (request server)
// ---------------------------------------------------------------------------

void NodeRuntime::dispatcher_loop() {
  auto& inbox = cluster_.network().nic(id_).inbox();
  const auto& ncfg = cluster_.network().config();
  for (;;) {
    net::Message msg = inbox.pop();
    cpu_.service(ncfg.recv_overhead);
    handle_message(msg);
  }
}

void NodeRuntime::handle_message(const net::Message& msg) {
  REPSEQ_CHECK(cluster_.protocol().dispatch(*this, msg),
               "unhandled message kind " + std::to_string(msg.kind));
}

void NodeRuntime::register_base_protocol(ProtocolEngine& engine) {
  engine.on(MsgKind::DiffRequest, [](NodeRuntime& rt, const net::Message& msg) {
    rt.handle_diff_request(msg);
  });
  engine.on(MsgKind::DiffReply, [](NodeRuntime& rt, const net::Message& msg) {
    rt.route_reply(msg.as<DiffReplyP>().req_id, msg);
  });
  engine.on(MsgKind::BarrierArrive, [](NodeRuntime& rt, const net::Message& msg) {
    rt.handle_barrier_arrive(msg);
  });
  engine.on(MsgKind::BarrierDepart, [](NodeRuntime& rt, const net::Message& msg) {
    rt.depart_ch_.push(msg);
  });
  engine.on(MsgKind::Fork, [](NodeRuntime& rt, const net::Message& msg) {
    rt.fork_ch_.push(msg);
  });
  engine.on(MsgKind::Join, [](NodeRuntime& rt, const net::Message& msg) {
    rt.join_ch_.push(msg);
  });
  engine.on(MsgKind::BcastUpdate, [](NodeRuntime& rt, const net::Message& msg) {
    // Section broadcast (broadcast_section): log and invalidate the
    // notices, then land the diffs as pushed diffs.  A page the message
    // leaves incomplete stays invalid, and the pull path fetches every
    // pending diff together, causally ordered.
    const auto& u = msg.as<BcastUpdateP>();
    for (const IntervalRecordPtr& rec : u.records) rt.apply_notice(rec);
    rt.apply_pushed(u.packets);
    rt.staged_.clear();
    rt.send_unicast(MsgKind::BcastAck, msg.src, BcastAckP{u.req_id});
  });
  engine.on(MsgKind::BcastAck, [](NodeRuntime& rt, const net::Message& msg) {
    rt.route_reply(msg.as<BcastAckP>().req_id, msg);
  });
}

void NodeRuntime::handle_diff_request(const net::Message& msg) {
  const auto& r = msg.as<DiffRequestP>();
  std::vector<DiffPacket> packets = collect_diffs(r.page, r.intervals);
  send_unicast(MsgKind::DiffReply, msg.src, DiffReplyP{r.req_id, r.page, std::move(packets)});
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(TmkConfig cfg, net::NetConfig net_cfg, std::size_t nodes)
    : cfg_(cfg), node_count_(nodes), heap_(cfg.heap_bytes) {
  REPSEQ_CHECK(nodes >= 1, "cluster needs at least one node");
  REPSEQ_CHECK(cfg_.heap_bytes % cfg_.page_bytes == 0, "heap must be whole pages");
  NodeRuntime::register_base_protocol(protocol_);
  network_ = std::make_unique<net::Network>(engine_, net_cfg, nodes);
  // Correctness checking is decided once per cluster (env axis or a test's
  // ScopedConfig), before the nodes cache the pointer; a null checker makes
  // every hook a single predicted-false branch.
  const chk::Config chk_cfg = chk::effective_config();
  if (chk_cfg.mask != 0) checker_ = std::make_unique<chk::Checker>(*this, chk_cfg);
  nodes_.reserve(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeRuntime>(*this, n));
  }
  // Tracing is (re)configured per cluster so sweeps and tests can flip
  // REPSEQ_TRACE between runs; the trace is written when the cluster dies.
  obs::tracer().configure_from_env();
  if (obs::tracer().active()) {
    obs::tracer().set_process_name(0, "cluster");
    for (NodeId n = 0; n < nodes; ++n) {
      obs::tracer().set_process_name(static_cast<std::int32_t>(n) + 1,
                                     "node-" + std::to_string(n));
    }
  }
}

Cluster::~Cluster() {
  if (obs::tracer().active()) obs::tracer().write();
}

void Cluster::set_rse_hooks(RseHooks* hooks) {
  REPSEQ_CHECK(rse_hooks_ == nullptr, "RSE hooks already attached to this cluster");
  rse_hooks_ = hooks;
}

std::uint64_t Cluster::register_work(std::function<void(NodeRuntime&)> fn) {
  work_table_.push_back(std::move(fn));
  return work_table_.size() - 1;
}

const std::function<void(NodeRuntime&)>& Cluster::work(std::uint64_t id) const {
  REPSEQ_CHECK(id < work_table_.size(), "unknown work id");
  return work_table_[id];
}

NodeRuntime& Cluster::current() {
  sim::Fiber* f = sim::Fiber::current();
  REPSEQ_CHECK(f != nullptr && f->user_data() != nullptr,
               "Cluster::current() outside a node fiber");
  return *static_cast<NodeRuntime*>(f->user_data());
}

sim::SimDuration Cluster::run(std::function<void(NodeRuntime&)> master_program) {
  REPSEQ_CHECK(!ran_, "Cluster::run may only be called once");
  ran_ = true;
  const sim::SimTime start = engine_.now();
  for (auto& node : nodes_) {
    NodeRuntime* rt = node.get();
    sim::FiberRef f = engine_.spawn("dispatch-" + std::to_string(rt->id()),
                                    [rt] { rt->dispatcher_loop(); });
    rt->dispatcher_ = f;
    f->set_user_data(rt);
    f->set_trace_pid(static_cast<std::int32_t>(rt->id()) + 1);
  }
  for (std::size_t n = 1; n < nodes_.size(); ++n) {
    NodeRuntime* rt = nodes_[n].get();
    sim::FiberRef f =
        engine_.spawn("slave-" + std::to_string(n), [rt] { rt->slave_loop(); });
    f->set_user_data(rt);
    f->set_trace_pid(static_cast<std::int32_t>(n) + 1);
  }
  NodeRuntime* master = nodes_[0].get();
  sim::FiberRef f = engine_.spawn(
      "master", [master, program = std::move(master_program)] { program(*master); });
  f->set_user_data(master);
  f->set_trace_pid(1);
  engine_.run();
  // The engine stops once every fiber is parked and no event is left.  A
  // master program still parked then waits for a message that will never
  // come, and its results were never produced.
  REPSEQ_CHECK(f->finished(), "the master program never finished: it is parked with no event "
                              "left to wake it, at virtual time " +
                                  std::to_string(engine_.now().ns) + " ns");
  return engine_.now() - start;
}

PhaseCounters Cluster::total(Phase p) const {
  PhaseCounters out;
  for (const auto& node : nodes_) {
    out.merge(node->stats().for_phase(p));
  }
  return out;
}

std::vector<HubOccupancy> Cluster::hub_occupancy() const {
  std::vector<HubOccupancy> out(network_->hub_shards());
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = {network_->mcast_frames(s), network_->mcast_bytes(s), network_->hub_busy(s)};
  }
  return out;
}

}  // namespace repseq::tmk
