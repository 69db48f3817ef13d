#include "chk/checker.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tmk/page.hpp"
#include "tmk/protocol.hpp"
#include "tmk/runtime.hpp"
#include "util/axis.hpp"

namespace repseq::chk {

Mutation g_test_mutation = Mutation::None;

namespace {

const Config* g_forced_config = nullptr;
Config g_forced_storage;

/// How many access records a page accumulates before retired epochs are
/// collected, and how many coverage entries before dominated ones are.
constexpr std::size_t kAccessGcThreshold = 256;
constexpr std::size_t kCoverageGcThreshold = 128;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) { return fnv1a(h, &v, sizeof(v)); }

/// Compact nonzero rendering of a clock: "{0:3,1:7}".
std::string clock_str(const tmk::VectorClock& vc) {
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i < vc.size(); ++i) {
    const std::uint32_t v = vc.at(static_cast<tmk::NodeId>(i));
    if (v == 0) continue;
    if (!first) out += ",";
    first = false;
    out += std::to_string(i) + ":" + std::to_string(v);
  }
  out += "}";
  return out;
}

std::string site_str(std::uint32_t site) {
  return site == tmk::NodeRuntime::kNoSite ? std::string("-") : std::to_string(site);
}

}  // namespace

std::optional<std::uint8_t> parse_mask(std::string_view value, std::string* bad_token) {
  return util::parse_mask(value, {"races", "protocol"}, bad_token);
}

ScopedConfig::ScopedConfig(std::uint8_t mask, bool abort_on_violation) {
  g_forced_storage = Config{mask, abort_on_violation};
  g_forced_config = &g_forced_storage;
}

ScopedConfig::~ScopedConfig() { g_forced_config = nullptr; }

Config effective_config() {
  if (g_forced_config != nullptr) return *g_forced_config;
  // A silently-misspelled category would run the suite unchecked and green.
  constexpr std::string_view kAccepted = "races|protocol|all, comma-separated";
  const std::uint8_t mask = util::env_or(
      "CHECK", std::uint8_t{0},
      [&](std::string_view v) {
        std::string bad;
        const auto m = parse_mask(v, &bad);
        if (!m) util::axis_error("REPSEQ_CHECK category", bad, kAccepted);
        return m;
      },
      kAccepted);
  return Config{mask, /*abort_on_violation=*/true};
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

Checker::Checker(tmk::Cluster& cluster, Config cfg) : cluster_(cluster), cfg_(cfg) {
  const std::size_t n = cluster.node_count();
  shadow_.assign(n, tmk::VectorClock(n));
  snapshot_.assign(n, nullptr);
  last_index_.assign(n, 0);
  last_vc_.assign(n, tmk::VectorClock(n));
  sync_gen_.assign(n, 1);  // 1: a zero-initialized cache entry is never valid
  coverage_checked_.resize(n);
  sections_.resize(n);
}

void Checker::record_violation(const char* checker, std::string detail) {
  std::fprintf(stderr, "chk: VIOLATION [%s]\n%s\n", checker, detail.c_str());
  violations_.push_back(Violation{checker, std::move(detail)});
  if (cfg_.abort_on_violation) std::abort();
}

std::shared_ptr<const tmk::VectorClock> Checker::clock_snapshot(tmk::NodeId n) {
  if (snapshot_[n] == nullptr) snapshot_[n] = std::make_shared<tmk::VectorClock>(shadow_[n]);
  return snapshot_[n];
}

// ---- shadow happens-before -------------------------------------------------

void Checker::on_release(tmk::NodeId n) {
  if (!races()) return;
  shadow_[n].bump(n);
  snapshot_[n] = nullptr;
}

void Checker::on_acquire(tmk::NodeId n, const tmk::VectorClock& incoming) {
  if (!races() || incoming.size() == 0) return;
  shadow_[n].max_with(incoming);
  snapshot_[n] = nullptr;
}

void Checker::buffer_barrier_arrival(std::uint64_t barrier_seq,
                                     const tmk::VectorClock& incoming) {
  if (!races() || incoming.size() == 0) return;
  auto [it, inserted] =
      barrier_arrivals_.try_emplace(barrier_seq, tmk::VectorClock(cluster_.node_count()));
  it->second.max_with(incoming);
}

void Checker::on_barrier_complete(std::uint64_t barrier_seq) {
  auto it = barrier_arrivals_.find(barrier_seq);
  if (it == barrier_arrivals_.end()) return;
  shadow_[0].max_with(it->second);
  snapshot_[0] = nullptr;
  barrier_arrivals_.erase(it);
}

// ---- access events ---------------------------------------------------------

std::string Checker::describe(tmk::NodeId owner, const EpochRanges& er, bool write) {
  return std::string(write ? "write" : "read ") + " by node " + std::to_string(owner) +
         " (site " + site_str(er.site) + ", epoch " + std::to_string(er.epoch) + ", clock " +
         (er.clock != nullptr ? clock_str(*er.clock) : std::string("{}")) + ")";
}

namespace {

/// Inserts [lo, hi] into a sorted disjoint range list, merging neighbors.
void insert_range(std::vector<std::pair<std::uint32_t, std::uint32_t>>& rs, std::uint32_t lo,
                  std::uint32_t hi) {
  auto it = std::lower_bound(rs.begin(), rs.end(), lo,
                             [](const auto& r, std::uint32_t v) { return r.first < v; });
  // Merge left neighbor if adjacent/overlapping.
  if (it != rs.begin() && std::prev(it)->second + 1 >= lo) --it;
  if (it == rs.end() || it->first > hi + 1) {
    rs.insert(it, {lo, hi});
    return;
  }
  it->first = std::min(it->first, lo);
  it->second = std::max(it->second, hi);
  auto next = std::next(it);
  while (next != rs.end() && next->first <= it->second + 1) {
    it->second = std::max(it->second, next->second);
    next = rs.erase(next);
  }
}

[[nodiscard]] bool covered(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& rs,
                           std::uint32_t lo, std::uint32_t hi) {
  auto it = std::upper_bound(rs.begin(), rs.end(), lo,
                             [](std::uint32_t v, const auto& r) { return v < r.first; });
  return it != rs.begin() && std::prev(it)->second >= hi;
}

/// First range in `rs` overlapping [lo, hi], or nullopt.
[[nodiscard]] std::optional<std::pair<std::uint32_t, std::uint32_t>> overlap(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& rs, std::uint32_t lo,
    std::uint32_t hi) {
  auto it = std::upper_bound(rs.begin(), rs.end(), lo,
                             [](std::uint32_t v, const auto& r) { return v < r.first; });
  if (it != rs.begin() && std::prev(it)->second >= lo) it = std::prev(it);
  if (it == rs.end() || it->first > hi) return std::nullopt;
  return std::make_pair(std::max(it->first, lo), std::min(it->second, hi));
}

}  // namespace

void Checker::on_access(tmk::NodeRuntime& rt, tmk::GAddr addr, std::size_t bytes, bool write) {
  if (bytes == 0 || cluster_.node_count() < 2) return;
  const tmk::NodeId id = rt.id();
  const std::size_t pb = rt.config().page_bytes;
  const tmk::PageId first = tmk::page_of(addr, pb);
  const tmk::PageId last = tmk::page_of(addr + (bytes - 1), pb);
  const bool in_section = rt.in_replicated_section();
  for (tmk::PageId p = first; p <= last; ++p) {
    const auto lo = static_cast<std::uint32_t>(p == first ? tmk::page_offset(addr, pb) : 0);
    const auto hi = static_cast<std::uint32_t>(
        p == last ? tmk::page_offset(addr + (bytes - 1), pb) : pb - 1);
    if (protocol()) {
      if (write && in_section && sections_[id].active) {
        // Replica write-set recording: every node logs its section writes;
        // exit compares the digests.
        insert_range(sections_[id].writes[p], lo, hi);
      }
      if (rt.page(p).prot != tmk::PageProt::Invalid) coverage_check(rt, p);
    }
    if (races()) {
      // Inside a replicated section every node performs the same accesses;
      // node 0 stands in for the (logically single) section execution.
      if (!in_section || id == 0) race_check(rt, p, lo, hi, write);
    }
  }
}

void Checker::race_check(tmk::NodeRuntime& rt, tmk::PageId page, std::uint32_t lo,
                         std::uint32_t hi, bool write) {
  const tmk::NodeId id = rt.id();
  const std::uint32_t epoch = shadow_[id].at(id);
  PageAccesses& pa = accesses_[page];
  OwnerAccesses& own = pa.by_owner[id];
  if (own.epochs.empty() || own.epochs.back().epoch != epoch) {
    own.epochs.push_back(EpochRanges{epoch, rt.current_site(), clock_snapshot(id), {}, {}, {}});
    if (++pa.total_epochs > kAccessGcThreshold) gc_page(pa);
  }
  EpochRanges& cur = pa.by_owner[id].epochs.back();

  // A range already recorded this epoch was already scanned, and every
  // conflicting access since then scans symmetrically from its own side --
  // sequential loops hit this early-out after their first element.
  if (covered(cur.writes, lo, hi) || (!write && covered(cur.reads, lo, hi))) return;

  for (auto& [owner, oa] : pa.by_owner) {
    if (owner == id || oa.epochs.empty()) continue;
    // Epochs below this are ordered before the current access (the
    // releasing bump that published them has reached us); the reverse
    // direction cannot hold -- happens-before edges follow messages, which
    // follow simulated time.  Whole-owner skip: in a barrier-synchronized
    // program nearly every group is fully ordered at access time.
    const std::uint32_t ordered_below = shadow_[id].at(owner);
    if (oa.epochs.back().epoch < ordered_below) continue;
    for (auto it = oa.epochs.rbegin(); it != oa.epochs.rend() && it->epoch >= ordered_below;
         ++it) {
      auto w = overlap(it->writes, lo, hi);
      auto r = write ? overlap(it->reads, lo, hi) : std::nullopt;
      if (!w && !r) continue;
      const std::pair<std::uint32_t, std::uint32_t> pair_key{owner, it->epoch};
      if (std::find(cur.reported.begin(), cur.reported.end(), pair_key) != cur.reported.end()) {
        continue;  // this epoch pair was already reported
      }
      cur.reported.push_back(pair_key);
      const auto [olo, ohi] = w ? *w : *r;
      record_violation("race", "  data race on page " + std::to_string(page) + " bytes [" +
                                   std::to_string(olo) + "," + std::to_string(ohi) +
                                   "]\n  earlier: " + describe(owner, *it, w.has_value()) +
                                   "\n  later:   " + describe(id, cur, write));
    }
  }

  insert_range(write ? cur.writes : cur.reads, lo, hi);
}

void Checker::gc_page(PageAccesses& pa) {
  // An epoch is retired once EVERY other node's shadow orders it: no future
  // access can race with it.  min over p != q of shadow_[p][q] bounds the
  // epochs of q still racing-eligible from some node's perspective.
  const std::size_t n = cluster_.node_count();
  std::vector<std::uint32_t> settled(n, UINT32_MAX);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      settled[q] = std::min(settled[q], shadow_[p].at(static_cast<tmk::NodeId>(q)));
    }
  }
  pa.total_epochs = 0;
  for (auto& [owner, oa] : pa.by_owner) {
    std::erase_if(oa.epochs,
                  [&](const EpochRanges& er) { return er.epoch < settled[owner]; });
    pa.total_epochs += oa.epochs.size();
  }
}

// ---- protocol oracles ------------------------------------------------------

void Checker::on_interval_commit(tmk::NodeRuntime& rt, const tmk::IntervalRecordPtr& rec) {
  const tmk::NodeId n = rec->owner;
  ++sync_gen_[n];
  if (!protocol()) return;
  if (rec->index != last_index_[n] + 1) {
    record_violation("interval-monotonicity",
                     "  node " + std::to_string(n) + " committed interval " +
                         std::to_string(rec->index) + " after " + std::to_string(last_index_[n]) +
                         " (indices must be consecutive)");
  }
  if (rec->vc.at(n) != rec->index) {
    record_violation("interval-monotonicity",
                     "  node " + std::to_string(n) + " interval " + std::to_string(rec->index) +
                         " carries own-component " + std::to_string(rec->vc.at(n)) +
                         " (clock and index must agree)");
  }
  if (!last_vc_[n].dominated_by(rec->vc)) {
    record_violation("interval-monotonicity",
                     "  node " + std::to_string(n) + " interval " + std::to_string(rec->index) +
                         " clock " + clock_str(rec->vc) + " does not dominate predecessor " +
                         clock_str(last_vc_[n]));
  }
  last_index_[n] = rec->index;
  last_vc_[n] = rec->vc;

  for (tmk::PageId p : rec->pages) {
    auto& entries = coverage_[p];
    entries.emplace_back(n, rec->index);
    if (entries.size() > kCoverageGcThreshold) {
      // Drop entries every node's copy already incorporates.
      const auto n_nodes = static_cast<tmk::NodeId>(cluster_.node_count());
      std::erase_if(entries, [&](const std::pair<tmk::NodeId, std::uint32_t>& e) {
        for (tmk::NodeId x = 0; x < n_nodes; ++x) {
          if (!cluster_.node(x).page(p).valid_vc.covers(e.first, e.second)) return false;
        }
        return true;
      });
    }
  }
  (void)rt;
}

void Checker::on_sync_merge(tmk::NodeId n) { ++sync_gen_[n]; }

void Checker::coverage_check(tmk::NodeRuntime& rt, tmk::PageId page) {
  auto cit = coverage_.find(page);
  if (cit == coverage_.end()) return;
  const tmk::NodeId id = rt.id();
  auto [chit, inserted] = coverage_checked_[id].try_emplace(page, 0);
  if (chit->second == sync_gen_[id]) return;  // knowledge unchanged since last pass
  chit->second = sync_gen_[id];
  const tmk::PageState& ps = rt.page(page);
  for (const auto& [owner, index] : cit->second) {
    if (owner == id) continue;
    if (!rt.vc().covers(owner, index)) continue;  // not yet known here
    if (!ps.valid_vc.covers(owner, index)) {
      record_violation(
          "write-notice-coverage",
          "  node " + std::to_string(id) + " holds page " + std::to_string(page) +
              " valid without interval (" + std::to_string(owner) + "," + std::to_string(index) +
              ") it knows of -- a write notice failed to invalidate this copy\n  node clock " +
              clock_str(rt.vc()) + ", page validity " + clock_str(ps.valid_vc));
    }
  }
}

void Checker::on_diff_apply(tmk::NodeRuntime& rt, const tmk::DiffPacket& pkt,
                            const std::vector<tmk::NoticeKey>& satisfied) {
  if (!protocol()) return;
  const auto& covers = pkt.covers();
  std::uint32_t newest = 0;
  for (std::uint32_t i : covers) {
    if (i <= rt.log().known(pkt.owner)) newest = std::max(newest, i);
  }
  if (newest == 0) return;
  const tmk::VectorClock& cover_vc = rt.log().get(pkt.owner, newest).vc;
  for (const tmk::IntervalRecordPtr& r : rt.page(pkt.page).pending) {
    if (r->owner == pkt.owner &&
        std::find(covers.begin(), covers.end(), r->index) != covers.end()) {
      continue;  // satisfied by this very packet
    }
    if (std::find(satisfied.begin(), satisfied.end(),
                  tmk::NoticeKey{pkt.page, r->owner, r->index}) != satisfied.end()) {
      continue;  // satisfied by an earlier packet of the batch, cleared at its end
    }
    // The covering interval's clock knowing the pending interval means the
    // pending one happens-before it: its diff must land FIRST, or the later
    // application will clobber this packet's newer data (the PR 4 class).
    if (cover_vc.covers(r->owner, r->index)) {
      record_violation(
          "diff-apply-causality",
          "  node " + std::to_string(rt.id()) + " applies diff (" + std::to_string(pkt.owner) +
              "," + std::to_string(newest) + ") to page " + std::to_string(pkt.page) +
              " while causally earlier notice (" + std::to_string(r->owner) + "," +
              std::to_string(r->index) + ") is still pending\n  applied interval clock " +
              clock_str(cover_vc) + " covers the pending interval " + clock_str(r->vc));
    }
  }
}

void Checker::on_page_revalidate(tmk::NodeRuntime& rt, tmk::PageId page) {
  if (!protocol()) return;
  coverage_checked_[rt.id()].erase(page);  // force a fresh pass at the flip
  coverage_check(rt, page);
}

void Checker::on_section_enter(tmk::NodeRuntime& rt, std::uint32_t site) {
  SectionState& s = sections_[rt.id()];
  s.active = true;
  s.site = site;
  s.writes.clear();
  if (!protocol()) return;
  // The requester election takes each replica's own interval log for the
  // cluster's: the join and the multicast fork that open the section must
  // have left every log equal to the first reporter's.
  const std::size_t n = cluster_.node_count();
  tmk::VectorClock known(n);
  for (tmk::NodeId o = 0; o < n; ++o) known.set(o, rt.log().known(o));
  auto [it, first] = section_logs_.try_emplace(s.section_no, SectionLog{known, rt.id(), 0});
  SectionLog& l = it->second;
  if (!first && known != l.known) {
    tmk::NodeId o = 0;
    while (known.at(o) == l.known.at(o)) ++o;
    record_violation("replica-interval-log",
                     "  replicated section #" + std::to_string(s.section_no) + " (site " +
                         site_str(site) + "): node " + std::to_string(rt.id()) +
                         " enters knowing " + std::to_string(known.at(o)) +
                         " intervals of owner " + std::to_string(o) + ", node " +
                         std::to_string(l.first_node) + " entered knowing " +
                         std::to_string(l.known.at(o)) + "\n  node log " + clock_str(known) +
                         ", node " + std::to_string(l.first_node) + " log " +
                         clock_str(l.known));
  }
  if (++l.reported == n) section_logs_.erase(it);
}

void Checker::on_section_exit(tmk::NodeRuntime& rt) {
  SectionState& s = sections_[rt.id()];
  const std::uint64_t no = s.section_no++;
  s.active = false;
  if (!protocol()) {
    s.writes.clear();
    return;
  }
  // Digest the section's write set: sorted (page, lo, hi) ranges plus the
  // bytes they hold at exit.  Replicated execution is only sound if every
  // node wrote the same data; divergence (a node-id-dependent body, an
  // unreplicated side effect) is exactly what this catches.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [page, ranges] : s.writes) {  // insert_range kept these sorted+disjoint
    const std::span<const std::byte> span = std::as_const(rt).page_span(page);
    for (const auto& [lo, hi] : ranges) {
      h = fnv1a_u64(h, page);
      h = fnv1a_u64(h, lo);
      h = fnv1a_u64(h, hi);
      h = fnv1a(h, span.data() + lo, hi - lo + 1);
    }
  }
  s.writes.clear();

  SectionDigest& d = section_digests_[no];
  if (d.reported == 0) {
    d.hash = h;
    d.first_node = rt.id();
  } else if (h != d.hash) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  replicated section #%llu (site %s): node %u write-set digest %016llx"
                  " != node %u digest %016llx",
                  static_cast<unsigned long long>(no), site_str(s.site).c_str(), rt.id(),
                  static_cast<unsigned long long>(h), d.first_node,
                  static_cast<unsigned long long>(d.hash));
    record_violation("replica-write-set", buf);
  }
  if (++d.reported == cluster_.node_count()) section_digests_.erase(no);
}

void Checker::on_round_start(std::size_t shard, std::uint64_t round) {
  if (!protocol()) return;
  ShardRound& r = rounds_[shard];
  if (r.in_flight) {
    record_violation("round-serialization",
                     "  round " + std::to_string(round) + " started on shard " +
                         std::to_string(shard) + " while round " + std::to_string(r.active) +
                         " is still in flight");
  }
  if (round <= r.last_started) {
    record_violation("round-serialization",
                     "  round numbers must be strictly increasing per shard: shard " +
                         std::to_string(shard) + " started " + std::to_string(round) + " after " +
                         std::to_string(r.last_started));
  }
  r.in_flight = true;
  r.active = round;
  r.last_started = std::max(r.last_started, round);
}

void Checker::on_round_finish(std::size_t shard, std::uint64_t round) {
  if (!protocol()) return;
  ShardRound& r = rounds_[shard];
  if (!r.in_flight || r.active != round) {
    record_violation("round-serialization",
                     "  finish of round " + std::to_string(round) + " on shard " +
                         std::to_string(shard) +
                         (r.in_flight ? " but round " + std::to_string(r.active) + " is active"
                                      : " with no round in flight"));
  }
  r.in_flight = false;
}

}  // namespace repseq::chk
