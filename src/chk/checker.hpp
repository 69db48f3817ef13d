// Protocol-aware correctness analysis (the correctness counterpart to the
// observability layer in src/obs).
//
// Two checker families hang off hooks in the tmk runtime and the RSE
// controller, both zero-cost when off (a null pointer test on the hot paths):
//
//   * races    -- an LRC happens-before race detector.  Every read/write
//     barrier records an access event tagged with a *shadow* vector clock;
//     a conflicting pair unordered by the release-consistency happens-before
//     relation is a data race, reported with both access sites, nodes,
//     section sites and clocks.  The shadow clocks (one per node) advance at
//     EVERY end_interval() -- unlike the protocol's own clock, which only
//     bumps for dirty intervals -- so read-only epochs participate in the
//     order.  Sync payloads carry shadow snapshots in a `chk` field that is
//     excluded from wire accounting.
//
//   * protocol -- invariant oracles over the protocol itself: per-node
//     interval monotonicity, interval stamps, diff-apply causality (the
//     PR 4 BcastUpdate bug class, asserted at apply time),
//     at-most-one-round-in-flight per multicast shard, replica interval-log
//     agreement at replicated section entry, replica write-set agreement
//     after replicated sections, write-notice coverage of every
//     invalidation, and sync-clock agreement: a fork, join or barrier
//     message leaves its receiver's clock, rebuilt from the records it
//     carries, covering its sender's.  An interval record carries only its
//     clock's Lamport sum and a sync message no clock, so the checker keeps
//     the clocks it compares in its own tables: every committing clock, for
//     interval monotonicity, interval stamps and diff-apply causality, and
//     each sync message's sender clock, for sync-clock agreement.
//
// Selection mirrors the obs layer: the REPSEQ_CHECK env axis (fail-loud,
// exit 2 on an unknown token) read at Cluster construction, or a forced
// ScopedConfig for tests.  Violations abort with a full diagnostic by
// default; tests run with abort_on_violation=false and inspect violations().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tmk/gaddr.hpp"
#include "tmk/interval.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {
class Cluster;
class NodeRuntime;
struct DiffPacket;
struct NoticeKey;
}  // namespace repseq::tmk

namespace repseq::chk {

enum class Cat : std::uint8_t {
  Races = 1 << 0,
  Protocol = 1 << 1,
};
inline constexpr std::uint8_t kAllCats = 0x03;

/// Parses a REPSEQ_CHECK value ("races,protocol" / "all").  Returns nullopt
/// on an unknown or empty token and reports it through `bad_token`.
[[nodiscard]] std::optional<std::uint8_t> parse_mask(std::string_view value,
                                                     std::string* bad_token);

struct Config {
  std::uint8_t mask = 0;
  /// Print the diagnostic and abort on the first violation (the production
  /// setting: a failed invariant means nothing downstream is trustworthy).
  /// Tests flip this off and read violations() instead.
  bool abort_on_violation = true;
};

/// Overrides the env axis for the duration of a scope, so tests configure
/// checking BEFORE constructing the Cluster that snapshots the config.
class ScopedConfig {
 public:
  ScopedConfig(std::uint8_t mask, bool abort_on_violation = false);
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;
};

/// The configuration a new Cluster should use: the forced ScopedConfig when
/// one is live, REPSEQ_CHECK otherwise (unset means no checking; an unknown
/// or empty category exits 2, naming it).
[[nodiscard]] Config effective_config();

/// Deliberate protocol mutations for oracle tests: each breaks exactly the
/// invariant its matching checker asserts, proving the oracle actually
/// fires (a checker that cannot fail verifies nothing).
enum class Mutation : std::uint8_t {
  None,
  /// end_interval drops the last page from the published record's write
  /// notices (the local state stays truthful) -- remote copies are never
  /// invalidated and the write-notice-coverage oracle must fire.
  SuppressWriteNotice,
  /// apply_packets_causally reverses its causally-sorted batch -- the
  /// diff-apply-causality oracle must fire on the first stale apply.
  ReorderDiffApply,
  /// A replicated section's fork drops its last record -- a slave that
  /// lacked it enters the section with a shorter interval log than the
  /// master's, and the replica-interval-log oracle must fire.
  TruncateSectionFork,
  /// end_interval publishes the interval index as the record's stamp, so
  /// causal order degrades to per-owner order -- the interval-stamp oracle
  /// must fire at the commit, and diff-apply-causality once a diff lands
  /// ahead of one that happened before it.
  FlatIntervalStamp,
  /// A slave's join withholds the slave's newest record -- the master's
  /// clock, rebuilt from the join, falls short of the slave's, and the
  /// sync-clock oracle must fire at the merge.
  WithholdJoinRecord,
};
extern Mutation g_test_mutation;

class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) { g_test_mutation = m; }
  ~ScopedMutation() { g_test_mutation = Mutation::None; }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

struct Violation {
  std::string checker;  // oracle name: "race", "diff-apply-causality", ...
  std::string detail;   // full multi-line diagnostic
};

/// One checker instance per Cluster (created at construction when the
/// effective mask is nonzero; NodeRuntime caches the pointer so every hook
/// is `if (chk_ != nullptr) [[unlikely]]` when checking is off).
class Checker {
 public:
  Checker(tmk::Cluster& cluster, Config cfg);

  [[nodiscard]] bool races() const { return (cfg_.mask & static_cast<std::uint8_t>(Cat::Races)) != 0; }
  [[nodiscard]] bool protocol() const {
    return (cfg_.mask & static_cast<std::uint8_t>(Cat::Protocol)) != 0;
  }

  // ---- shadow happens-before (races) ----

  /// The node's current shadow clock (stamped into sync payloads' chk field
  /// right after the releasing end_interval()).
  [[nodiscard]] const tmk::VectorClock& shadow(tmk::NodeId n) const { return shadow_[n]; }
  /// Called at the top of EVERY end_interval(), dirty or not.
  void on_release(tmk::NodeId n);
  /// Acquire edge: merge the releaser's shadow snapshot (no-op for an empty
  /// clock, i.e. when the sender ran without race checking).
  void on_acquire(tmk::NodeId n, const tmk::VectorClock& incoming);
  /// Master-side barrier edges: arrivals are buffered (the dispatcher may
  /// handle them mid-master-epoch; merging eagerly would falsely order
  /// slave writes before the master's in-progress accesses) and merged into
  /// the master's shadow only when the barrier completes.
  void buffer_barrier_arrival(std::uint64_t barrier_seq, const tmk::VectorClock& incoming);
  void on_barrier_complete(std::uint64_t barrier_seq);

  /// Access event from a read/write barrier.  Performs race detection,
  /// replica write-set recording (inside replicated sections) and the
  /// access-time write-notice-coverage check.
  void on_access(tmk::NodeRuntime& rt, tmk::GAddr addr, std::size_t bytes, bool write);

  // ---- protocol oracles ----

  /// A dirty interval committing at its owner, just logged, so `rt.vc()` is
  /// the committing clock (the checker records it and checks the record's
  /// stamp against its Lamport sum), and BEFORE any test mutation tampers
  /// with the published record's write notices (the checker knows the true
  /// write set; the protocol propagates the possibly-mutated one).
  void on_interval_commit(tmk::NodeRuntime& rt, const tmk::IntervalRecordPtr& rec);
  /// A diff packet about to be applied (already-applied batches excluded).
  /// `satisfied` lists the notices earlier packets of its batch satisfied;
  /// the page's pending list still holds them until the batch ends.
  void on_diff_apply(tmk::NodeRuntime& rt, const tmk::DiffPacket& pkt,
                     const std::vector<tmk::NoticeKey>& satisfied);
  /// A page flipping Invalid -> ReadOnly after its pending notices cleared.
  void on_page_revalidate(tmk::NodeRuntime& rt, tmk::PageId page);
  /// A fork, join, barrier arrival or departure leaving `rt` for `peer`
  /// (called once per slave for a multicast fork): the sync-clock oracle
  /// keeps the sender's clock.  A slave has one sync message at a time in
  /// flight, to the master or, closing a replicated section, to its
  /// combining-tree parent; the master one per slave.  So it is kept per
  /// slave: the sender's id, or the receiver's when the master sends.
  void on_sync_send(tmk::NodeRuntime& rt, tmk::NodeId peer);
  /// `rt` merged the records of a sync message from `peer` (its protocol
  /// clock grew).  Its rebuilt clock must cover the sender's clock at send
  /// and, on the master, its rebuilt clock of the slave must equal it.
  void on_sync_merge(tmk::NodeRuntime& rt, tmk::NodeId peer);
  void on_section_enter(tmk::NodeRuntime& rt, std::uint32_t site);
  void on_section_exit(tmk::NodeRuntime& rt);
  void on_round_start(std::size_t shard, std::uint64_t round);
  void on_round_finish(std::size_t shard, std::uint64_t round);

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }

 private:
  using Ranges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;  // sorted, disjoint
  /// The byte ranges one node touched on one page during one shadow epoch
  /// (reads and writes separately), plus the diagnostic context.
  struct EpochRanges {
    std::uint32_t epoch = 0;
    std::uint32_t site = 0;  // section site id, kNoSite outside sections
    std::shared_ptr<const tmk::VectorClock> clock;  // shadow at first access
    Ranges reads;
    Ranges writes;
    /// (owner, epoch) pairs this epoch already raced against -- one report
    /// per conflicting epoch pair, not one per overlapping element access.
    Ranges reported;
  };
  struct OwnerAccesses {
    std::vector<EpochRanges> epochs;  // ascending epoch order
  };
  struct PageAccesses {
    std::map<tmk::NodeId, OwnerAccesses> by_owner;
    std::size_t total_epochs = 0;  // GC trigger
  };

  void record_violation(const char* checker, std::string detail);
  [[nodiscard]] std::shared_ptr<const tmk::VectorClock> clock_snapshot(tmk::NodeId n);
  void race_check(tmk::NodeRuntime& rt, tmk::PageId page, std::uint32_t lo, std::uint32_t hi,
                  bool write);
  void coverage_check(tmk::NodeRuntime& rt, tmk::PageId page);
  void gc_page(PageAccesses& pa);
  [[nodiscard]] static std::string describe(tmk::NodeId owner, const EpochRanges& er, bool write);

  tmk::Cluster& cluster_;
  Config cfg_;
  std::vector<Violation> violations_;

  // races
  std::vector<tmk::VectorClock> shadow_;
  std::vector<std::shared_ptr<const tmk::VectorClock>> snapshot_;  // null = stale
  std::map<std::uint64_t, tmk::VectorClock> barrier_arrivals_;
  std::map<tmk::PageId, PageAccesses> accesses_;

  // interval monotonicity and stamps: each owner's committing clocks by
  // interval index (entry i-1 for interval i), filled only under protocol
  // checking -- records carry the Lamport sum alone
  [[nodiscard]] const tmk::VectorClock& commit_clock(tmk::NodeId owner, std::uint32_t index) const;
  std::vector<std::vector<tmk::VectorClock>> commit_clocks_;
  std::vector<std::uint64_t> last_stamp_;

  // sync-clock agreement: per slave, the sender's clock of the sync
  // message in flight from it or from the master to it (on_sync_send),
  // filled only under protocol checking -- sync messages carry records,
  // not the clock
  std::vector<tmk::VectorClock> sync_sent_;

  // write-notice coverage: the TRUE write sets, page -> [(owner, index)],
  // recorded at commit before any mutation; plus a per-(node, page)
  // generation cache so the access-time check reruns only after the node's
  // knowledge changed (valid_vc only grows, so a pass stays a pass).
  std::map<tmk::PageId, std::vector<std::pair<tmk::NodeId, std::uint32_t>>> coverage_;
  std::vector<std::uint64_t> sync_gen_;
  std::vector<std::map<tmk::PageId, std::uint64_t>> coverage_checked_;

  // rounds
  struct ShardRound {
    bool in_flight = false;
    std::uint64_t active = 0;
    std::uint64_t last_started = 0;
  };
  std::map<std::size_t, ShardRound> rounds_;

  // replica write-set agreement
  struct SectionState {
    bool active = false;
    std::uint32_t site = 0;
    std::uint64_t section_no = 0;  // node-local counter; SPMD order aligns it
    std::map<tmk::PageId, std::vector<std::pair<std::uint32_t, std::uint32_t>>> writes;
  };
  struct SectionDigest {
    std::uint64_t hash = 0;
    tmk::NodeId first_node = 0;
    std::size_t reported = 0;
  };
  std::vector<SectionState> sections_;
  std::map<std::uint64_t, SectionDigest> section_digests_;

  // replica interval-log agreement: the first reporter's clock (its log's
  // newest interval per owner), keyed by section number like the digests
  struct SectionLog {
    tmk::VectorClock known;
    tmk::NodeId first_node = 0;
    std::size_t reported = 0;
  };
  std::map<std::uint64_t, SectionLog> section_logs_;

  friend class ScopedMutation;
};

}  // namespace repseq::chk
