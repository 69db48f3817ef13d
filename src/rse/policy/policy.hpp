// Vocabulary of the adaptive per-section replication policy engine.
//
// The paper fixes one execution strategy for every sequential section of a
// run (its Tables 1-4 compare whole-run configurations).  Which strategy
// wins, however, depends on the *section*: its write-set size, the stale
// data it reads, and the contention its output induces afterwards
// (Section 4.2 discusses execute-then-broadcast as an alternative precisely
// because the trade-off is per-section).  rse::policy makes that choice
// online, per section site, on the master alone: no message announces it,
// since a slave learns what a section asks of it from the master's fork
// (replicated), its broadcast (execute-then-broadcast) or nothing
// (master-only).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>

namespace repseq::rse::policy {

/// How one sequential section executes.  Mirrors the paper's three system
/// configurations, but scoped to a single section instead of a whole run.
enum class SectionStrategy : std::uint8_t {
  MasterOnly = 0,      // base system: master executes, slaves wait
  Replicated = 1,      // replicated sequential execution (the paper)
  BroadcastAfter = 2,  // master executes, then multicasts all modified data
};
inline constexpr std::size_t kStrategyCount = 3;

[[nodiscard]] const char* strategy_name(SectionStrategy s);
[[nodiscard]] std::optional<SectionStrategy> parse_strategy(std::string_view s);

/// The engine has one decision procedure (policy_engine.cpp): it runs
/// every unpinned site replicated first, then keeps the incumbent strategy
/// unless the cost model's cheapest undercuts it by a margin.  A fixed
/// strategy for a site is a pin, not a policy.
struct PolicyConfig {
  /// Per-site strategy pins for A/B runs (REPSEQ_PIN_SITE): a pinned site
  /// always executes its pinned strategy -- including its *first*
  /// occurrence, which skips the replicated bootstrap the adaptive path
  /// would otherwise run there.  Unpinned sites adapt normally; telemetry
  /// is still collected everywhere.
  std::map<std::uint32_t, SectionStrategy> pins;
};

/// Parses a pin list of the form `<site>=<strategy>[,<site>=<strategy>...]`
/// (strategy accepts the strategy_name spellings).  Returns nullopt -- it
/// never guesses -- on any malformed entry; the caller reports the
/// offending value.
[[nodiscard]] std::optional<std::map<std::uint32_t, SectionStrategy>> parse_pin_sites(
    std::string_view s);

/// One entry of the master's per-section decision log.  The log is the one
/// record of the policy's choices; the engine's counts and the per-site
/// summaries are derived from it (apps::harness::site_policy_summary).
struct Decision {
  std::uint64_t seq = 0;   // section sequence number, from 1
  std::uint32_t site = 0;  // application-stamped section site id
  SectionStrategy strategy = SectionStrategy::Replicated;
  bool switched = false;   // site changed strategy at this entry

  bool operator==(const Decision&) const = default;
};

}  // namespace repseq::rse::policy
