#include "rse/policy/policy_engine.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/trace.hpp"
#include "util/axis.hpp"
#include "util/check.hpp"

namespace repseq::rse::policy {

namespace {

// First occurrence of an unpinned site.  Replication measures what the
// other strategies do -- the write set, the stale pages read and their
// fan-in -- and leaves no section-written page stale, the cheap side of a
// misprediction.
constexpr SectionStrategy kBootstrap = SectionStrategy::Replicated;
// Hysteresis: a challenger must cost below incumbent * (1 - kSwitchMargin).
constexpr double kSwitchMargin = 0.15;
// EWMA smoothing factor of the per-site telemetry (0 < kAlpha <= 1).
constexpr double kAlpha = 0.5;

double ewma(double prev, double sample, bool first) {
  return first ? sample : (1.0 - kAlpha) * prev + kAlpha * sample;
}

}  // namespace

const char* strategy_name(SectionStrategy s) {
  switch (s) {
    case SectionStrategy::MasterOnly:
      return "master-only";
    case SectionStrategy::Replicated:
      return "replicated";
    case SectionStrategy::BroadcastAfter:
      return "broadcast";
  }
  return "?";
}

std::optional<SectionStrategy> parse_strategy(std::string_view s) {
  if (s == "master-only" || s == "master") return SectionStrategy::MasterOnly;
  if (s == "replicated") return SectionStrategy::Replicated;
  if (s == "broadcast") return SectionStrategy::BroadcastAfter;
  return std::nullopt;
}

std::optional<std::map<std::uint32_t, SectionStrategy>> parse_pin_sites(std::string_view s) {
  std::map<std::uint32_t, SectionStrategy> pins;
  if (s.empty()) return pins;
  while (true) {
    const std::size_t comma = s.find(',');
    const std::string_view entry = s.substr(0, comma);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    // A site id past uint32 must fail, not wrap onto another site.
    const auto site = util::parse_long(entry.substr(0, eq), 0, UINT32_MAX);
    const auto strat = parse_strategy(entry.substr(eq + 1));
    if (!site || !strat) return std::nullopt;
    // A duplicate site is a contradictory pin list, not a tiebreak.
    if (!pins.emplace(static_cast<std::uint32_t>(*site), *strat).second) return std::nullopt;
    if (comma == std::string_view::npos) break;
    s = s.substr(comma + 1);
    if (s.empty()) return std::nullopt;  // trailing comma
  }
  return pins;
}

PolicyEngine::PolicyEngine(tmk::Cluster& cluster, PolicyConfig cfg)
    : cluster_(cluster), cfg_(cfg), model_(cluster.config(), cluster.network()) {}

std::uint64_t PolicyEngine::switches() const {
  return static_cast<std::uint64_t>(
      std::count_if(log_.begin(), log_.end(), [](const Decision& d) { return d.switched; }));
}

std::array<std::uint64_t, kStrategyCount> PolicyEngine::strategy_counts() const {
  std::array<std::uint64_t, kStrategyCount> counts{};
  for (const Decision& d : log_) ++counts[static_cast<std::size_t>(d.strategy)];
  return counts;
}

std::uint64_t PolicyEngine::sum(net::NodeId first, tmk::Phase phase,
                                std::uint64_t tmk::PhaseCounters::*counter) const {
  std::uint64_t total = 0;
  for (net::NodeId n = first; n < cluster_.node_count(); ++n) {
    total += cluster_.node(n).stats().for_phase(phase).*counter;
  }
  return total;
}

PolicyEngine::ParDiffs PolicyEngine::par_diffs() const {
  const tmk::PhaseCounters& master = cluster_.node(0).stats().par;
  return {master.diff_msgs_sent, master.diff_bytes_sent,
          sum(0, tmk::Phase::Parallel, &tmk::PhaseCounters::diff_msgs_sent),
          sum(0, tmk::Phase::Parallel, &tmk::PhaseCounters::diff_bytes_sent)};
}

SectionStrategy PolicyEngine::decide(const SiteState& st) const {
  if (st.profile.runs == 0) return kBootstrap;

  double cost[kStrategyCount];
  std::size_t best = 0;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    cost[s] = model_.cost(static_cast<SectionStrategy>(s), st.profile);
    if (cost[s] < cost[best]) best = s;  // strict <: ties keep enum order
  }
  // Hysteresis: the incumbent survives unless the cheapest strategy
  // undercuts it by the margin.
  const double incumbent = cost[static_cast<std::size_t>(st.current)];
  if (cost[best] < incumbent * (1.0 - kSwitchMargin)) return static_cast<SectionStrategy>(best);
  return st.current;
}

void PolicyEngine::finalize_aftermath() {
  const Decision& closed = log_.back();
  SectionProfile& p = sites_[closed.site].profile;
  const auto i = static_cast<std::size_t>(closed.strategy);
  const bool first = p.tried[i] == 0;
  const ParDiffs now = par_diffs();
  auto fold = [first](SectionProfile::Traffic& t, std::uint64_t msgs, std::uint64_t bytes) {
    t.msgs = ewma(t.msgs, static_cast<double>(msgs), first);
    t.bytes = ewma(t.bytes, static_cast<double>(bytes), first);
  };
  fold(p.after_master[i], now.master_msgs - snap_par_diffs_.master_msgs,
       now.master_bytes - snap_par_diffs_.master_bytes);
  fold(p.after_cluster[i], now.cluster_msgs - snap_par_diffs_.cluster_msgs,
       now.cluster_bytes - snap_par_diffs_.cluster_bytes);
  ++p.tried[i];
}

SectionStrategy PolicyEngine::open_section(tmk::NodeRuntime& master, std::uint32_t site) {
  REPSEQ_CHECK(master.is_master(), "policy decisions are made on the master");
  REPSEQ_CHECK(!section_open_, "policy section opened twice");
  if (!log_.empty()) finalize_aftermath();

  auto [it, inserted] = sites_.try_emplace(site);
  SiteState& st = it->second;
  // A pinned site bypasses the decision procedure entirely -- on its first
  // occurrence too, which would otherwise run the replicated bootstrap: an
  // A/B pin must never leak bootstrap traffic into the measurement it
  // exists for.  Telemetry still accumulates normally.
  const auto pin = cfg_.pins.find(site);
  const SectionStrategy chosen = pin != cfg_.pins.end() ? pin->second : decide(st);
  const bool switched = st.profile.runs > 0 && chosen != st.current;
  st.current = chosen;
  const Decision& d = log_.emplace_back(Decision{log_.size() + 1, site, chosen, switched});

  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    // The decision with its full cost-model inputs: the profile the costs
    // were computed from, the transport's prices of a page-sized multicast
    // and of one ack-chain step, and the per-strategy costs themselves
    // (recomputed here -- decide() keeps them internal -- and meaningful
    // once the site has a measured profile).  The cluster-wide aftermath is
    // the measured per-node share of each tried strategy's post-section
    // diff traffic, in seconds; an untried broadcast is priced at its
    // pessimistic estimate instead.
    const SectionProfile& p = st.profile;
    const bool modeled = p.runs > 0;
    const double nodes = static_cast<double>(cluster_.node_count());
    auto cluster_after = [&](SectionStrategy s) {
      const auto i = static_cast<std::size_t>(s);
      return p.tried[i] > 0 ? model_.serialized(p.after_cluster[i]) / nodes : 0.0;
    };
    auto cost = [&](SectionStrategy s) { return modeled ? model_.cost(s, p) : 0.0; };
    obs::tracer().instant(
        obs::Cat::Rse, cluster_.engine().now(), 1, "policy", "decision",
        {{"seq", static_cast<double>(d.seq)},
         {"site", static_cast<double>(site)},
         {"strategy", static_cast<double>(static_cast<std::size_t>(chosen))},
         {"switched", switched ? 1.0 : 0.0},
         {"pinned", pin != cfg_.pins.end() ? 1.0 : 0.0},
         {"runs", static_cast<double>(p.runs)},
         {"pages_written", p.pages_written},
         {"faults_in", p.faults_in},
         {"fan_in", p.fan_in},
         {"mcast_page_s", model_.mcast(static_cast<double>(cluster_.config().page_bytes))},
         {"step_ctl_s", model_.step(CostModel::kControlBytes)},
         {"untried_after_broadcast", model_.untried_after(SectionStrategy::BroadcastAfter, p)},
         {"cluster_after_master_only", cluster_after(SectionStrategy::MasterOnly)},
         {"cluster_after_replicated", cluster_after(SectionStrategy::Replicated)},
         {"cluster_after_broadcast", cluster_after(SectionStrategy::BroadcastAfter)},
         {"cost_master_only", cost(SectionStrategy::MasterOnly)},
         {"cost_replicated", cost(SectionStrategy::Replicated)},
         {"cost_broadcast", cost(SectionStrategy::BroadcastAfter)}});
  }

  section_open_ = true;
  snap_master_seq_faults_ = master.stats().seq.page_faults;
  snap_fwd_requests_ = sum(0, tmk::Phase::Sequential, &tmk::PhaseCounters::fwd_requests);
  snap_fwd_owners_ = sum(0, tmk::Phase::Sequential, &tmk::PhaseCounters::fwd_owners);
  snap_slave_seq_diffs_ = sum(1, tmk::Phase::Sequential, &tmk::PhaseCounters::diff_msgs_sent);
  return chosen;
}

void PolicyEngine::close_section(tmk::NodeRuntime& master) {
  REPSEQ_CHECK(section_open_, "policy section closed without open");
  section_open_ = false;
  const Decision& open = log_.back();
  SectionProfile& p = sites_[open.site].profile;

  // Stale pages read: the elected requests of a replicated section (the
  // master's own RSE faults are on those same pages), else the master's
  // faults.  Fan-in: the owners each elected request named, or, while only
  // the master executes, the slave diff messages (each a reply to one of
  // the master's faults) per master fault.
  std::uint64_t stale_reads = 0;
  std::uint64_t replies = 0;
  if (open.strategy == SectionStrategy::Replicated) {
    stale_reads =
        sum(0, tmk::Phase::Sequential, &tmk::PhaseCounters::fwd_requests) - snap_fwd_requests_;
    replies = sum(0, tmk::Phase::Sequential, &tmk::PhaseCounters::fwd_owners) - snap_fwd_owners_;
  } else {
    stale_reads = master.stats().seq.page_faults - snap_master_seq_faults_;
    replies = sum(1, tmk::Phase::Sequential, &tmk::PhaseCounters::diff_msgs_sent) -
              snap_slave_seq_diffs_;
  }
  const bool first = p.runs == 0;
  p.pages_written =
      ewma(p.pages_written, static_cast<double>(master.section_writes().size()), first);
  if (stale_reads > 0) {
    p.fan_in = ewma(p.fan_in, static_cast<double>(replies) / static_cast<double>(stale_reads),
                    p.fan_in_samples == 0);
    ++p.fan_in_samples;
  }
  p.faults_in = ewma(p.faults_in, static_cast<double>(stale_reads), first);
  ++p.runs;

  snap_par_diffs_ = par_diffs();
}

}  // namespace repseq::rse::policy
