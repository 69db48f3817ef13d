// Shared scaffolding for the table-reproduction benchmarks: default scaled
// workload configurations, environment-variable overrides, and the
// paper-vs-measured table layout.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// calibrated simulator and the workloads are scaled down); every harness
// prints the paper's value next to the measured one so the *shape* can be
// checked row by row.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "util/axis.hpp"
#include "util/table.hpp"

namespace repseq::bench {

/// An int-typed integer axis (REPSEQ_<NAME>, whole value, >= min): values
/// above INT_MAX exit 2 instead of narrowing (REPSEQ_BH_BODIES=4294967552
/// would otherwise run 256 bodies).
inline int env_int(const char* name, int fallback, int min) {
  return static_cast<int>(util::env_long(name, fallback, min, std::numeric_limits<int>::max()));
}

/// Node count (or node-count cap) of a sweep: REPSEQ_NODES=N, N >= 2.
inline std::size_t bench_nodes(std::size_t fallback = 32) {
  return static_cast<std::size_t>(util::env_long("NODES", static_cast<long>(fallback), 2));
}

/// The wire backend for a sweep: REPSEQ_TRANSPORT=hub|tree|direct|sharded
/// overrides the bench's own default, so every sweep can run on any
/// transport.
inline net::TransportKind bench_transport(
    net::TransportKind fallback = net::TransportKind::HubSwitch) {
  return util::env_or("TRANSPORT", fallback, net::parse_transport, "hub|tree|direct|sharded");
}

/// RSE flow-control variant: REPSEQ_FLOW=chained|windowed|none overrides a
/// bench's default so any sweep can be repeated under another scheme.
inline rse::FlowControl bench_flow(rse::FlowControl fallback = rse::FlowControl::Chained) {
  return util::env_or("FLOW", fallback, apps::harness::parse_flow, "chained|windowed|none");
}

/// Per-site strategy pins for adaptive A/B runs:
/// REPSEQ_PIN_SITE=<site>=<strategy>[,<site>=<strategy>...], strategies
/// master-only|replicated|broadcast.  A pinned site always executes the
/// pinned strategy (its first occurrence skips the bootstrap probe).
inline std::map<std::uint32_t, rse::policy::SectionStrategy> bench_pin_sites() {
  return util::env_or("PIN_SITE", {}, rse::policy::parse_pin_sites,
                      "<site>=<master-only|replicated|broadcast>[,...]");
}

/// Exits 2 on a REPSEQ_PIN_SITE pin for a site outside `sites`, the section
/// sites the driver's workload opens: the policy engine looks pins up by the
/// sites it meets, so such a pin would be ignored without a word.
inline void check_pin_sites(std::initializer_list<std::uint32_t> sites) {
  for (const auto& pin : bench_pin_sites()) {
    if (std::find(sites.begin(), sites.end(), pin.first) != sites.end()) continue;
    std::string accepted;
    for (const std::uint32_t s : sites) {
      if (!accepted.empty()) accepted += '|';
      accepted += std::to_string(s);
    }
    util::axis_error("REPSEQ_PIN_SITE", std::getenv("REPSEQ_PIN_SITE"),
                     accepted + "=<master-only|replicated|broadcast>[,...]");
  }
}

/// Node counts for the cluster-size sweeps, capped by REPSEQ_NODES so CI
/// smoke runs can bound their cost (e.g. REPSEQ_NODES=8 keeps {2,4,8}).
inline std::vector<std::size_t> sweep_node_counts() {
  std::vector<std::size_t> out;
  for (std::size_t n : {2, 4, 8, 16, 24, 32}) {
    if (n <= bench_nodes()) out.push_back(n);
  }
  return out;
}

/// NetConfig with the env-selected transport, shard count
/// (REPSEQ_HUB_SHARDS=S, S >= 1) and frame-coalescing window
/// (REPSEQ_BATCH_WINDOW=<virtual us>, 0 = no coalescing) applied.
inline net::NetConfig bench_net_config() {
  net::NetConfig ncfg;
  ncfg.transport = bench_transport();
  ncfg.hub_shards = static_cast<std::size_t>(
      util::env_long("HUB_SHARDS", static_cast<long>(ncfg.hub_shards), 1));
  ncfg.batch_window = util::env_or("BATCH_WINDOW", ncfg.batch_window, net::parse_batch_window,
                                   "non-negative integer microseconds");
  return ncfg;
}

/// The scaled Barnes-Hut workload (paper: 131072 bodies, 2 steps): each
/// REPSEQ_BH_* axis overrides the driver's default `cfg` field it names.
inline apps::bh::BhConfig bh_config(apps::bh::BhConfig cfg = {}) {
  cfg.bodies = env_int("BH_BODIES", cfg.bodies, 1);
  cfg.steps = env_int("BH_STEPS", cfg.steps, 1);
  return cfg;
}

/// The scaled Ilink workload (paper: CLP input, 180 iterations): each
/// REPSEQ_ILINK_* axis overrides the driver's default `cfg` field it names.
inline apps::ilink::IlinkConfig ilink_config(apps::ilink::IlinkConfig cfg = {}) {
  cfg.families = env_int("ILINK_FAMILIES", cfg.families, 1);
  cfg.children = env_int("ILINK_CHILDREN", cfg.children, 1);
  cfg.genotypes = env_int("ILINK_GENOTYPES", cfg.genotypes, 1);
  cfg.iterations = env_int("ILINK_ITERATIONS", cfg.iterations, 1);
  cfg.min_nonzero = env_int("ILINK_MIN_NZ", cfg.min_nonzero, 0);
  cfg.max_nonzero = env_int("ILINK_MAX_NZ", cfg.max_nonzero, 1);
  cfg.threshold = env_int("ILINK_THRESHOLD", cfg.threshold, 0);
  return cfg;
}

inline apps::harness::RunOptions options_for(apps::harness::Mode mode,
                                             std::size_t nodes = bench_nodes()) {
  apps::harness::RunOptions o;
  o.mode = mode;
  o.nodes = nodes;
  o.flow = bench_flow();
  o.net = bench_net_config();
  o.policy.pins = bench_pin_sites();
  // The upper bound keeps the shift to bytes from wrapping.
  constexpr long kMaxHeapMb = std::numeric_limits<long>::max() >> 20;
  o.tmk.heap_bytes = static_cast<std::size_t>(util::env_long("HEAP_MB", 24, 1, kMaxHeapMb))
                     << 20;
  return o;
}

inline std::string fmt1(double v) { return util::fmt_fixed(v, 1); }
inline std::string fmt2(double v) { return util::fmt_fixed(v, 2); }

inline void print_header(const char* title, const char* paper_ref, const char* note) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("  paper reference: %s\n", paper_ref);
  std::printf("  %s\n", note);
  std::printf("================================================================\n");
}

}  // namespace repseq::bench
