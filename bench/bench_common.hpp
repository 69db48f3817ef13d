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
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "util/table.hpp"

namespace repseq::bench {

/// A malformed axis value must kill the run, not silently fall back: a
/// sweep that quietly ran the wrong transport/policy/flow/size produces
/// tables that look fine and mean nothing.
[[noreturn]] inline void env_value_error(const char* var, const char* got,
                                         const char* accepted) {
  std::fprintf(stderr, "error: unknown %s '%s' (accepted: %s)\n", var, got, accepted);
  std::exit(2);
}

/// Reads an integer override from the environment (REPSEQ_<NAME>).  The
/// whole value must be one base-10 integer ("4x" or "four" exits 2) in
/// [min, max] (REPSEQ_NODES=-4 exits 2 instead of wrapping into a huge
/// unsigned cap; REPSEQ_BH_STEPS=0 instead of printing a NaN speedup).
inline long env_long(const char* name, long fallback, long min,
                     long max = std::numeric_limits<long>::max()) {
  const std::string var = std::string("REPSEQ_") + name;
  const char* v = std::getenv(var.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) env_value_error(var.c_str(), v, "an integer");
  if (n < min || n > max) {
    std::string range = "an integer >= " + std::to_string(min);
    if (max != std::numeric_limits<long>::max()) range += " and <= " + std::to_string(max);
    env_value_error(var.c_str(), v, range.c_str());
  }
  return n;
}

/// env_long for an int-typed axis: values above INT_MAX exit 2 instead of
/// narrowing (REPSEQ_BH_BODIES=4294967552 would otherwise run 256 bodies).
inline int env_int(const char* name, int fallback, int min) {
  return static_cast<int>(env_long(name, fallback, min, std::numeric_limits<int>::max()));
}

/// Node count (or node-count cap) of a sweep: REPSEQ_NODES=N, N >= 2.
inline std::size_t bench_nodes() { return static_cast<std::size_t>(env_long("NODES", 32, 2)); }

/// The wire backend for a sweep: REPSEQ_TRANSPORT=hub|tree|direct|sharded
/// overrides the bench's own default, so every sweep can run on any
/// transport.
inline net::TransportKind bench_transport(
    net::TransportKind fallback = net::TransportKind::HubSwitch) {
  const char* v = std::getenv("REPSEQ_TRANSPORT");
  if (v == nullptr) return fallback;
  const auto k = net::parse_transport(v);
  if (!k) env_value_error("REPSEQ_TRANSPORT", v, "hub|tree|direct|sharded");
  return *k;
}

/// Shard count for the sharded-hub backend (REPSEQ_HUB_SHARDS=S, S >= 1).
inline std::size_t bench_hub_shards() {
  return static_cast<std::size_t>(env_long("HUB_SHARDS", 4, 1));
}

/// Adaptive-mode decision procedure: REPSEQ_POLICY=greedy|hysteresis
/// (parsed by rse::policy::parse_policy, the single parser for the axis --
/// the mode and flow axes live in apps::harness::parse_mode/parse_flow and
/// the transport axis in net::parse_transport).
inline rse::policy::PolicyKind bench_policy(
    rse::policy::PolicyKind fallback = rse::policy::PolicyKind::Hysteresis) {
  const char* v = std::getenv("REPSEQ_POLICY");
  if (v == nullptr) return fallback;
  const auto k = rse::policy::parse_policy(v);
  if (!k) env_value_error("REPSEQ_POLICY", v, "greedy|hysteresis");
  return *k;
}

/// RSE flow-control variant: REPSEQ_FLOW=chained|windowed|none overrides a
/// bench's default so any sweep can be repeated under another scheme.
inline rse::FlowControl bench_flow(rse::FlowControl fallback = rse::FlowControl::Chained) {
  const char* v = std::getenv("REPSEQ_FLOW");
  if (v == nullptr) return fallback;
  const auto f = apps::harness::parse_flow(v);
  if (!f) env_value_error("REPSEQ_FLOW", v, "chained|windowed|none");
  return *f;
}

/// Per-site strategy pins for adaptive A/B runs:
/// REPSEQ_PIN_SITE=<site>=<strategy>[,<site>=<strategy>...], strategies
/// master-only|replicated|broadcast.  A pinned site always executes the
/// pinned strategy (its first occurrence skips the bootstrap probe).
inline std::map<std::uint32_t, rse::policy::SectionStrategy> bench_pin_sites() {
  const char* v = std::getenv("REPSEQ_PIN_SITE");
  if (v == nullptr) return {};
  const auto pins = rse::policy::parse_pin_sites(v);
  if (!pins) {
    env_value_error("REPSEQ_PIN_SITE", v,
                    "<site>=<master-only|replicated|broadcast>[,...]");
  }
  return *pins;
}

/// Frame-coalescing window in virtual microseconds:
/// REPSEQ_BATCH_WINDOW=<us> (0 = no coalescing, the default).  Malformed
/// values fail loud like every other axis.
inline sim::SimDuration bench_batch_window(sim::SimDuration fallback = {}) {
  const char* v = std::getenv("REPSEQ_BATCH_WINDOW");
  if (v == nullptr) return fallback;
  const auto w = net::parse_batch_window(v);
  if (!w) env_value_error("REPSEQ_BATCH_WINDOW", v, "non-negative integer microseconds");
  return *w;
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

/// NetConfig with the env-selected transport + shard count applied.
inline net::NetConfig bench_net_config() {
  net::NetConfig ncfg;
  ncfg.transport = bench_transport();
  ncfg.hub_shards = bench_hub_shards();
  ncfg.batch_window = bench_batch_window();
  return ncfg;
}

/// The scaled Barnes-Hut workload (paper: 131072 bodies, 2 steps).
inline apps::bh::BhConfig bh_config() {
  apps::bh::BhConfig cfg;
  cfg.bodies = env_int("BH_BODIES", 4096, 1);
  cfg.steps = env_int("BH_STEPS", 2, 1);
  return cfg;
}

/// The scaled Ilink workload (paper: CLP input, 180 iterations).
inline apps::ilink::IlinkConfig ilink_config() {
  apps::ilink::IlinkConfig cfg;
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
  o.policy.kind = bench_policy();
  o.policy.pins = bench_pin_sites();
  // The upper bound keeps the shift to bytes from wrapping.
  constexpr long kMaxHeapMb = std::numeric_limits<long>::max() >> 20;
  o.tmk.heap_bytes = static_cast<std::size_t>(env_long("HEAP_MB", 24, 1, kMaxHeapMb)) << 20;
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
