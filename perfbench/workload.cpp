// perfbench_workload: one repetition of one named benchmark workload.
//
// Builds the simulated cluster layer by layer (tmk::Cluster,
// rse::RseController, rse::policy::PolicyEngine, ompnow::Team), runs the
// application entry points (apps::bh / apps::ilink) on it, times those calls
// from outside with the host clock, then reads every layer's public counters
// and prints them as ONE JSON object on stdout.  run.py starts one process
// per repetition, so an aborting run (a REPSEQ_CHECK failure) costs one
// repetition, never the benchmark, and each process's peak RSS is its own.
//
//   perfbench_workload --workload <name> --seed <n> [--reference]
//
// --reference runs the same app and seed on a 1-node Sequential cluster (the
// speedup base and the checksum every measured run must reproduce).  With
// REPSEQ_TRACE set the run is traced by the repository's tracer; after the
// cluster writes the trace, this program reads it back and adds the
// trace-derived numbers.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/barnes_hut/bh.hpp"
#include "apps/ilink/ilink.hpp"
#include "obs/trace.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/runtime.hpp"
#include "util/stats_accum.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: global operator new/delete overrides local to this
// binary.  The simulator is single-threaded, so plain counters suffice.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

// Out of line so GCC does not pair an inlined free() with the replaced
// operator new below and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                               (n + static_cast<std::size_t>(al) - 1) &
                                   ~(static_cast<std::size_t>(al) - 1));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }

namespace repseq::perfbench {
namespace {

namespace bh = apps::bh;
namespace ilink = apps::ilink;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class App { BarnesHut, Ilink };

/// A named workload: everything that shapes the run except the seed.  No
/// per-N protocol overrides (request_timeout and friends stay at their
/// TmkConfig defaults), so protocol changes are measured as shipped.
struct Workload {
  const char* name;
  App app;
  std::size_t nodes;
  ompnow::SeqMode mode;
  net::TransportKind transport;
  sim::SimDuration batch_window;
  int bh_bodies;         // Barnes-Hut only
  int ilink_iterations;  // Ilink only
  int ilink_families;    // Ilink only
};

// The seed draws each Ilink pedigree member's non-zero count, so the work
// per iteration varies with the seed.  The Ilink workloads spread their work
// over more families and fewer iterations than IlinkConfig's defaults: the
// per-seed variation averages over more members at the same host time.
const Workload kWorkloads[] = {
    // RSE rounds and multicast diff staging dominate.
    {"ilink_replicated_hub128", App::Ilink, 128, ompnow::SeqMode::Replicated,
     net::TransportKind::HubSwitch, sim::SimDuration{}, 0, 2, 6},
    // The paper's Section 3 contention: the master rewrites the tree, 63
    // readers fault on it; RSE is idle.
    {"bh_master_hub64", App::BarnesHut, 64, ompnow::SeqMode::MasterOnly,
     net::TransportKind::HubSwitch, sim::SimDuration{}, 8192, 0, 0},
    // Tree forwarding, frame batching and the policy engine dominate.
    {"ilink_adaptive_tree64", App::Ilink, 64, ompnow::SeqMode::Adaptive,
     net::TransportKind::TreeMulticast, sim::microseconds(500), 0, 2, 8},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The layer stack of one run, destroyed top-down (team first, cluster
/// last, the reverse of declaration order) as apps::harness does.
struct Stack {
  std::unique_ptr<tmk::Cluster> cluster;
  std::unique_ptr<rse::RseController> rse;
  std::unique_ptr<rse::policy::PolicyEngine> policy;
  std::unique_ptr<ompnow::Team> team;
};

Stack make_stack(const Workload& w, std::size_t nodes, ompnow::SeqMode mode) {
  tmk::TmkConfig tcfg;
  tcfg.heap_bytes = 24u << 20;
  net::NetConfig ncfg;
  ncfg.transport = w.transport;
  ncfg.batch_window = w.batch_window;
  Stack s;
  s.cluster = std::make_unique<tmk::Cluster>(tcfg, ncfg, nodes);
  s.rse = std::make_unique<rse::RseController>(*s.cluster, rse::FlowControl::Chained);
  if (mode == ompnow::SeqMode::Adaptive) {
    s.policy = std::make_unique<rse::policy::PolicyEngine>(*s.cluster,
                                                           rse::policy::PolicyConfig{});
  }
  s.team = std::make_unique<ompnow::Team>(*s.cluster, mode, s.rse.get(), s.policy.get());
  return s;
}

/// What the application reports back from its master fiber.
struct Outcome {
  sim::SimDuration total{};
  sim::SimDuration seq{};
  sim::SimDuration par{};
  double checksum = 0;
  std::uint64_t aux = 0;
};

/// One application instance: host-side world setup, then the program run
/// on the master fiber.
class AppRun {
 public:
  AppRun(const Workload& w, std::uint64_t seed) : app_(w.app) {
    bh_.bodies = w.bh_bodies;
    bh_.seed = seed;
    ilink_.iterations = w.ilink_iterations;
    ilink_.families = w.ilink_families;
    ilink_.seed = seed;
  }

  void setup_world(tmk::Cluster& c) {
    if (app_ == App::BarnesHut) {
      bh_world_ = bh::setup_world(c, bh_);
    } else {
      ilink_world_ = ilink::setup_world(c, ilink_);
    }
  }

  /// Must run on the master's application fiber.
  Outcome program(tmk::Cluster& c, ompnow::Team& team) const {
    if (app_ == App::BarnesHut) {
      bh::init_bodies(bh_world_, bh_);
      const bh::BhResult r = bh::run_steps(c, team, bh_world_, bh_);
      return {r.total_time, r.seq_time, r.par_time, r.checksum, r.interactions};
    }
    const ilink::IlinkResult r = ilink::run_program(c, team, ilink_world_, ilink_);
    return {r.total_time, r.seq_time, r.par_time, r.likelihood,
            r.parallel_updates + r.serial_updates};
  }

 private:
  App app_;
  bh::BhConfig bh_;
  ilink::IlinkConfig ilink_;
  bh::BhWorld bh_world_;
  ilink::IlinkWorld ilink_world_;
};

// ---------------------------------------------------------------------------
// Minimal JSON output.  Doubles print with 17 significant digits so equal
// values compare equal after a round trip (the determinism check relies on
// it).
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }

class JsonObject {
 public:
  void raw(const std::string& key, const std::string& json) { fields_.emplace_back(key, json); }
  void add(const std::string& key, double v) { raw(key, num(v)); }
  void add(const std::string& key, std::uint64_t v) { raw(key, num(v)); }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string array(const std::vector<double>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ", ";
    out += num(vs[i]);
  }
  return out + "]";
}

/// A distribution as run.py consumes it: the sample count, the mean and the
/// value at every whole percentile 0..100 (run.py picks the reported tail
/// from it).
std::string percentile_table(std::uint64_t count, double mean, const std::vector<double>& pct) {
  JsonObject o;
  o.add("count", count);
  o.add("mean", mean);
  o.raw("pct", array(pct));
  return o.str();
}

/// From a util::Accumulator, its percentiles as util reports them.
std::string percentile_table(const util::Accumulator& acc) {
  std::vector<double> pct;
  for (int q = 0; q <= 100; ++q) pct.push_back(acc.percentile(q / 100.0));
  return percentile_table(acc.count(), acc.mean(), pct);
}

/// Same, from exact samples (linear interpolation between ranks).
std::string percentile_table(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (const double x : samples) sum += x;
  const double mean = samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  std::vector<double> pct;
  for (int q = 0; q <= 100 && !samples.empty(); ++q) {
    const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
    const auto below = static_cast<std::size_t>(pos);
    const std::size_t above = std::min(below + 1, samples.size() - 1);
    const double w = pos - static_cast<double>(below);
    pct.push_back(samples[below] * (1.0 - w) + samples[above] * w);
  }
  return percentile_table(samples.size(), mean, pct);
}

// ---------------------------------------------------------------------------
// Counters: every layer's public statistics after the run.  All of them are
// functions of the virtual-time schedule, so they repeat exactly.
// ---------------------------------------------------------------------------

JsonObject read_counters(Stack& s) {
  tmk::Cluster& c = *s.cluster;
  const tmk::PhaseCounters seq = c.total(tmk::Phase::Sequential);
  const tmk::PhaseCounters par = c.total(tmk::Phase::Parallel);

  double cpu_busy_s = 0;
  sim::SimDuration par_wait_max{};
  for (net::NodeId i = 0; i < c.node_count(); ++i) {
    tmk::NodeRuntime& rt = c.node(i);
    cpu_busy_s += rt.cpu().busy_time().seconds();
    par_wait_max = std::max(par_wait_max, rt.stats().par.fault_wait);
  }
  std::uint64_t mcast_frames = 0;
  double busy_max_s = 0;
  for (const tmk::HubOccupancy& o : c.hub_occupancy()) {
    mcast_frames += o.mcast_msgs;
    busy_max_s = std::max(busy_max_s, o.busy.seconds());
  }

  JsonObject k;
  k.add("sim.events", c.engine().events_executed());
  k.add("sim.peak_live_events", static_cast<std::uint64_t>(c.engine().peak_live_events()));
  k.add("sim.master_service_s", c.node(0).cpu().service_time().seconds());
  k.add("sim.cpu_busy_s", cpu_busy_s);

  k.add("net.msgs", c.network().messages_sent());
  k.add("net.wire_kb", static_cast<double>(c.network().bytes_sent()) / 1024.0);
  k.add("net.seq_msgs", seq.msgs_sent);
  k.add("net.par_msgs", par.msgs_sent);
  k.add("net.mcast_frames", mcast_frames);
  k.add("net.drops", c.network().total_drops());
  k.add("net.medium_busy_max_s", busy_max_s);

  k.add("tmk.page_faults.seq", seq.page_faults);
  k.add("tmk.page_faults.par", par.page_faults);
  k.add("tmk.diff_requests.seq", seq.diff_requests);
  k.add("tmk.diff_requests.par", par.diff_requests);
  k.add("tmk.diff_kb", static_cast<double>(seq.diff_bytes_sent + par.diff_bytes_sent) / 1024.0);
  k.add("tmk.fault_wait_s.par_max", par_wait_max.seconds());
  k.add("tmk.recoveries.seq", seq.recoveries);
  k.add("tmk.recoveries.par", par.recoveries);

  k.add("rse.fwd_requests", seq.fwd_requests + par.fwd_requests);
  k.add("rse.null_acks", seq.null_acks_sent + par.null_acks_sent);
  k.add("rse.valid_notice_s", s.rse->valid_notice_time().seconds());

  std::uint64_t sections = 0;
  std::uint64_t switches = 0;
  std::array<std::uint64_t, rse::policy::kStrategyCount> by_strategy{};
  if (s.policy) {
    sections = s.policy->sections();
    switches = s.policy->switches();
    by_strategy = s.policy->strategy_counts();
  }
  using rse::policy::SectionStrategy;
  const auto count_of = [&](SectionStrategy st) {
    return by_strategy[static_cast<std::size_t>(st)];
  };
  k.add("policy.sections", sections);
  k.add("policy.switches", switches);
  k.add("policy.master_only", count_of(SectionStrategy::MasterOnly));
  k.add("policy.replicated", count_of(SectionStrategy::Replicated));
  k.add("policy.broadcast", count_of(SectionStrategy::BroadcastAfter));

  k.add("ompnow.seq_sections", s.team->sequential_sections());
  k.add("ompnow.parallel_regions", s.team->parallel_regions());
  return k;
}

/// Diff-request response times merged over all nodes and both phases.
util::Accumulator fault_responses(tmk::Cluster& c) {
  util::Accumulator acc;
  for (net::NodeId i = 0; i < c.node_count(); ++i) {
    acc.merge(c.node(i).stats().seq.response_ms);
    acc.merge(c.node(i).stats().par.response_ms);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Trace read-back.  The tracer writes one Chrome trace event per line; span
// ends carry their begin's name, so spans pair up on a per-(pid, tid) stack.
// ---------------------------------------------------------------------------

/// The text after `key` up to the next quote, comma or brace.
std::string_view field_after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + key.size();
  const std::size_t to = line.find_first_of("\",}", from);
  return line.substr(from, (to == std::string_view::npos ? line.size() : to) - from);
}

double to_double(std::string_view s) { return std::strtod(std::string(s).c_str(), nullptr); }

std::string read_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: trace file '%s' was not written\n", path.c_str());
    std::exit(3);
  }
  struct Open {
    std::string name;
    double ts_us;
  };
  std::map<std::pair<std::string, std::string>, std::vector<Open>> open;  // (pid, tid)
  std::map<std::string, std::uint64_t> spans;
  std::map<std::string, double> span_s;
  std::map<std::string, std::uint64_t> instants;
  std::vector<double> round_ms;
  std::uint64_t events = 0;

  std::string line;
  while (std::getline(in, line)) {
    const std::string_view ph = field_after(line, "\"ph\":\"");
    if (ph.empty() || ph == "M") continue;  // array brackets, naming metadata
    ++events;
    const std::string name(field_after(line, "\"name\":\""));
    const std::pair<std::string, std::string> track{std::string(field_after(line, "\"pid\":")),
                                                    std::string(field_after(line, "\"tid\":"))};
    const double ts_us = to_double(field_after(line, "\"ts\":"));
    if (ph == "B") {
      open[track].push_back(Open{name, ts_us});
    } else if (ph == "E") {
      std::vector<Open>& stack = open[track];
      if (stack.empty()) continue;
      const Open b = stack.back();
      stack.pop_back();
      const double dur_s = (ts_us - b.ts_us) * 1e-6;
      ++spans[b.name];
      span_s[b.name] += dur_s;
      if (b.name == "round") round_ms.push_back(dur_s * 1e3);
    } else if (ph == "i") {
      ++instants[name];
    }
  }

  JsonObject o;
  o.add("events", events);
  o.add("slabs_dropped", obs::tracer().slabs_dropped());
  o.add("page_fault_spans", spans["page-fault"]);
  o.add("page_fault_s", span_s["page-fault"]);
  o.add("rse_fault_spans", spans["rse-fault"]);
  o.add("rse_fault_s", span_s["rse-fault"]);
  o.add("bracket_s", span_s["rse-bracket"]);
  o.add("rounds", spans["round"]);
  o.raw("round_ms", percentile_table(round_ms));
  o.add("recovery_retries", instants["recovery-retry"]);
  o.add("fault_retries", instants["fault-retry"]);
  o.add("section_spans", spans["seq-section"]);
  o.add("section_s", span_s["seq-section"]);
  o.add("batch_commits", instants["batch-commit"]);
  o.add("tree_hops", instants["tree-hop"]);
  return o.str();
}

// ---------------------------------------------------------------------------

/// Spans the benchmark itself records around its layer calls (traced runs
/// only; the tracer is configured by the Cluster constructor, so the
/// constructor itself cannot be spanned).
constexpr obs::Cat kBenchCat = obs::Cat::Tmk;

int run(const Workload& w, std::uint64_t seed, bool reference) {
  const std::size_t nodes = reference ? 1 : w.nodes;
  const ompnow::SeqMode mode = reference ? ompnow::SeqMode::MasterOnly : w.mode;
  const char* trace_env = std::getenv("REPSEQ_TRACE");
  const std::string trace_path = trace_env != nullptr ? trace_env : "";
  const bool traced = !trace_path.empty();

  JsonObject rec;
  {
    // The scope tears the run down in order (app, then the stack top-down),
    // which also makes the cluster write its trace.
    auto t0 = Clock::now();
    Stack s = make_stack(w, nodes, mode);
    const double ctor_s = seconds_since(t0);
    AppRun app(w, seed);
    t0 = Clock::now();
    app.setup_world(*s.cluster);
    const double world_s = seconds_since(t0);
    sim::Engine& eng = s.cluster->engine();
    if (obs::enabled(kBenchCat)) {
      obs::tracer().begin(kBenchCat, eng.now(), 0, "bench", "bench.setup_world");
      obs::tracer().end(kBenchCat, eng.now(), 0, "bench", {{"host_ms", world_s * 1e3}});
    }

    const std::uint64_t allocs0 = g_allocs;
    const std::uint64_t bytes0 = g_alloc_bytes;
    Outcome out;
    const auto r0 = Clock::now();
    s.cluster->run([&](tmk::NodeRuntime&) {
      if (obs::enabled(kBenchCat)) obs::tracer().begin(kBenchCat, eng.now(), 0, "bench", "bench.run");
      out = app.program(*s.cluster, *s.team);
      if (obs::enabled(kBenchCat)) obs::tracer().end(kBenchCat, eng.now(), 0, "bench");
    });
    const double run_s = seconds_since(r0);
    const std::uint64_t allocs = g_allocs - allocs0;
    const std::uint64_t alloc_bytes = g_alloc_bytes - bytes0;

    const auto p0 = Clock::now();
    const JsonObject counters = read_counters(s);
    const util::Accumulator resp = fault_responses(*s.cluster);
    const double report_s = seconds_since(p0);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    rec.raw("workload", std::string("\"") + w.name + "\"");
    rec.add("seed", seed);
    rec.raw("reference", reference ? "true" : "false");
    rec.add("nodes", static_cast<std::uint64_t>(nodes));
    rec.add("checksum", out.checksum);
    rec.add("aux", out.aux);

    JsonObject vt;
    vt.add("total_s", out.total.seconds());
    vt.add("seq_s", out.seq.seconds());
    vt.add("par_s", out.par.seconds());
    rec.raw("vt", vt.str());
    rec.raw("counters", counters.str());
    rec.raw("fault_resp_ms", percentile_table(resp));

    JsonObject host;
    host.add("cluster_ctor_s", ctor_s);
    host.add("world_setup_s", world_s);
    host.add("run_s", run_s);
    host.add("report_s", report_s);
    host.add("allocs", allocs);
    host.add("alloc_bytes", alloc_bytes);
    host.add("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
    rec.raw("host", host.str());
  }

  if (traced) {
    // Read the trace back, then remove it (an all-layer trace runs to
    // hundreds of MB).
    rec.raw("traced", read_trace(trace_path));
    std::remove(trace_path.c_str());
  }
  std::printf("%s\n", rec.str().c_str());
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_workload --workload <name> --seed <n> "
               "[--reference]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace repseq::perfbench

int main(int argc, char** argv) {
  using namespace repseq::perfbench;
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      w = find_workload(argv[++i]);
      if (w == nullptr) usage("unknown workload");
    } else if (a == "--seed" && has_value) {
      const char* v = argv[++i];
      char* end = nullptr;
      seed = std::strtoull(v, &end, 10);
      if (*v < '0' || *v > '9' || *end != '\0') usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (a == "--reference") {
      reference = true;
    } else {
      usage("bad argument");
    }
  }
  if (w == nullptr || !have_seed) usage("--workload and --seed are required");
  return run(*w, seed, reference);
}
