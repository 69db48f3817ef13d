// Virtual-time span/instant tracer emitting Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in order:
//   * Determinism: every timestamp is virtual sim time; recording an event
//     allocates from slab-backed per-process ring buffers and never consults
//     the host clock, so a traced run's checksums and interval vectors are
//     bit-identical to an untraced one.
//   * Zero overhead when disabled: every hook in sim/net/tmk/rse guards on
//     obs::enabled(cat), a single load-and-test of the global category mask.
//     With REPSEQ_TRACE unset the mask is zero and no argument is ever
//     evaluated.
//   * No hot-path strings: event and track names are string literals (or
//     pointers interned once via Tracer::intern); argument keys likewise.
//
// Perfetto mapping: simulated nodes are processes (pid = node id + 1; pid 0
// is the cluster-global "cluster" process for engine/wire events), and
// fibers / protocol phases are threads (tracks) within them.  Span (B/E)
// events on one track always nest -- per-fiber tracks make that hold across
// fiber suspension -- while anything that can overlap (batch windows, tree
// hops, fiber switches, watchdog ticks) is an instant.
//
// Lifecycle: tmk::Cluster re-reads REPSEQ_TRACE / REPSEQ_TRACE_FILTER at
// construction and writes the file (overwriting) at destruction, so each
// Cluster in a sweep produces a complete trace and the last one wins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace repseq::obs {

/// Trace categories, one per instrumented layer.  Values are mask bits.
enum class Cat : std::uint8_t {
  Sim = 1u << 0,  // event-queue depth, fiber switches
  Net = 1u << 1,  // frame sends, tree hops, batch windows, loss drops
  Tmk = 1u << 2,  // page faults, diff create/apply, interval commits
  Rse = 1u << 3,  // section brackets, rounds, watchdogs, policy decisions
};

inline constexpr std::uint8_t kAllCats = 0x0f;

[[nodiscard]] const char* cat_name(Cat c);

/// The global category mask: zero when tracing is off.  Hooks test this
/// before evaluating any argument -- the entire disabled-mode cost.
extern std::uint8_t g_cat_mask;

[[nodiscard]] inline bool enabled(Cat c) {
  return (g_cat_mask & static_cast<std::uint8_t>(c)) != 0;
}

/// One typed argument: literal (or interned) key, numeric value.  Doubles
/// carry every counter/cost the layers record; integers up to 2^53 print
/// exactly.
struct Arg {
  const char* key;
  double value;
};

class Tracer {
 public:
  /// Arguments per event (the policy's `decision` instant carries 18).
  static constexpr std::size_t kMaxArgs = 18;
  /// Events per slab; slabs are the ring-buffer eviction unit.
  static constexpr std::size_t kSlabEvents = 4096;
  /// Per-process slab cap (drop-oldest past this): bounds a runaway trace
  /// at ~1M events per process.
  static constexpr std::size_t kMaxSlabsPerProcess = 256;

  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Re-reads REPSEQ_TRACE (output path; unset or empty disables) and
  /// REPSEQ_TRACE_FILTER (comma list of sim|net|tmk|rse; unset = all).
  /// Clears any buffered events.  A malformed filter exits 2 through
  /// util::axis_error whenever it is set, even with tracing off.
  void configure_from_env();

  /// Programmatic configuration (tests): empty path disables.
  void configure(std::string path, std::uint8_t mask = kAllCats);

  [[nodiscard]] bool active() const { return g_cat_mask != 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Interns a dynamic name (fiber names, per-shard track names) so hooks
  /// can hand the event buffer a stable const char*.
  [[nodiscard]] const char* intern(const std::string& s);

  /// Names a Perfetto process (pid 0 = "cluster", pid n+1 = "node-n").
  void set_process_name(std::int32_t pid, const std::string& name);

  // ---- recording (callers must have checked enabled(cat)) ----

  void begin(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
             const char* name, std::initializer_list<Arg> args = {});
  void end(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
           std::initializer_list<Arg> args = {});
  void instant(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
               const char* name, std::initializer_list<Arg> args = {});
  void counter(Cat cat, sim::SimTime t, std::int32_t pid, const char* name,
               double value);

  /// Events currently buffered across all processes (observability for
  /// tests and the writer).
  [[nodiscard]] std::size_t event_count() const;
  /// Slabs evicted by ring overflow since configure (their events are gone;
  /// the writer heals the orphaned span ends).
  [[nodiscard]] std::uint64_t slabs_dropped() const { return slabs_dropped_; }

  /// Sorts the merged buffers by (virtual time, global sequence), repairs
  /// span nesting (drops E events orphaned by ring eviction, closes spans
  /// left open), writes Chrome trace JSON to path(), and clears the
  /// buffers.  No-op when inactive or empty.  Returns events written.
  std::size_t write();

 private:
  Tracer() = default;

  struct Event {
    std::int64_t ts_ns;
    std::uint64_t seq;
    std::int32_t pid;
    char ph;  // 'B', 'E', 'i', 'C'
    const char* track;
    const char* name;
    std::uint8_t cat_bit;
    std::uint8_t nargs;
    const char* keys[kMaxArgs];
    double vals[kMaxArgs];
  };

  /// Slab-backed ring of one process's events: recording appends to the
  /// last slab, overflow past the cap drops the oldest slab whole.
  struct Ring {
    std::vector<std::unique_ptr<std::vector<Event>>> slabs;
  };

  Event& push(Cat cat, char ph, sim::SimTime t, std::int32_t pid, const char* track,
              const char* name, std::initializer_list<Arg> args);

  std::string path_;
  std::map<std::int32_t, Ring> rings_;
  std::map<std::int32_t, std::string> process_names_;
  std::set<std::string> interned_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t slabs_dropped_ = 0;
};

[[nodiscard]] inline Tracer& tracer() { return Tracer::instance(); }

}  // namespace repseq::obs
