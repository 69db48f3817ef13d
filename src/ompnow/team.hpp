// The OpenMP/NOW programming layer: what the SUIF-based translator of the
// paper emits, expressed as a library API.
//
//   * parallel / parallel_for -- fork-join regions over the DSM cluster,
//     with static block or cyclic work sharing and an `if` clause for
//     conditional parallelization (paper Section 2.1);
//   * sequential -- a sequential section, executed per the run mode:
//       - MasterOnly: the master runs it while slaves wait (base system);
//       - Replicated: every node runs it under the RSE protocol (the
//         paper's optimization);
//       - BroadcastAfter: the master runs it, then pushes all section
//         modifications to everyone (the Section 4.2 / 6.1.2 alternative);
//       - Adaptive: the rse::policy engine picks one of the three above per
//         section site, from online telemetry.
//
// The Team also measures the per-section time breakdown reported in the
// paper's Tables 1 and 3.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "rse/controller.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/runtime.hpp"

namespace repseq::ompnow {

enum class SeqMode {
  MasterOnly,
  Replicated,
  BroadcastAfter,
  Adaptive,
};

enum class Schedule {
  StaticBlock,
  StaticCyclic,
};

/// Per-thread view inside a region, handed to region bodies.
struct Ctx {
  tmk::NodeRuntime& rt;
  int tid;
  int nthreads;

  [[nodiscard]] bool is_master() const { return tid == 0; }
  /// Guards non-replicable side effects (allocation, I/O) inside
  /// replicated sequential sections (paper Section 5.2).
  void master_only(const std::function<void()>& fn) const {
    if (is_master()) fn();
  }
  void barrier(std::uint32_t id) const { rt.barrier(id); }
};

/// Static loop partitioning helpers (the translator supports block and
/// cyclic distribution, paper Section 2.1).
struct Range {
  long lo;
  long hi;
};
[[nodiscard]] Range block_range(long lo, long hi, int tid, int nthreads);

class Team {
 public:
  /// `policy` is consulted only in SeqMode::Adaptive (required then).
  Team(tmk::Cluster& cluster, SeqMode seq_mode, rse::RseController* rse,
       rse::policy::PolicyEngine* policy = nullptr);

  /// A `parallel` region: body runs on every thread.
  void parallel(std::function<void(const Ctx&)> body);

  /// A combined `parallel for`: body(ctx, i) runs once per index.
  /// With `if_parallel == false` the master executes the whole loop inline
  /// (the OpenMP `if` clause, used by Ilink's conditional parallelization).
  void parallel_for(long lo, long hi, Schedule sched,
                    std::function<void(const Ctx&, long)> body, bool if_parallel = true);

  /// A sequential section, dispatched per the run mode (site id 0).
  void sequential(std::function<void(const Ctx&)> body);

  /// A sequential section stamped with its static site id -- what the
  /// paper's translator would emit per source-level section.  The adaptive
  /// policy engine keys its telemetry and per-section decisions by this id;
  /// the other modes ignore it.
  void sequential(std::uint32_t site, std::function<void(const Ctx&)> body);

  [[nodiscard]] sim::SimDuration sequential_time() const { return seq_time_; }
  [[nodiscard]] sim::SimDuration parallel_time() const { return par_time_; }
  [[nodiscard]] std::uint64_t parallel_regions() const { return parallel_regions_; }
  [[nodiscard]] std::uint64_t sequential_sections() const { return seq_sections_; }

 private:
  void run_region(std::uint64_t work_id, tmk::Phase phase);

  // The three sequential-section execution brackets; Adaptive dispatches to
  // one of them per the policy engine's decision.
  void seq_master_only(const std::function<void(const Ctx&)>& body);
  void seq_broadcast_after(const std::function<void(const Ctx&)>& body);
  void seq_replicated(std::uint32_t site, std::function<void(const Ctx&)> body);

  tmk::Cluster& cluster_;
  SeqMode seq_mode_;
  rse::RseController* rse_;
  rse::policy::PolicyEngine* policy_;
  sim::SimDuration seq_time_{};
  sim::SimDuration par_time_{};
  std::uint64_t parallel_regions_ = 0;
  std::uint64_t seq_sections_ = 0;
};

}  // namespace repseq::ompnow
