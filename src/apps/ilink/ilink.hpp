// Ilink-style genetic linkage analysis, the paper's second evaluation
// application (Section 6.2).
//
// The paper used the real Ilink code on the proprietary CLP pedigree; this
// module is a from-scratch workload with the same algorithmic structure
// (the parallel algorithm of Dwarkadas et al. as the paper describes it):
//
//   * a pool ("bank") of genarrays sized for the largest nuclear family,
//     reused for every family;
//   * an index array of non-zero entries per genarray (sparse);
//   * on every move to a new nuclear family the master reinitializes the
//     whole pool -- the severe contention point;
//   * each member update is parallelized over the non-zero elements,
//     assigned cyclically, *if* the work exceeds a threshold (the OpenMP
//     `if` clause); threads write a densely packed contribution buffer
//     (cyclic false sharing, merged by the multiple-writer protocol);
//   * the master sums the contributions back into the member's genarray.
//
// All arithmetic is exact in doubles (integer-valued, bounded well below
// 2^53), so results across Sequential / Original / Optimized runs must be
// bit-identical -- the verification hook for every mode and flow-control
// policy.
#pragma once

#include <cstdint>
#include <vector>

#include "ompnow/team.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::apps::ilink {

/// Static section-site ids (adaptive-policy telemetry keys): the pool
/// reinitialization on every family move (write-heavy, the severe
/// contention point), the master's summation of the threads' contribution
/// buffers (read fan-in, small write set), and the below-threshold member
/// update that stays in the sequential flow (the OpenMP `if` clause).
inline constexpr std::uint32_t kSectionPoolInit = 1;
inline constexpr std::uint32_t kSectionSumContrib = 2;
inline constexpr std::uint32_t kSectionSerialUpdate = 3;

/// Fields are the settings callers vary; static constexpr members are fixed calibration.
struct IlinkConfig {
  int families = 4;           // nuclear families in the pedigree
  int children = 4;           // children per nuclear family
  int genotypes = 2048;       // genarray length (doubles)
  int iterations = 8;         // likelihood evaluations (paper's CLP: 180)
  int min_nonzero = 256;      // sparsity range per member
  int max_nonzero = 1024;
  int threshold = 192;        // parallelize only above this non-zero count
  std::uint64_t seed = 0x11aa22bb;

  // ---- CPU cost model ----
  // Updating one non-zero genarray element conditions it on every genotype
  // combination of the other family members -- a heavy kernel (hundreds of
  // microseconds on an 800 MHz machine).  Calibrated so the base system
  // lands in the paper's regime: ~2x speedup on 32 nodes with the parallel
  // sections dominated by genarray fan-out waits.
  static constexpr sim::SimDuration cost_element = sim::microseconds(300);  // per non-zero update
  static constexpr sim::SimDuration cost_init_element = sim::nanoseconds(40);
  static constexpr sim::SimDuration cost_sum_element = sim::nanoseconds(60);

  [[nodiscard]] int pool_persons() const { return 2 + children; }
};

struct IlinkResult {
  double likelihood = 0.0;  // exact integer-valued checksum
  std::uint64_t parallel_updates = 0;
  std::uint64_t serial_updates = 0;  // below-threshold (if-clause) updates
  sim::SimDuration total_time{};
  sim::SimDuration seq_time{};
  sim::SimDuration par_time{};
};

struct IlinkWorld {
  /// The genarray pool: pool_persons() x genotypes, page aligned per person.
  tmk::ShArray<double> pool;
  std::size_t person_stride = 0;  // doubles per person slot
  /// The contribution buffer, indexed by *position* in the member's
  /// non-zero list and shared by all threads (cyclic ownership).  Densely
  /// packed, exactly the false-sharing pattern the multiple-writer protocol
  /// absorbs; the master's summation reads it back as a handful of pages
  /// carrying one diff per writer.
  tmk::ShArray<double> contrib;
  /// Non-zero index lists per (family, person), flattened host-side copy
  /// shared by every node (static pedigree structure, computed from the
  /// seed; in the real program this comes from the input file).
  std::vector<std::vector<std::vector<std::uint32_t>>> nonzeros;
};

IlinkWorld setup_world(tmk::Cluster& cluster, const IlinkConfig& cfg);

/// Runs the full evaluation loop on the master fiber.
IlinkResult run_program(tmk::Cluster& cluster, ompnow::Team& team, const IlinkWorld& w,
                        const IlinkConfig& cfg);

}  // namespace repseq::apps::ilink
