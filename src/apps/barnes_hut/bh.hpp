// Barnes-Hut N-body simulation (SPLASH-2 style), the paper's first
// evaluation application (Section 6.1).
//
// Structure per timestep:
//   * sequential section: rebuild the shared oct-tree from all bodies and
//     compute cell centers of mass and per-subtree work totals.  This is
//     the contended section: it reads every body (written by all threads in
//     the previous step) and rewrites the whole tree.
//   * parallel section: every thread walks the tree in Morton order to
//     locate its work-weighted segment of bodies, evaluates forces with the
//     Barnes-Hut opening criterion, and advances only its own bodies,
//     recording per-body work for the next step's partition.
//
// All state lives on the DSM shared heap; the oct-tree is pointer-based
// (child indices into a shared cell pool), which is what defeats the
// compile-time-analysis alternatives discussed in Section 4.2.
#pragma once

#include <cstdint>
#include <vector>

#include "ompnow/team.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::apps::bh {

/// Static section-site id of the tree-build sequential section (stamped on
/// every Team::sequential call so the adaptive policy engine can key its
/// per-section telemetry; what the paper's translator would emit per
/// source-level section).
inline constexpr std::uint32_t kSectionTreeBuild = 1;

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double k) const { return {x * k, y * k, z * k}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  [[nodiscard]] double norm2() const { return x * x + y * y + z * z; }
};

struct Body {
  Vec3 pos;
  Vec3 vel;
  Vec3 acc;
  double mass = 0.0;
  /// Interactions performed for this body in the previous step; the
  /// Morton-order partition weights segments by it (paper Section 6.1.1).
  double work = 1.0;
};

/// Child slot encoding for the shared oct-tree.
inline constexpr std::uint32_t kNullChild = 0xffffffffu;
inline constexpr std::uint32_t kBodyTag = 0x80000000u;
[[nodiscard]] constexpr bool is_body_child(std::uint32_t c) {
  return c != kNullChild && (c & kBodyTag) != 0;
}
[[nodiscard]] constexpr std::uint32_t body_index(std::uint32_t c) { return c & ~kBodyTag; }

struct Cell {
  std::uint32_t child[8] = {kNullChild, kNullChild, kNullChild, kNullChild,
                            kNullChild, kNullChild, kNullChild, kNullChild};
  Vec3 center;      // geometric center of this cube
  double half = 0;  // half side length
  Vec3 com;         // center of mass
  double mass = 0;
  double work = 0;  // total work of bodies under this cell
  std::uint32_t nbodies = 0;
};

/// Fields are the settings callers vary; static constexpr members are fixed calibration.
struct BhConfig {
  int bodies = 4096;
  int steps = 2;
  double theta = 1.0;   // opening criterion (SPLASH-2 default)
  double dt = 0.025;
  static constexpr double eps = 0.05;  // softening
  std::uint64_t seed = 0x5eedb0d1;

  // ---- CPU cost model (800 MHz Athlon class) ----
  // The interaction cost is calibrated so that the scaled problem keeps the
  // paper's compute-to-communication regime (base parallel speedup ~7 on 32
  // nodes while ~2/3 of the slowest thread's time goes to diff waits).
  static constexpr sim::SimDuration cost_interaction = sim::microseconds(9);   // force kernel
  static constexpr sim::SimDuration cost_tree_insert = sim::nanoseconds(600);  // per level
  static constexpr sim::SimDuration cost_com_cell = sim::nanoseconds(400);
  static constexpr sim::SimDuration cost_partition_step = sim::nanoseconds(150);
};

/// Everything the benchmark harness needs from one run.
struct BhResult {
  double checksum = 0.0;       // sum of |pos| over all bodies (exact compare)
  std::uint64_t interactions = 0;
  sim::SimDuration total_time{};
  sim::SimDuration seq_time{};   // tree building sections
  sim::SimDuration par_time{};   // force evaluation sections
};

/// The shared-memory state of the application (addresses only; the data
/// lives on the cluster's shared heap).  Bodies are stored as separate
/// arrays, as in SPLASH-2: the tree build reads only positions, masses and
/// work weights, so under replicated execution only those pages are
/// multicast -- velocities and accelerations stay distributed and are
/// fetched point-to-point by the next owner of each body (the residual
/// parallel-section traffic visible in the paper's Table 2).
struct BhWorld {
  tmk::ShArray<Vec3> pos;
  tmk::ShArray<Vec3> vel;
  tmk::ShArray<Vec3> acc;
  tmk::ShArray<double> mass;
  tmk::ShArray<double> work;
  tmk::ShArray<Cell> cells;
  tmk::ShVar<std::uint32_t> cell_count;
  tmk::ShVar<std::uint32_t> root;
  std::size_t max_cells = 0;
};

/// Allocates the shared-heap state (host side, before Cluster::run).
BhWorld setup_world(tmk::Cluster& cluster, const BhConfig& cfg);

/// Writes the Plummer-model initial bodies into shared memory.  Must run on
/// the master's application fiber (inside Cluster::run), like program
/// initialization in the real system.
void init_bodies(const BhWorld& w, const BhConfig& cfg);

/// Runs `cfg.steps` timesteps under the given team and returns timings
/// measured over the tree-build (sequential) and force (parallel) phases.
/// Must run on the master's application fiber.
BhResult run_steps(tmk::Cluster& cluster, ompnow::Team& team, const BhWorld& w,
                   const BhConfig& cfg);

/// Reference O(N^2) accelerations for validation (host-side, no DSM).
std::vector<Vec3> direct_forces(const std::vector<Body>& bodies, double eps);

/// Host-side Plummer-model generator (same sequence the setup uses).
std::vector<Body> plummer_bodies(int n, std::uint64_t seed);

}  // namespace repseq::apps::bh
