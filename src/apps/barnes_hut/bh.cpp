#include "apps/barnes_hut/bh.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "util/check.hpp"

namespace repseq::apps::bh {

namespace {

using ompnow::Ctx;

/// Barrier id separating force evaluation from position integration.
constexpr std::uint32_t kBhPhaseBarrier = 100;

/// Octant of `p` relative to center `c`: bit0 = x, bit1 = y, bit2 = z.
int octant(const Vec3& p, const Vec3& c) {
  return (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0) | (p.z >= c.z ? 4 : 0);
}

Vec3 child_center(const Vec3& c, double half, int oct) {
  const double q = half / 2.0;
  return {c.x + ((oct & 1) ? q : -q), c.y + ((oct & 2) ? q : -q), c.z + ((oct & 4) ? q : -q)};
}

}  // namespace

std::vector<Body> plummer_bodies(int n, std::uint64_t seed) {
  // Plummer-model positions with small deterministic velocities; rejection
  // sampling keeps the model standard while staying fully reproducible.
  sim::Rng rng(seed);
  std::vector<Body> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double m = 1.0 / n;
    double r;
    do {
      const double u = rng.uniform(1e-4, 0.999);
      r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    } while (r > 8.0);
    const double ctheta = rng.uniform(-1.0, 1.0);
    const double phi = rng.uniform(0.0, 2.0 * 3.141592653589793);
    const double stheta = std::sqrt(std::max(0.0, 1.0 - ctheta * ctheta));
    Body b;
    b.pos = {r * stheta * std::cos(phi), r * stheta * std::sin(phi), r * ctheta};
    b.vel = {-b.pos.y * 0.05, b.pos.x * 0.05, 0.0};  // mild rotation
    b.mass = m;
    b.work = 1.0;
    out[static_cast<std::size_t>(i)] = b;
  }
  return out;
}

std::vector<Vec3> direct_forces(const std::vector<Body>& bodies, double eps) {
  std::vector<Vec3> acc(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    Vec3 a;
    for (std::size_t j = 0; j < bodies.size(); ++j) {
      if (i == j) continue;
      const Vec3 dr = bodies[j].pos - bodies[i].pos;
      const double r2 = dr.norm2() + eps * eps;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      a += dr * (bodies[j].mass * inv);
    }
    acc[i] = a;
  }
  return acc;
}

BhWorld setup_world(tmk::Cluster& cluster, const BhConfig& cfg) {
  BhWorld w;
  const auto n = static_cast<std::size_t>(cfg.bodies);
  w.max_cells = n * 4 + 64;
  w.pos = tmk::ShArray<Vec3>::alloc(cluster, n, /*page_aligned=*/true);
  w.vel = tmk::ShArray<Vec3>::alloc(cluster, n, /*page_aligned=*/true);
  w.acc = tmk::ShArray<Vec3>::alloc(cluster, n, /*page_aligned=*/true);
  w.mass = tmk::ShArray<double>::alloc(cluster, n, /*page_aligned=*/true);
  w.work = tmk::ShArray<double>::alloc(cluster, n, /*page_aligned=*/true);
  w.cells = tmk::ShArray<Cell>::alloc(cluster, w.max_cells, /*page_aligned=*/true);
  w.cell_count = tmk::ShVar<std::uint32_t>::alloc(cluster);
  w.root = tmk::ShVar<std::uint32_t>::alloc(cluster);
  return w;
}

void init_bodies(const BhWorld& w, const BhConfig& cfg) {
  const std::vector<Body> init = plummer_bodies(cfg.bodies, cfg.seed);
  for (std::size_t i = 0; i < init.size(); ++i) {
    w.pos.store(i, init[i].pos);
    w.vel.store(i, init[i].vel);
    w.acc.store(i, init[i].acc);
    w.mass.store(i, init[i].mass);
    w.work.store(i, init[i].work);
  }
}

namespace {

/// Sequential section body: rebuild the oct-tree.  Reads every body;
/// rewrites the cell pool.  Deterministic, as replication requires.
void build_tree(const Ctx& ctx, const BhWorld& w, const BhConfig& cfg) {
  tmk::NodeRuntime& rt = ctx.rt;
  const std::size_t n = w.pos.size();

  // Bounding cube over all bodies (reads all particle pages -> these are
  // what gets multicast during replicated execution, Section 6.1.2).
  Vec3 lo{1e30, 1e30, 1e30};
  Vec3 hi{-1e30, -1e30, -1e30};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p = w.pos.load(i);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    rt.charge(sim::SimDuration{60});
  }
  const Vec3 center = (lo + hi) * 0.5;
  const double half =
      0.5 * std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-6}) + 1e-6;

  // Reset the pool and allocate the root.
  auto alloc_cell = [&](const Vec3& c, double h) {
    const std::uint32_t idx = w.cell_count.load();
    REPSEQ_CHECK(idx < w.max_cells, "cell pool exhausted");
    w.cell_count.store(idx + 1);
    Cell fresh;
    fresh.center = c;
    fresh.half = h;
    w.cells.store(idx, fresh);
    return idx;
  };
  w.cell_count.store(0);
  const std::uint32_t root = alloc_cell(center, half);
  w.root.store(root);

  // Insert all bodies.
  for (std::uint32_t i = 0; i < n; ++i) {
    const Vec3 p = w.pos.load(static_cast<std::size_t>(i));
    std::uint32_t cur = root;
    int depth = 0;
    for (;;) {
      REPSEQ_CHECK(++depth < 80, "oct-tree degenerated (coincident bodies?)");
      rt.charge(cfg.cost_tree_insert);
      Cell cell = w.cells.load(cur);
      const int oct = octant(p, cell.center);
      const std::uint32_t c = cell.child[oct];
      if (c == kNullChild) {
        Cell upd = w.cells.load(cur);
        upd.child[oct] = kBodyTag | i;
        w.cells.store(cur, upd);
        break;
      }
      if (is_body_child(c)) {
        // Split: push the resident body one level down, then retry.
        const std::uint32_t other = body_index(c);
        const Vec3 po = w.pos.load(static_cast<std::size_t>(other));
        const std::uint32_t sub = alloc_cell(child_center(cell.center, cell.half, oct),
                                             cell.half / 2.0);
        Cell subc = w.cells.load(sub);
        subc.child[octant(po, subc.center)] = kBodyTag | other;
        w.cells.store(sub, subc);
        Cell upd = w.cells.load(cur);
        upd.child[oct] = sub;
        w.cells.store(cur, upd);
        continue;  // descend into `sub` on the next loop turn via `cur`
      }
      cur = c;
    }
  }

  // Bottom-up pass: centers of mass, total mass, subtree work (iterative
  // post-order; replicated stacks are private per node).
  struct Frame {
    std::uint32_t cell;
    int next_child;
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    Cell cell = w.cells.load(f.cell);
    if (f.next_child < 8) {
      const std::uint32_t c = cell.child[f.next_child];
      ++f.next_child;
      if (c != kNullChild && !is_body_child(c)) {
        stack.push_back({c, 0});
      }
      continue;
    }
    // All children resolved: fold them.
    rt.charge(cfg.cost_com_cell);
    Vec3 com;
    double mass = 0;
    double work = 0;
    std::uint32_t count = 0;
    for (const std::uint32_t c : cell.child) {
      if (c == kNullChild) continue;
      if (is_body_child(c)) {
        const std::uint32_t b = body_index(c);
        const Vec3 bp = w.pos.load(b);
        const double bm = w.mass.load(b);
        com += bp * bm;
        mass += bm;
        work += w.work.load(b);
        ++count;
      } else {
        const Cell sub = w.cells.load(c);
        com += sub.com * sub.mass;
        mass += sub.mass;
        work += sub.work;
        count += sub.nbodies;
      }
    }
    cell.com = mass > 0 ? com * (1.0 / mass) : cell.center;
    cell.mass = mass;
    cell.work = work;
    cell.nbodies = count;
    w.cells.store(f.cell, cell);
    stack.pop_back();
  }
}

/// Collects this thread's bodies: Morton-order (child-index-order) DFS,
/// taking the bodies whose cumulative work falls in the thread's window.
std::vector<std::uint32_t> find_segment(const Ctx& ctx, const BhWorld& w, const BhConfig& cfg) {
  const std::uint32_t root = w.root.load();
  const Cell rootc = w.cells.load(root);
  const double total = rootc.work;
  const double wlo = total * ctx.tid / ctx.nthreads;
  const double whi = total * (ctx.tid + 1) / ctx.nthreads;

  std::vector<std::uint32_t> mine;
  double cum = 0;
  struct Frame {
    std::uint32_t cell;
    int next_child;
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child >= 8) {
      stack.pop_back();
      continue;
    }
    ctx.rt.charge(cfg.cost_partition_step);
    const Cell cell = w.cells.load(f.cell);
    const std::uint32_t c = cell.child[f.next_child];
    ++f.next_child;
    if (c == kNullChild) continue;
    if (is_body_child(c)) {
      const std::uint32_t b = body_index(c);
      const double bw = w.work.load(b);
      // Assign the body to the window containing its midpoint.
      const double mid = cum + bw / 2.0;
      if (mid >= wlo && mid < whi) mine.push_back(b);
      cum += bw;
    } else {
      const Cell sub = w.cells.load(c);
      if (cum + sub.work <= wlo || cum >= whi) {
        cum += sub.work;  // disjoint subtree: skip wholesale
      } else {
        stack.push_back({c, 0});
      }
    }
  }
  return mine;
}

/// Barnes-Hut force on one body; returns interactions performed.
std::uint64_t force_on(const Ctx& ctx, const BhWorld& w, const BhConfig& cfg,
                       std::uint32_t bi, const Vec3& pos, Vec3& acc) {
  std::uint64_t interactions = 0;
  std::vector<std::uint32_t> stack{w.root.load()};
  const double inv_theta = 1.0 / cfg.theta;
  while (!stack.empty()) {
    const std::uint32_t ci = stack.back();
    stack.pop_back();
    const Cell cell = w.cells.load(ci);
    const Vec3 dr = cell.com - pos;
    const double d2 = dr.norm2();
    const double open = 2.0 * cell.half * inv_theta;
    if (open * open < d2) {
      // Far enough: one cell-body interaction with the center of mass.
      const double r2 = d2 + cfg.eps * cfg.eps;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      acc += dr * (cell.mass * inv);
      ++interactions;
      ctx.rt.charge(cfg.cost_interaction);
      continue;
    }
    for (const std::uint32_t c : cell.child) {
      if (c == kNullChild) continue;
      if (is_body_child(c)) {
        const std::uint32_t bj = body_index(c);
        if (bj == bi) continue;
        const Vec3 db = w.pos.load(bj) - pos;
        const double r2 = db.norm2() + cfg.eps * cfg.eps;
        const double inv = 1.0 / (r2 * std::sqrt(r2));
        acc += db * (w.mass.load(bj) * inv);
        ++interactions;
        ctx.rt.charge(cfg.cost_interaction);
      } else {
        stack.push_back(c);
      }
    }
  }
  return interactions;
}

}  // namespace

BhResult run_steps(tmk::Cluster& cluster, ompnow::Team& team, const BhWorld& w,
                   const BhConfig& cfg) {
  BhResult res;
  const sim::SimTime t0 = cluster.engine().now();
  std::vector<std::uint64_t> interactions(cluster.node_count(), 0);

  for (int step = 0; step < cfg.steps; ++step) {
    team.sequential(kSectionTreeBuild, [&](const Ctx& ctx) { build_tree(ctx, w, cfg); });

    team.parallel([&](const Ctx& ctx) {
      const std::vector<std::uint32_t> mine = find_segment(ctx, w, cfg);
      // Phase 1: evaluate forces against the *old* positions.  Only the
      // acceleration (and work) words are written, so concurrent readers of
      // positions on the same pages are unaffected (multiple-writer
      // protocol; release consistency hides these writes until the next
      // synchronization anyway).
      std::vector<Vec3> accs(mine.size());
      std::vector<double> works(mine.size());
      for (std::size_t k = 0; k < mine.size(); ++k) {
        const Vec3 pos = w.pos.load(mine[k]);
        Vec3 acc;
        const std::uint64_t inter = force_on(ctx, w, cfg, mine[k], pos, acc);
        accs[k] = acc;
        works[k] = static_cast<double>(inter);
        interactions[static_cast<std::size_t>(ctx.tid)] += inter;
      }
      // Phase 2 (after a barrier, as in SPLASH-2): integrate positions.
      // Velocities were last written by the body's previous owner, so these
      // loads are the residual point-to-point traffic of the optimized
      // system's parallel sections.
      ctx.barrier(kBhPhaseBarrier);
      for (std::size_t k = 0; k < mine.size(); ++k) {
        const std::uint32_t bi = mine[k];
        Vec3 v = w.vel.load(bi) + accs[k] * cfg.dt;
        w.acc.store(bi, accs[k]);
        w.vel.store(bi, v);
        w.pos.store(bi, w.pos.load(bi) + v * cfg.dt);
        w.work.store(bi, works[k]);
      }
    });
  }

  // Checksum on the master (counts as ordinary sequential execution).
  double checksum = 0;
  for (std::size_t i = 0; i < w.pos.size(); ++i) {
    const Vec3 p = w.pos.load(i);
    checksum += std::abs(p.x) + std::abs(p.y) + std::abs(p.z);
  }
  res.checksum = checksum;
  for (const auto v : interactions) res.interactions += v;
  res.total_time = cluster.engine().now() - t0;
  res.seq_time = team.sequential_time();
  res.par_time = team.parallel_time();
  return res;
}

}  // namespace repseq::apps::bh
