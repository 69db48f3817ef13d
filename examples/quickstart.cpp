// Quickstart: the smallest complete OpenMP/NOW program on the simulated
// cluster -- a vector scale + reduce with a sequential rescaling step
// between two parallel phases, run both on the base system and with
// replicated sequential execution.
//
// Build & run:   ./build/quickstart
//
// What to look at: the two systems print identical results, but the
// replicated run reports zero parallel-section page faults after the
// sequential section -- the contention is gone (the paper's core effect).
#include <cstdio>

#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

using namespace repseq;

namespace {

void run_once(ompnow::SeqMode mode, const char* label) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kElems = 16384;

  // A cluster is an engine + network + one DSM runtime per node.
  tmk::TmkConfig cfg;
  cfg.heap_bytes = 4u << 20;
  tmk::Cluster cluster(cfg, net::NetConfig{}, kNodes);
  rse::RseController rse(cluster, rse::FlowControl::Chained);
  ompnow::Team team(cluster, mode, &rse);

  // Shared data lives on the shared heap and is addressed via ShArray.
  auto data = tmk::ShArray<double>::alloc(cluster, kElems, /*page_aligned=*/true);

  double result = 0.0;
  cluster.run([&](tmk::NodeRuntime&) {
    // Parallel: every thread initializes its block.
    team.parallel_for(0, static_cast<long>(kElems), ompnow::Schedule::StaticBlock,
                      [&](const ompnow::Ctx&, long i) {
                        data.store(static_cast<std::size_t>(i), static_cast<double>(i % 100));
                      });

    // Sequential: rescale everything (the contended section -- on the base
    // system every thread will fetch all of this from the master next).
    team.sequential([&](const ompnow::Ctx&) {
      for (std::size_t i = 0; i < kElems; ++i) data.store(i, data.load(i) * 2.0 + 1.0);
    });

    // Parallel: block-wise reduction into per-thread slots, master folds.
    auto partial = tmk::ShArray<double>::alloc(cluster, kNodes, /*page_aligned=*/true);
    team.parallel([&](const ompnow::Ctx& ctx) {
      const auto r = ompnow::block_range(0, static_cast<long>(kElems), ctx.tid, ctx.nthreads);
      double s = 0.0;
      for (long i = r.lo; i < r.hi; ++i) s += data.load(static_cast<std::size_t>(i));
      partial.store(static_cast<std::size_t>(ctx.tid), s);
    });
    team.sequential([&](const ompnow::Ctx&) {
      double s = 0.0;
      for (std::size_t t = 0; t < kNodes; ++t) s += partial.load(t);
      result = s;
    });
  });

  const tmk::PhaseCounters par = cluster.total(tmk::Phase::Parallel);
  const tmk::PhaseCounters seq = cluster.total(tmk::Phase::Sequential);
  std::printf("%-10s result=%.1f  virtual time=%.3fs  par faults=%llu  "
              "par avg response=%.2fms  seq msgs=%llu\n",
              label, result, cluster.engine().now().seconds(),
              static_cast<unsigned long long>(par.page_faults), par.response_ms.mean(),
              static_cast<unsigned long long>(seq.msgs_sent));
}

}  // namespace

int main() {
  std::printf("OpenMP/NOW quickstart on an 8-node simulated cluster\n\n");
  run_once(ompnow::SeqMode::MasterOnly, "base");
  run_once(ompnow::SeqMode::Replicated, "replicated");
  std::printf("\nSame answer; the replicated run removes the post-sequential fault storm.\n");
  return 0;
}
