// Ilink demo: the genetic-linkage workload on a simulated 16-node cluster.
// Shows the conditional parallelization (`if` clause) taking both paths and
// the severe genarray-pool contention of the base system.
//
// Build & run:   ./build/ilink_demo
#include <cstdio>

#include "apps/harness/run_modes.hpp"

using namespace repseq;
using apps::harness::Mode;

int main() {
  apps::ilink::IlinkConfig cfg;
  cfg.families = 3;
  cfg.children = 3;
  cfg.genotypes = 2048;
  cfg.iterations = 4;

  std::printf("Ilink-style linkage analysis: %d families, %d genotypes, %d iterations,\n"
              "16 simulated nodes\n\n",
              cfg.families, cfg.genotypes, cfg.iterations);
  std::printf("%-13s %10s %9s %9s %12s %14s\n", "mode", "total(s)", "seq(s)", "par(s)",
              "par KB", "par resp(ms)");

  double likelihood = 0.0;
  for (Mode mode : {Mode::Sequential, Mode::Original, Mode::Optimized}) {
    apps::harness::RunOptions opt;
    opt.mode = mode;
    opt.nodes = 16;
    opt.tmk.heap_bytes = 16u << 20;
    const auto r = apps::harness::run_ilink(opt, cfg);
    if (mode == Mode::Sequential) {
      likelihood = r.checksum;
    } else if (r.checksum != likelihood) {
      std::printf("ERROR: likelihood mismatch in %s mode\n", apps::harness::mode_name(mode));
      return 1;
    }
    std::printf("%-13s %10.2f %9.2f %9.2f %12llu %14.2f\n", apps::harness::mode_name(mode),
                r.total_s, r.seq_s, r.par_s, static_cast<unsigned long long>(r.par_kb),
                r.par_response_ms);
  }

  std::printf("\nExact likelihood agreement across modes (%.0f): the synthetic kernel\n"
              "stays integer-valued in doubles, so any consistency bug breaks equality.\n",
              likelihood);
  return 0;
}
