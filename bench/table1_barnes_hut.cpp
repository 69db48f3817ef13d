// Regenerates paper Table 1: Barnes-Hut execution times on 32 nodes.
//
// Three runs: the sequential program on one node, the base ("Original")
// OpenMP/TreadMarks system, and the system with replicated sequential
// execution ("Optimized").  The workload is scaled down from the paper's
// 131072 bodies; the shape to check is:
//   * optimized total < original total;
//   * optimized sequential-section time > original (replication overhead);
//   * optimized parallel-section time substantially < original.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;

  const auto cfg = bh_config();
  print_header("Table 1: Barnes-Hut execution times",
               "PPoPP'01 Table 1 (131072 bodies, 2 steps, 32 nodes)",
               (std::string("this run: ") + std::to_string(cfg.bodies) + " bodies, " +
                std::to_string(cfg.steps) + " steps, " + std::to_string(bench_nodes()) +
                " nodes (simulated)")
                   .c_str());

  const auto seq = apps::harness::run_barnes_hut(options_for(Mode::Sequential), cfg);
  const auto orig = apps::harness::run_barnes_hut(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_barnes_hut(options_for(Mode::Optimized), cfg);

  if (seq.checksum != orig.checksum || seq.checksum != opt.checksum) {
    std::printf("ERROR: result checksums diverge across modes\n");
    return 1;
  }

  util::Table t({"", "Sequential", "Original", "Optimized", "paper Seq", "paper Orig",
                 "paper Opt"});
  t.add_row({"Total time (sec.)", fmt1(seq.total_s), fmt1(orig.total_s), fmt1(opt.total_s),
             "359.4", "53.6", "35.5"});
  t.add_row({"Total Speedup", "N/A", fmt1(seq.total_s / orig.total_s),
             fmt1(seq.total_s / opt.total_s), "N/A", "6.7", "10.1"});
  t.add_row({"Sequential time (sec.)", fmt1(seq.seq_s), fmt1(orig.seq_s), fmt1(opt.seq_s),
             "1.4", "3.2", "14.4"});
  t.add_row({"Parallel time (sec.)", fmt1(seq.par_s), fmt1(orig.par_s), fmt1(opt.par_s),
             "358.0", "50.4", "21.1"});
  t.add_row({"Parallel speedup", "N/A", fmt1(seq.par_s / orig.par_s),
             fmt1(seq.par_s / opt.par_s), "N/A", "7.1", "17.0"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  std::printf("  optimized beats original overall: %s (%.1fs vs %.1fs; paper +51%%, here %s)\n",
              opt.total_s < orig.total_s ? "yes" : "NO",
              opt.total_s, orig.total_s,
              util::fmt_pct_change(seq.total_s / orig.total_s, seq.total_s / opt.total_s).c_str());
  std::printf("  replication slows the sequential sections: %s (%.2fs vs %.2fs)\n",
              opt.seq_s > orig.seq_s ? "yes" : "NO", opt.seq_s, orig.seq_s);
  std::printf("  parallel sections accelerate: %s (%.2fs vs %.2fs)\n",
              opt.par_s < orig.par_s ? "yes" : "NO", opt.par_s, orig.par_s);
  return 0;
}
