// Regenerates paper Table 3: Ilink execution times on 32 nodes.
//
// The paper ran the real Ilink on the CLP pedigree (180 iterations); this
// harness runs the structurally-equivalent synthetic linkage workload (see
// src/apps/ilink/ilink.hpp).  Shape to check: the optimized system's win is
// much larger than for Barnes-Hut (paper: speedup 1.9 -> 5.5, +189%),
// because the base system's parallel sections are almost pure contention.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;

  const auto cfg = ilink_config();
  print_header("Table 3: Ilink execution times",
               "PPoPP'01 Table 3 (CLP input, 180 iterations, 32 nodes)",
               (std::string("this run: ") + std::to_string(cfg.families) + " families, " +
                std::to_string(cfg.genotypes) + " genotypes, " +
                std::to_string(cfg.iterations) + " iterations, " +
                std::to_string(bench_nodes()) + " nodes (simulated)")
                   .c_str());

  const auto seq = apps::harness::run_ilink(options_for(Mode::Sequential), cfg);
  const auto orig = apps::harness::run_ilink(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_ilink(options_for(Mode::Optimized), cfg);

  if (seq.checksum != orig.checksum || seq.checksum != opt.checksum) {
    std::printf("ERROR: likelihood diverges across modes\n");
    return 1;
  }

  util::Table t({"", "Sequential", "Original", "Optimized", "paper Seq", "paper Orig",
                 "paper Opt"});
  t.add_row({"Total time (sec.)", fmt1(seq.total_s), fmt1(orig.total_s), fmt1(opt.total_s),
             "99.0", "53.6", "18.0"});
  t.add_row({"Total Speedup", "N/A", fmt1(seq.total_s / orig.total_s),
             fmt1(seq.total_s / opt.total_s), "N/A", "1.9", "5.5"});
  t.add_row({"Sequential time (sec.)", fmt1(seq.seq_s), fmt1(orig.seq_s), fmt1(opt.seq_s),
             "2.2", "5.5", "9.2"});
  t.add_row({"Parallel time (sec.)", fmt1(seq.par_s), fmt1(orig.par_s), fmt1(opt.par_s),
             "96.8", "48.1", "8.8"});
  t.add_row({"Parallel speedup", "N/A", fmt1(seq.par_s / orig.par_s),
             fmt1(seq.par_s / opt.par_s), "N/A", "2.0", "11.0"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  std::printf("  optimized beats original overall: %s (%.1fs vs %.1fs; paper +189%%, here %s)\n",
              opt.total_s < orig.total_s ? "yes" : "NO", opt.total_s, orig.total_s,
              util::fmt_pct_change(seq.total_s / orig.total_s, seq.total_s / opt.total_s).c_str());
  std::printf("  replication slows the sequential sections: %s (%.2fs vs %.2fs)\n",
              opt.seq_s > orig.seq_s ? "yes" : "NO", opt.seq_s, orig.seq_s);
  std::printf("  parallel sections collapse: %s (%.2fs vs %.2fs; paper 48.1 -> 8.8)\n",
              opt.par_s < orig.par_s ? "yes" : "NO", opt.par_s, orig.par_s);
  return 0;
}
