// Regenerates paper Tables 3 and 4: Ilink execution times and execution
// statistics on 32 nodes.
//
// The paper ran the real Ilink on the CLP pedigree (180 iterations); this
// harness runs the structurally-equivalent synthetic linkage workload (see
// src/apps/ilink/ilink.hpp).  Three runs feed both tables: Sequential,
// Original and Optimized.  The shape to check (paper values in the right
// columns):
//   * the optimized system's win is much larger than for Barnes-Hut (paper:
//     speedup 1.9 -> 5.5, +189%), because the base system's parallel
//     sections are almost pure contention;
//   * parallel diff messages fall ~87%, diff data ~97%;
//   * parallel response time falls ~4.7x;
//   * sequential message count *drops slightly* (one multicast replaces
//     several unicasts), unlike Barnes-Hut;
//   * sequential response time roughly doubles.
#include "bench_common.hpp"

using namespace repseq;
using namespace repseq::bench;
using apps::harness::Mode;
using apps::harness::RunReport;

namespace {

void print_times(const RunReport& seq, const RunReport& orig, const RunReport& opt) {
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
}

void print_stats(const RunReport& orig, const RunReport& opt) {
  using util::fmt_count;
  util::Table t({"", "Original", "Optimized", "paper Orig", "paper Opt"});
  t.add_row({"Total messages", fmt_count(orig.total_msgs), fmt_count(opt.total_msgs),
             "1,002,787", "230,392"});
  t.add_row({"      data (KB)", fmt_count(orig.total_kb), fmt_count(opt.total_kb), "565,711",
             "49,535"});
  t.add_rule();
  t.add_row({"Seq  messages", fmt_count(orig.seq_msgs), fmt_count(opt.seq_msgs), "104,530",
             "94,589"});
  t.add_row({"     data (KB)", fmt_count(orig.seq_kb), fmt_count(opt.seq_kb), "2,803", "2,885"});
  t.add_row({"     diff requests", fmt_count(orig.seq_requests), fmt_count(opt.seq_requests),
             "2,836", "2,837"});
  t.add_row({"     avg response (ms)", fmt2(orig.seq_response_ms), fmt2(opt.seq_response_ms),
             "0.94", "1.71"});
  t.add_row({"     null acks", fmt_count(orig.seq_null_acks), fmt_count(opt.seq_null_acks), "0",
             "33,016"});
  t.add_rule();
  t.add_row({"Par  messages", fmt_count(orig.par_msgs), fmt_count(opt.par_msgs), "873,052",
             "111,600"});
  t.add_row({"     data (KB)", fmt_count(orig.par_kb), fmt_count(opt.par_kb), "518,266",
             "13,895"});
  t.add_row({"     avg diff requests", fmt1(orig.par_requests_avg), fmt1(opt.par_requests_avg),
             "12,318", "540"});
  t.add_row({"     avg response (ms)", fmt2(orig.par_response_ms), fmt2(opt.par_response_ms),
             "3.01", "0.64"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  const double kb_cut = orig.par_kb > 0 && opt.par_kb > 0
                            ? 100.0 * (1.0 - static_cast<double>(opt.par_kb) /
                                                 static_cast<double>(orig.par_kb))
                            : 0.0;
  std::printf("  parallel diff data cut:   %s (%.0f%%; paper 97%%)\n",
              opt.par_kb < orig.par_kb ? "yes" : "NO", kb_cut);
  std::printf("  parallel response drops:  %s (%.2fms -> %.2fms; paper 3.01 -> 0.64)\n",
              opt.par_response_ms < orig.par_response_ms ? "yes" : "NO", orig.par_response_ms,
              opt.par_response_ms);
  std::printf("  sequential response rises: %s (%.2fms -> %.2fms; paper 0.94 -> 1.71)\n",
              opt.seq_response_ms > orig.seq_response_ms ? "yes" : "NO", orig.seq_response_ms,
              opt.seq_response_ms);
  std::printf("  slowest thread's parallel diff wait: %.2fs -> %.2fs (paper 39.8 -> 0.4)\n",
              orig.par_fault_wait_max_s, opt.par_fault_wait_max_s);
}

}  // namespace

int main() {
  const auto cfg = ilink_config();
  const std::string note = std::string("this run: ") + std::to_string(cfg.families) +
                           " families, " + std::to_string(cfg.genotypes) + " genotypes, " +
                           std::to_string(cfg.iterations) + " iterations, " +
                           std::to_string(bench_nodes()) + " nodes (simulated)";
  print_header("Table 3: Ilink execution times",
               "PPoPP'01 Table 3 (CLP input, 180 iterations, 32 nodes)", note.c_str());

  const auto seq = apps::harness::run_ilink(options_for(Mode::Sequential), cfg);
  const auto orig = apps::harness::run_ilink(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_ilink(options_for(Mode::Optimized), cfg);

  if (seq.checksum != orig.checksum || seq.checksum != opt.checksum) {
    std::printf("ERROR: likelihood diverges across modes\n");
    return 1;
  }

  print_times(seq, orig, opt);
  print_header("Table 4: Ilink execution statistics",
               "PPoPP'01 Table 4 (CLP input, 180 iterations, 32 nodes)", note.c_str());
  print_stats(orig, opt);
  return 0;
}
