// Regenerates paper Tables 1 and 2: Barnes-Hut execution times and
// execution statistics on 32 nodes.
//
// Three runs feed both tables: the sequential program on one node, the
// base ("Original") OpenMP/TreadMarks system, and the system with
// replicated sequential execution ("Optimized").  The workload is scaled
// down from the paper's 131072 bodies.  Table 2's rows match the paper:
// total messages and data, then per-phase (sequential vs parallel
// sections) diff traffic, request counts and average response times.  The
// shape to check:
//   * optimized total < original total;
//   * optimized sequential-section time > original (replication overhead);
//   * optimized parallel-section time substantially < original;
//   * parallel-section messages/data shrink sharply under replication;
//   * parallel response time drops ~3x (contention gone);
//   * sequential-section messages *rise* (forwarded requests + null acks);
//   * sequential response time rises (flow-controlled multicast).
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
}

void print_stats(const RunReport& orig, const RunReport& opt) {
  using util::fmt_count;
  util::Table t({"", "Original", "Optimized", "paper Orig", "paper Opt"});
  t.add_row({"Total messages", fmt_count(orig.total_msgs), fmt_count(opt.total_msgs),
             "5,106,237", "3,254,275"});
  t.add_row({"      data (KB)", fmt_count(orig.total_kb), fmt_count(opt.total_kb), "795,165",
             "275,351"});
  t.add_rule();
  t.add_row({"Seq  messages", fmt_count(orig.seq_msgs), fmt_count(opt.seq_msgs), "96,848",
             "205,892"});
  t.add_row({"     data (KB)", fmt_count(orig.seq_kb), fmt_count(opt.seq_kb), "10,446",
             "22,443"});
  t.add_row({"     diff requests", fmt_count(orig.seq_requests), fmt_count(opt.seq_requests),
             "3,072", "6,146"});
  t.add_row({"     avg response (ms)", fmt2(orig.seq_response_ms), fmt2(opt.seq_response_ms),
             "0.67", "2.12"});
  t.add_row({"     null acks", fmt_count(orig.seq_null_acks), fmt_count(opt.seq_null_acks),
             "0", "143,738"});
  t.add_rule();
  t.add_row({"Par  messages", fmt_count(orig.par_msgs), fmt_count(opt.par_msgs), "5,006,252",
             "3,045,226"});
  t.add_row({"     data (KB)", fmt_count(orig.par_kb), fmt_count(opt.par_kb), "739,139",
             "221,292"});
  t.add_row({"     avg diff requests", fmt1(orig.par_requests_avg), fmt1(opt.par_requests_avg),
             "8,479", "3,116"});
  t.add_row({"     avg response (ms)", fmt2(orig.par_response_ms), fmt2(opt.par_response_ms),
             "3.34", "0.98"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  std::printf("  parallel data shrinks:   %s (%.0fx reduction; paper 3.3x)\n",
              opt.par_kb < orig.par_kb ? "yes" : "NO",
              static_cast<double>(orig.par_kb) / static_cast<double>(opt.par_kb == 0 ? 1 : opt.par_kb));
  std::printf("  parallel response drops: %s (%.2fms -> %.2fms; paper 3.34 -> 0.98)\n",
              opt.par_response_ms < orig.par_response_ms ? "yes" : "NO", orig.par_response_ms,
              opt.par_response_ms);
  std::printf("  sequential messages rise: %s (%llu -> %llu; paper 96,848 -> 205,892)\n",
              opt.seq_msgs > orig.seq_msgs ? "yes" : "NO",
              static_cast<unsigned long long>(orig.seq_msgs),
              static_cast<unsigned long long>(opt.seq_msgs));
  std::printf("  sequential response rises: %s (%.2fms -> %.2fms; paper 0.67 -> 2.12)\n",
              opt.seq_response_ms > orig.seq_response_ms ? "yes" : "NO", orig.seq_response_ms,
              opt.seq_response_ms);
  std::printf("  slowest thread's parallel diff wait: %.2fs -> %.2fs (paper 34.6 -> 5)\n",
              orig.par_fault_wait_max_s, opt.par_fault_wait_max_s);
}

}  // namespace

int main() {
  const auto cfg = bh_config();
  const std::string note = std::string("this run: ") + std::to_string(cfg.bodies) + " bodies, " +
                           std::to_string(cfg.steps) + " steps, " +
                           std::to_string(bench_nodes()) + " nodes (simulated)";
  print_header("Table 1: Barnes-Hut execution times",
               "PPoPP'01 Table 1 (131072 bodies, 2 steps, 32 nodes)", note.c_str());

  const auto seq = apps::harness::run_barnes_hut(options_for(Mode::Sequential), cfg);
  const auto orig = apps::harness::run_barnes_hut(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_barnes_hut(options_for(Mode::Optimized), cfg);

  if (seq.checksum != orig.checksum || seq.checksum != opt.checksum) {
    std::printf("ERROR: result checksums diverge across modes\n");
    return 1;
  }

  print_times(seq, orig, opt);
  print_header("Table 2: Barnes-Hut execution statistics",
               "PPoPP'01 Table 2 (131072 bodies, 2 steps, 32 nodes)", note.c_str());
  print_stats(orig, opt);
  return 0;
}
