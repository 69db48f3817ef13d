// Ablation A2 (paper Section 4.2): "multicast all data modified during the
// sequential execution to all threads" as an alternative to replication.
//
// The paper argues this is expensive when threads access only a small part
// of the modified data (Barnes-Hut: most of the tree is accessed by only a
// subset of threads) but acknowledges it is reasonable where everything is
// read by everyone.  Ilink's genarray pool is the latter case; Barnes-Hut
// with more nodes is the former.  This harness shows both sides.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;

  print_header("Ablation: broadcast-all-modified-data vs replication",
               "PPoPP'01 Section 4.2",
               "push everything (BroadcastSeq) vs replicate + pull-on-demand (Optimized)");

  // The push-everything strawman fans the section's data out as one unicast
  // per destination: select the DirectAll transport for the broadcast runs
  // (REPSEQ_TRANSPORT still overrides for cross-backend sweeps).
  apps::harness::RunOptions bcast_opt = options_for(Mode::BroadcastSeq);
  bcast_opt.net.transport = bench_transport(net::TransportKind::DirectAll);
  std::printf("broadcast runs use the '%s' transport\n\n",
              net::transport_name(bcast_opt.net.transport));

  {
    const apps::ilink::IlinkConfig cfg = ilink_config({.iterations = 4});
    const auto orig = apps::harness::run_ilink(options_for(Mode::Original), cfg);
    const auto bcast = apps::harness::run_ilink(bcast_opt, cfg);
    const auto opt = apps::harness::run_ilink(options_for(Mode::Optimized), cfg);
    if (orig.checksum != bcast.checksum || orig.checksum != opt.checksum) {
      std::printf("ERROR: Ilink results diverge across modes\n");
      return 1;
    }
    util::Table t({"Ilink", "Original", "BroadcastAll", "Optimized (RSE)"});
    t.add_row({"Total time (s)", fmt2(orig.total_s), fmt2(bcast.total_s), fmt2(opt.total_s)});
    t.add_row({"Sequential time (s)", fmt2(orig.seq_s), fmt2(bcast.seq_s), fmt2(opt.seq_s)});
    t.add_row({"Parallel time (s)", fmt2(orig.par_s), fmt2(bcast.par_s), fmt2(opt.par_s)});
    t.add_row({"Total data (KB)", util::fmt_count(orig.total_kb), util::fmt_count(bcast.total_kb),
               util::fmt_count(opt.total_kb)});
    std::printf("%s", t.render().c_str());
    std::printf("Ilink reads the whole pool everywhere, so pushing it wholesale is viable\n"
                "(paper: \"no benefit is gained from broadcasting each thread's contribution\"\n"
                " applies to the replicated run's extra data, not to correctness).\n\n");
  }

  {
    const apps::bh::BhConfig cfg = bh_config({.bodies = 2048});
    const auto bcast = apps::harness::run_barnes_hut(bcast_opt, cfg);
    const auto opt = apps::harness::run_barnes_hut(options_for(Mode::Optimized), cfg);
    if (bcast.checksum != opt.checksum) {
      std::printf("ERROR: Barnes-Hut results diverge across modes\n");
      return 1;
    }
    util::Table t({"Barnes-Hut", "BroadcastAll", "Optimized (RSE)"});
    t.add_row({"Total time (s)", fmt2(bcast.total_s), fmt2(opt.total_s)});
    t.add_row({"Sequential time (s)", fmt2(bcast.seq_s), fmt2(opt.seq_s)});
    t.add_row({"Parallel time (s)", fmt2(bcast.par_s), fmt2(opt.par_s)});
    t.add_row({"Total data (KB)", util::fmt_count(bcast.total_kb), util::fmt_count(opt.total_kb)});
    std::printf("%s", t.render().c_str());
    std::printf("Barnes-Hut pushes the whole tree to everyone under BroadcastAll; the\n"
                "replicated system moves only what replicas actually read (\"with a larger\n"
                "problem size ... most data to be accessed by an ever smaller number of\n"
                "threads\", Section 4.2).\n");
  }
  return 0;
}
