// Figure-style experiment F2: base vs optimized speedup as the cluster
// grows.  The paper reports only the 32-node endpoints (Tables 1 and 3);
// this sweep shows where contention starts to dominate the base system and
// where the replication overhead amortizes.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;

  const std::size_t max_nodes = bench_nodes();
  const apps::bh::BhConfig bh = bh_config({.bodies = 2048});
  const apps::ilink::IlinkConfig il = ilink_config({.families = 2, .iterations = 2});

  print_header("Sweep: speedup vs cluster size (base vs replicated)",
               "PPoPP'01 Tables 1/3 give the 32-node endpoints",
               (std::string("this run: Barnes-Hut ") + std::to_string(bh.bodies) + " bodies, " +
                std::to_string(bh.steps) + " steps; Ilink " + std::to_string(il.families) +
                " families, " + std::to_string(il.iterations) +
                " iterations; speedup = 1-node sequential time / total time")
                   .c_str());

  const double bh_base = apps::harness::run_barnes_hut(options_for(Mode::Sequential, 1), bh).total_s;
  const double il_base = apps::harness::run_ilink(options_for(Mode::Sequential, 1), il).total_s;

  util::Table t({"nodes", "BH orig", "BH opt", "Ilink orig", "Ilink opt",
                 "BH opt hub max (ms)"});
  std::size_t last_nodes = 0;
  double hub_max_last = 0;
  std::size_t shards = 1;
  for (std::size_t nodes : {2, 4, 8, 16, 32}) {
    if (nodes > max_nodes) break;
    const auto bo = apps::harness::run_barnes_hut(options_for(Mode::Original, nodes), bh);
    const auto br = apps::harness::run_barnes_hut(options_for(Mode::Optimized, nodes), bh);
    const auto io = apps::harness::run_ilink(options_for(Mode::Original, nodes), il);
    const auto ir = apps::harness::run_ilink(options_for(Mode::Optimized, nodes), il);
    last_nodes = nodes;
    hub_max_last = br.hub_busy_max_s * 1e3;
    shards = br.hub_shards;
    t.add_row({std::to_string(nodes), fmt1(bh_base / bo.total_s), fmt1(bh_base / br.total_s),
               fmt1(il_base / io.total_s), fmt1(il_base / ir.total_s),
               fmt2(br.hub_busy_max_s * 1e3)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nExpected shape: the optimized curves pull ahead as node count grows,\n"
              "with the larger relative win on Ilink (paper: +51%% BH, +189%% Ilink at 32).\n");
  std::printf("Multicast medium: %zu shard(s); busiest shard at %zu nodes transmitted for"
              " %.2f ms.\n",
              shards, last_nodes, hub_max_last);
  return 0;
}
