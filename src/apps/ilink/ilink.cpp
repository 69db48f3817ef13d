#include "apps/ilink/ilink.hpp"

#include <cmath>
#include <string>

#include "sim/rng.hpp"
#include "util/check.hpp"

namespace repseq::apps::ilink {

namespace {

using ompnow::Ctx;
using ompnow::Schedule;

constexpr double kModulus = 251.0;

/// Exact integer-in-double modular fold; all values stay far below 2^53 so
/// results are bit-identical regardless of execution interleaving.
double fold(double pool_value, int other, std::uint32_t i) {
  return std::fmod(pool_value * (other + 2) + static_cast<double>(i % 97), kModulus);
}

double init_value(int family, int person, std::uint32_t i, int iteration) {
  return std::fmod(static_cast<double>(i) * 7.0 + person * 13.0 + family * 3.0 +
                       iteration * 29.0,
                   kModulus);
}

/// Where member `m` reads member `o`'s genarray for output element i
/// (sparse, pointer-chased -- irregular by construction).
std::uint32_t probe_index(std::uint32_t i, int o, int genotypes) {
  return (i * 31 + static_cast<std::uint32_t>(o) * 1543 + 11) %
         static_cast<std::uint32_t>(genotypes);
}

}  // namespace

IlinkWorld setup_world(tmk::Cluster& cluster, const IlinkConfig& cfg) {
  // The pedigree generator below draws from [min_nonzero, max_nonzero) and
  // spaces indices by up to 2 * genotypes / max_nonzero: an empty range
  // would divide by zero deep inside the RNG.
  REPSEQ_CHECK(cfg.families >= 1,
               "IlinkConfig.families must be >= 1, got " + std::to_string(cfg.families));
  REPSEQ_CHECK(0 <= cfg.min_nonzero && cfg.min_nonzero < cfg.max_nonzero,
               "IlinkConfig needs 0 <= min_nonzero < max_nonzero, got min_nonzero " +
                   std::to_string(cfg.min_nonzero) + ", max_nonzero " +
                   std::to_string(cfg.max_nonzero));
  REPSEQ_CHECK(cfg.max_nonzero <= std::int64_t{2} * cfg.genotypes,
               "IlinkConfig needs max_nonzero <= 2 * genotypes, got max_nonzero " +
                   std::to_string(cfg.max_nonzero) + ", genotypes " +
                   std::to_string(cfg.genotypes));
  IlinkWorld w;
  const std::size_t page_doubles = cluster.config().page_bytes / sizeof(double);
  auto round_up = [&](std::size_t v) {
    return (v + page_doubles - 1) / page_doubles * page_doubles;
  };
  w.person_stride = round_up(static_cast<std::size_t>(cfg.genotypes));
  w.pool = tmk::ShArray<double>::alloc(
      cluster, w.person_stride * static_cast<std::size_t>(cfg.pool_persons()),
      /*page_aligned=*/true);
  w.contrib = tmk::ShArray<double>::alloc(cluster, round_up(static_cast<std::size_t>(cfg.max_nonzero)),
                                          /*page_aligned=*/true);

  // The static pedigree: per (family, person) a sorted list of non-zero
  // genotype indices (stands in for the input file's recombination data).
  sim::Rng rng(cfg.seed);
  w.nonzeros.resize(static_cast<std::size_t>(cfg.families));
  for (int f = 0; f < cfg.families; ++f) {
    auto& family = w.nonzeros[static_cast<std::size_t>(f)];
    family.resize(static_cast<std::size_t>(cfg.pool_persons()));
    for (int p = 0; p < cfg.pool_persons(); ++p) {
      const auto count = static_cast<std::uint32_t>(
          cfg.min_nonzero + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(cfg.max_nonzero - cfg.min_nonzero))));
      std::vector<std::uint32_t> idx;
      idx.reserve(count);
      std::uint32_t cur = static_cast<std::uint32_t>(rng.next_below(7));
      for (std::uint32_t k = 0; k < count; ++k) {
        if (cur >= static_cast<std::uint32_t>(cfg.genotypes)) break;
        idx.push_back(cur);
        cur += 1 + static_cast<std::uint32_t>(rng.next_below(
                       static_cast<std::uint64_t>(2 * cfg.genotypes / cfg.max_nonzero)));
      }
      family[static_cast<std::size_t>(p)] = std::move(idx);
    }
  }
  return w;
}

IlinkResult run_program(tmk::Cluster& cluster, ompnow::Team& team, const IlinkWorld& w,
                        const IlinkConfig& cfg) {
  IlinkResult res;
  const sim::SimTime t0 = cluster.engine().now();
  const int persons = cfg.pool_persons();
  double likelihood = 0.0;

  auto pool_at = [&](int person, std::uint32_t i) {
    return w.person_stride * static_cast<std::size_t>(person) + i;
  };

  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (int fam = 0; fam < cfg.families; ++fam) {
      // Moving to a new nuclear family: the master (or, when replicated,
      // every node) reinitializes the entire pool of genarrays -- the
      // paper's "extremely severe" contention point (Section 6.2.1).
      team.sequential(kSectionPoolInit, [&](const Ctx& ctx) {
        for (int p = 0; p < persons; ++p) {
          for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(cfg.genotypes); ++i) {
            w.pool.store(pool_at(p, i), init_value(fam, p, i, iter));
            ctx.rt.charge(cfg.cost_init_element);
          }
        }
      });

      // Visit every member of the nuclear family: update the member's
      // genarray conditioned on all other members.
      for (int m = 0; m < persons; ++m) {
        const std::vector<std::uint32_t>& nz =
            w.nonzeros[static_cast<std::size_t>(fam)][static_cast<std::size_t>(m)];
        const bool parallelize = static_cast<int>(nz.size()) > cfg.threshold;

        if (parallelize) {
          ++res.parallel_updates;
          // Non-zero elements assigned cyclically to the threads; each
          // thread computes into its own contribution buffer.
          team.parallel_for(
              0, static_cast<long>(nz.size()), Schedule::StaticCyclic,
              [&, m](const Ctx& ctx, long posl) {
                const auto pos = static_cast<std::size_t>(posl);
                const std::uint32_t i = nz[pos];
                double val = 0.0;
                for (int o = 0; o < persons; ++o) {
                  if (o == m) continue;
                  const double pv = w.pool.load(pool_at(o, probe_index(i, o, cfg.genotypes)));
                  val += fold(pv, o, i);
                }
                w.contrib.store(pos, val);  // cyclic false sharing by design
                ctx.rt.charge(cfg.cost_element);
              });

          // The master sums up the threads' contributions (sequential
          // section; replicated in the optimized system).  The contribution
          // buffer is a few densely packed pages carrying one diff per
          // writer -- what the multiple-writer protocol merges.
          team.sequential(kSectionSumContrib, [&, m](const Ctx& ctx) {
            double fam_sum = 0.0;
            for (std::size_t pos = 0; pos < nz.size(); ++pos) {
              const std::uint32_t i = nz[pos];
              const double val = w.contrib.load(pos);
              w.pool.store(pool_at(m, i), std::fmod(val, kModulus));
              fam_sum += val;
              ctx.rt.charge(cfg.cost_sum_element);
            }
            if (ctx.is_master()) likelihood += fam_sum;
          });
        } else {
          ++res.serial_updates;
          // Below the threshold the update stays in the sequential flow
          // (the OpenMP `if` clause, Section 6.2.1).
          team.sequential(kSectionSerialUpdate, [&, m](const Ctx& ctx) {
            double fam_sum = 0.0;
            for (const std::uint32_t i : nz) {
              double val = 0.0;
              for (int o = 0; o < persons; ++o) {
                if (o == m) continue;
                const double pv = w.pool.load(pool_at(o, probe_index(i, o, cfg.genotypes)));
                val += fold(pv, o, i);
              }
              w.pool.store(pool_at(m, i), std::fmod(val, kModulus));
              fam_sum += val;
              ctx.rt.charge(cfg.cost_element);
            }
            if (ctx.is_master()) likelihood += fam_sum;
          });
        }
      }
    }
  }

  res.likelihood = likelihood;
  res.total_time = cluster.engine().now() - t0;
  res.seq_time = team.sequential_time();
  res.par_time = team.parallel_time();
  return res;
}

}  // namespace repseq::apps::ilink
