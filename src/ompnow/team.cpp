#include "ompnow/team.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repseq::ompnow {

Range block_range(long lo, long hi, int tid, int nthreads) {
  const long n = hi - lo;
  const long base = n / nthreads;
  const long extra = n % nthreads;
  const long begin = lo + tid * base + std::min<long>(tid, extra);
  const long len = base + (tid < extra ? 1 : 0);
  return {begin, begin + len};
}

Team::Team(tmk::Cluster& cluster, SeqMode seq_mode, rse::RseController* rse,
           rse::policy::PolicyEngine* policy)
    : cluster_(cluster), seq_mode_(seq_mode), rse_(rse), policy_(policy) {
  if (seq_mode_ == SeqMode::Replicated) {
    REPSEQ_CHECK(rse_ != nullptr, "Replicated mode requires an RseController");
  }
  if (seq_mode_ == SeqMode::Adaptive) {
    REPSEQ_CHECK(rse_ != nullptr && policy_ != nullptr,
                 "Adaptive mode requires an RseController and a PolicyEngine");
  }
}

void Team::run_region(std::uint64_t work_id, tmk::Phase phase) {
  tmk::NodeRuntime& master = cluster_.node(0);
  master.fork(work_id, phase);
  cluster_.work(work_id)(master);  // the master thread participates
  master.join_master();
}

void Team::parallel(std::function<void(const Ctx&)> body) {
  const sim::SimTime t0 = cluster_.engine().now();
  ++parallel_regions_;
  const int n = static_cast<int>(cluster_.node_count());
  const std::uint64_t id = cluster_.register_work([body = std::move(body), n](tmk::NodeRuntime& rt) {
    Ctx ctx{rt, static_cast<int>(rt.id()), n};
    body(ctx);
  });
  run_region(id, tmk::Phase::Parallel);
  par_time_ += cluster_.engine().now() - t0;
}

void Team::parallel_for(long lo, long hi, Schedule sched,
                        std::function<void(const Ctx&, long)> body, bool if_parallel) {
  if (!if_parallel) {
    // The OpenMP `if` clause: run the whole loop on the (master) thread,
    // inside the surrounding sequential flow -- no fork, no join.
    Ctx ctx{cluster_.node(0), 0, 1};
    for (long i = lo; i < hi; ++i) body(ctx, i);
    return;
  }
  if (cluster_.node_count() == 1) {
    // One-node cluster: still a parallel region semantically (this is the
    // sequential baseline of the paper's speedup tables), so its time is
    // accounted as parallel-section time.
    const sim::SimTime t0 = cluster_.engine().now();
    ++parallel_regions_;
    Ctx ctx{cluster_.node(0), 0, 1};
    for (long i = lo; i < hi; ++i) body(ctx, i);
    cluster_.node(0).cpu().flush();
    par_time_ += cluster_.engine().now() - t0;
    return;
  }
  parallel([lo, hi, sched, body = std::move(body)](const Ctx& ctx) {
    switch (sched) {
      case Schedule::StaticBlock: {
        const Range r = block_range(lo, hi, ctx.tid, ctx.nthreads);
        for (long i = r.lo; i < r.hi; ++i) body(ctx, i);
        break;
      }
      case Schedule::StaticCyclic: {
        for (long i = lo + ctx.tid; i < hi; i += ctx.nthreads) body(ctx, i);
        break;
      }
    }
  });
}

void Team::seq_master_only(const std::function<void(const Ctx&)>& body) {
  tmk::NodeRuntime& master = cluster_.node(0);
  Ctx ctx{master, 0, static_cast<int>(cluster_.node_count())};
  body(ctx);
  master.cpu().flush();
}

void Team::seq_broadcast_after(const std::function<void(const Ctx&)>& body) {
  tmk::NodeRuntime& master = cluster_.node(0);
  master.end_interval();
  const tmk::VectorClock before = master.vc();
  Ctx ctx{master, 0, static_cast<int>(cluster_.node_count())};
  body(ctx);
  master.cpu().flush();
  master.broadcast_section(before);
}

void Team::seq_replicated(std::uint32_t site, std::function<void(const Ctx&)> body) {
  tmk::NodeRuntime& master = cluster_.node(0);
  const int n = static_cast<int>(cluster_.node_count());
  if (n == 1) {
    Ctx ctx{master, 0, 1};
    body(ctx);
    master.cpu().flush();
    return;
  }
  // The section is shipped to every node like a region whose body is
  // the *whole* sequential section, bracketed by the RSE protocol.
  // Traffic inside belongs to the sequential-section accounting.  The site
  // rides along so every replica's diagnostics (race reports, write-set
  // digests) name the section being executed.
  rse::RseController* rse = rse_;
  const std::uint64_t id =
      cluster_.register_work([body = std::move(body), rse, n, site](tmk::NodeRuntime& rt) {
        rt.set_current_site(site);
        rse->enter(rt);
        Ctx ctx{rt, static_cast<int>(rt.id()), n};
        body(ctx);
        rt.cpu().flush();
        rse->exit(rt);
        rt.set_current_site(tmk::NodeRuntime::kNoSite);
      });
  run_region(id, tmk::Phase::Sequential);
  rse->retire_rounds(master);
}

void Team::sequential(std::function<void(const Ctx&)> body) {
  sequential(0u, std::move(body));
}

void Team::sequential(std::uint32_t site, std::function<void(const Ctx&)> body) {
  const sim::SimTime t0 = cluster_.engine().now();
  ++seq_sections_;

  SeqMode eff = seq_mode_;
  if (seq_mode_ == SeqMode::Adaptive) {
    switch (policy_->open_section(cluster_.node(0), site)) {
      case rse::policy::SectionStrategy::MasterOnly:
        eff = SeqMode::MasterOnly;
        break;
      case rse::policy::SectionStrategy::Replicated:
        eff = SeqMode::Replicated;
        break;
      case rse::policy::SectionStrategy::BroadcastAfter:
        eff = SeqMode::BroadcastAfter;
        break;
    }
  }

  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().begin(obs::Cat::Rse, cluster_.engine().now(), 1, "master", "seq-section",
                        {{"site", static_cast<double>(site)},
                         {"strategy", static_cast<double>(static_cast<int>(eff))},
                         {"section", static_cast<double>(seq_sections_)}});
  }
  cluster_.node(0).set_current_site(site);
  switch (eff) {
    case SeqMode::MasterOnly:
      seq_master_only(body);
      break;
    case SeqMode::BroadcastAfter:
      seq_broadcast_after(body);
      break;
    case SeqMode::Replicated:
      seq_replicated(site, std::move(body));
      break;
    case SeqMode::Adaptive:
      REPSEQ_CHECK(false, "adaptive mode resolves to a concrete strategy");
      break;
  }
  cluster_.node(0).set_current_site(tmk::NodeRuntime::kNoSite);
  if (seq_mode_ == SeqMode::Adaptive) policy_->close_section(cluster_.node(0));
  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    obs::tracer().end(obs::Cat::Rse, cluster_.engine().now(), 1, "master");
  }
  seq_time_ += cluster_.engine().now() - t0;
}

}  // namespace repseq::ompnow
