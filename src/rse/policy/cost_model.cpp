#include "rse/policy/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tmk/combining_tree.hpp"

namespace repseq::rse::policy {

CostModel::CostModel(const tmk::TmkConfig& tmk, const net::Network& net)
    : net_(net), n_(net.node_count()) {
  const net::NetConfig& cfg = net.config();
  send_ = cfg.send_overhead.seconds();
  recv_ = cfg.recv_overhead.seconds();
  link_rate_ = cfg.link_bytes_per_sec;
  page_bytes_ = static_cast<double>(tmk.page_bytes);
  page_wire_ = static_cast<double>(cfg.wire_bytes(tmk.page_bytes));
  diff_ = page_bytes_ * (tmk.diff_create_ns_per_byte + tmk.diff_apply_ns_per_byte) * 1e-9;
  mcast_ctl_ = mcast(kControlBytes);
  step_ctl_ = step(kControlBytes);
  mcast_page_ = mcast(page_bytes_);
  burst_ = combining_burst();
}

double CostModel::combining_burst() const {
  if (n_ < 2) return 0.0;
  using Tree = tmk::CombiningTree;
  // A child's message reaches its parent a send and two switched hops
  // after the child has received its own subtree; a node receives its
  // children's in arrival order.  Children have higher ids, so a backward
  // walk meets them first.
  const net::NetConfig& cfg = net_.config();
  const sim::SimDuration hop =
      cfg.link_tx_time(cfg.wire_bytes(static_cast<std::size_t>(kControlBytes))) +
      net::NetConfig::hop_latency;
  const double arrive = send_ + 2.0 * hop.seconds();
  std::vector<double> done(n_, 0.0);  // when the node has heard its subtree
  std::vector<double> arrivals;
  for (std::size_t i = n_; i-- > 0;) {
    const auto node = static_cast<tmk::NodeId>(i);
    arrivals.clear();
    for (std::size_t c = 0; c < Tree::children(node, n_); ++c) {
      arrivals.push_back(done[Tree::first_child(node) + c] + arrive);
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (double a : arrivals) done[i] = std::max(done[i], a) + recv_;
  }
  // Every leaf's message takes `arrive`, the flat exchange's included;
  // the burst is what receiving costs beyond it, (n-1) receives when flat.
  return done[0] - arrive;
}

double CostModel::mcast(double payload_bytes) const {
  return net_.multicast_price(static_cast<std::size_t>(std::llround(payload_bytes))).seconds();
}

double CostModel::step(double payload_bytes) const {
  return net_.successor_price(static_cast<std::size_t>(std::llround(payload_bytes))).seconds();
}

double CostModel::serialized(const SectionProfile::Traffic& traffic) const {
  return traffic.msgs * (send_ + recv_) + traffic.bytes / link_rate_;
}

double CostModel::untried_after(SectionStrategy s, const SectionProfile& p) const {
  const double slaves = static_cast<double>(n_) - 1.0;
  switch (s) {
    case SectionStrategy::MasterOnly:
      return serialized({p.pages_written * slaves, p.pages_written * slaves * page_wire_});
    case SectionStrategy::Replicated:
      return 0.0;
    case SectionStrategy::BroadcastAfter:
      return serialized({p.faults_in * p.fan_in * slaves, p.faults_in * slaves * page_wire_}) /
             static_cast<double>(n_);
  }
  return 0.0;
}

double CostModel::after(SectionStrategy s, const SectionProfile& p) const {
  const auto i = static_cast<std::size_t>(s);
  if (p.tried[i] == 0) return untried_after(s, p);
  return std::max(serialized(p.after_master[i]),
                  serialized(p.after_cluster[i]) / static_cast<double>(n_));
}

double CostModel::fault(const SectionProfile& p) const {
  return p.fan_in * (send_ + recv_) + 2.0 * page_wire_ / link_rate_ + diff_;
}

double CostModel::cost(SectionStrategy s, const SectionProfile& p) const {
  const double nd = static_cast<double>(n_);
  const double w = p.pages_written;
  const double f = p.faults_in;
  switch (s) {
    case SectionStrategy::MasterOnly: {
      // Post-section reads of the write set converge on the master (the
      // Section 3 queue).  A section that writes also leaves every slave
      // lacking its record, so the next parallel region's fork is n-1
      // unicasts from the master where replication and broadcast leave one
      // control multicast.  A section that writes nothing is not charged:
      // whether the slaves then lack a record depends on the region
      // before it, which the profile does not see.
      const double unicast_fork = w > 0 ? (nd - 1.0) * send_ - mcast_ctl_ : 0.0;
      return f * fault(p) + unicast_fork + after(s, p);
    }
    case SectionStrategy::Replicated: {
      // The bracket: the fork and the valid-notice table ride the multicast
      // medium, and the valid notices and the joins combine up the tree to
      // the master (Sections 5.2 and 5.4.1).  Each stale page costs one
      // flow-controlled round: the master's request, n-1 chain steps (each
      // node's frame reaching the next node) and the page-sized reply.  The
      // write set costs nothing on the wire (every node computes it
      // locally).
      const double bracket = 2.0 * mcast_ctl_ + 2.0 * burst_;
      return bracket + f * (mcast_ctl_ + (nd - 1.0) * step_ctl_ + mcast_page_ + diff_) +
             after(s, p);
    }
    case SectionStrategy::BroadcastAfter: {
      // Master-only faults on stale reads, then the whole write set rides
      // the multicast medium once, acknowledged by every node.
      return f * fault(p) + mcast(w * page_bytes_) + w * diff_ + (nd - 1.0) * recv_ + after(s, p);
    }
  }
  return 0.0;
}

}  // namespace repseq::rse::policy
