#include "rse/policy/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace repseq::rse::policy {

namespace {

// Payload of a small control frame: a fork, a null ack, a round's request.
constexpr double kControlBytes = 20;

}  // namespace

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
  mcast_page_ = mcast(page_bytes_);
}

double CostModel::mcast(double payload_bytes) const {
  return net_.multicast_price(static_cast<std::size_t>(std::llround(payload_bytes))).seconds();
}

double CostModel::serialized(const SectionProfile::Traffic& traffic) const {
  return traffic.msgs * (send_ + recv_) + traffic.bytes / link_rate_;
}

double CostModel::after(SectionStrategy s, const SectionProfile& p) const {
  const auto i = static_cast<std::size_t>(s);
  if (p.tried[i] == 0) return 0.0;
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
      // Section 3 queue).  Until MasterOnly has actually run for this site,
      // assume the pessimistic full fan-out: every other node faults on
      // every section-written page.  The engine therefore only leaves a
      // contention-eliminating strategy when the write set is demonstrably
      // small -- mispredicting toward replication is cheap, the reverse is
      // not.
      const double aftermath = p.tried[static_cast<std::size_t>(s)] > 0
                                   ? after(s, p)
                                   : serialized({w * (nd - 1.0), w * (nd - 1.0) * page_wire_});
      return f * fault(p) + aftermath;
    }
    case SectionStrategy::Replicated: {
      // The bracket: the fork and the valid-notice table ride the multicast
      // medium, and the master receives the valid notices and the joins
      // (Sections 5.2 and 5.4.1).  Each stale page costs one flow-controlled
      // round: a control multicast per node (request and chained acks) and
      // the page-sized reply.  The write set costs nothing on the wire
      // (every node computes it locally), and replication leaves no
      // section-written page stale, so the unmeasured aftermath is zero.
      const double bracket = 2.0 * mcast_ctl_ + (nd - 1.0) * 2.0 * recv_;
      return bracket + f * (nd * mcast_ctl_ + mcast_page_ + diff_) + after(s, p);
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
