#include "net/tree_multicast_transport.hpp"

#include <cstdint>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/pool_ptr.hpp"

namespace repseq::net {

void TreeMulticastTransport::multicast(const Message& msg, std::size_t wire_bytes,
                                       const DeliverFn& deliver, const AccountFn& account) {
  (void)wire_bytes;  // every hop frames its own (possibly combined) payload
  const std::size_t n = nics_.size();
  if (n <= 1) return;
  // Group-affine root with a coalescing window (all sends of a group share
  // one tree; see the header comment), sender-rooted without one.  The
  // group's root sticks to its first sender: in the round protocols that
  // dominate our traces that is the section owner multicasting its write
  // notices, so the group's dominant sender never pays an injection hop.
  NodeId root = msg.src;
  if (cfg_.batch_window.ns > 0) {
    root = roots_.try_emplace(msg.mcast_group, msg.src).first->second;
  }
  // The callbacks outlive this call: interior hops run as scheduled events
  // at their parents' arrival instants, so the flight state is shared by
  // (and kept alive through) every pending forwarding event.
  auto fl = util::make_pooled<Flight>(Flight{msg.src, root, n, msg.payload_bytes,
                                             shard_of(msg.mcast_group, shard_count()), deliver,
                                             account});
  if (root == msg.src) {
    forward_children(fl, 0);
    return;
  }
  // Injection: one ordinary switched unicast carries the frame from the
  // sender to the group's tree root.  It rides the same piggyback queues as
  // any tree hop (the sender's several in-flight injections -- and any tree
  // forwards it owes on the same edge -- leave as one frame), and a lost
  // injection prunes the tree descent before a single tree hop is charged.
  edges_.push(edge_key(msg.src, root), PendingHop{fl, 0});
  // The sender holds the payload natively, so its own subtree needs no
  // wave: it forwards its children right now, off the injection's critical
  // path, and the descent never transmits the edge into the sender's
  // position (forward_children skips it).
  forward_children(fl, (std::size_t{msg.src} + n - root) % n);
}

sim::SimDuration TreeMulticastTransport::multicast_price(std::size_t wire_bytes) const {
  constexpr std::size_t k = NetConfig::mcast_tree_fanout;
  // Levels below the root of the heap-ordered k-ary tree over every node.
  std::int64_t depth = 0;
  for (std::size_t covered = 1, level = 1; covered < nics_.size(); ++depth) {
    level *= k;
    covered += level;
  }
  const sim::SimDuration per_child = NetConfig::send_overhead + cfg_.link_tx_time(wire_bytes);
  const sim::SimDuration forward = cfg_.recv_overhead + per_child * static_cast<std::int64_t>(k) +
                                   NetConfig::hop_latency * 2;
  return NetConfig::send_overhead + forward * depth;
}

sim::SimDuration TreeMulticastTransport::successor_price(std::size_t wire_bytes) const {
  if (cfg_.batch_window.ns > 0) return multicast_price(wire_bytes);
  return NetConfig::send_overhead + cfg_.link_tx_time(wire_bytes) + NetConfig::hop_latency * 2 +
         cfg_.recv_overhead;
}

void TreeMulticastTransport::forward_children(const util::PoolPtr<const Flight>& fl,
                                              std::size_t pos) {
  // The node at `pos` holds the complete frame as of now (the root at send
  // time, an interior node at its arrival event), so its child transmissions
  // reserve its uplink starting now -- serialized in true arrival order with
  // any unrelated traffic that node sends.  Store-and-forward semantics: a
  // child whose frame was consumed by loss injection (deliver returned
  // false) has nothing to forward, so its whole subtree is cut off without
  // transmitting -- or charging -- a single downstream hop.
  constexpr std::size_t k = NetConfig::mcast_tree_fanout;
  for (std::size_t c = k * pos + 1; c <= k * pos + k; ++c) {
    if (c >= fl->nodes) break;
    // The sender's position needs neither the frame (it holds the payload
    // natively) nor a forwarding trigger (its subtree went out at send
    // time): the wave flows around it.  Unreachable when the sender is the
    // root -- every descent position is then a true receiver.
    if (fl->node_at(c) == fl->src) continue;
    const NodeId parent = fl->node_at(pos);
    const NodeId child = fl->node_at(c);
    PendingHop hop{fl, c};
    if (cfg_.batch_window.ns > 0) {
      edges_.push(edge_key(parent, child), std::move(hop));
    } else {
      transmit_hops(parent, child, {&hop, 1});
    }
  }
}

void TreeMulticastTransport::transmit_hops(NodeId parent, NodeId child,
                                           std::span<const PendingHop> hops) {
  // One wire frame carries every queued flight's payload across this edge:
  // concatenated payloads under one set of headers.
  std::size_t payload_total = 0;
  for (const PendingHop& h : hops) payload_total += h.fl->payload_bytes;
  const std::size_t wire = cfg_.wire_bytes(payload_total);
  const sim::SimTime at = forward_hop(parent, child, wire, eng_.now());
  if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(), static_cast<std::int32_t>(parent) + 1,
                          "net-tree", "tree-hop",
                          {{"child", static_cast<double>(child)},
                           {"coalesced", static_cast<double>(hops.size())},
                           {"wire_bytes", static_cast<double>(wire)}});
  }
  busy_[hops.front().fl->shard] += cfg_.link_tx_time(wire);

  // Carrier/rider split (see transport.hpp): riders pay their payload
  // bytes, the carrier pays the frame, its own payload, and the headers.
  std::size_t rider_bytes = 0;
  for (std::size_t i = 1; i < hops.size(); ++i) {
    rider_bytes += hops[i].fl->payload_bytes;
    hops[i].fl->account(0, hops[i].fl->payload_bytes);
  }
  REPSEQ_CHECK(wire >= rider_bytes, "combined frame smaller than its riders' payloads");
  hops.front().fl->account(1, wire - rider_bytes);

  // Each constituent draws its own loss decision and, surviving, resumes
  // its own flight's forwarding from the child -- a lost rider prunes only
  // that flight's subtree, never its frame-mates'.  (A flight never hops
  // into its own sender: forward_children routes the wave around it.)
  for (const PendingHop& h : hops) {
    if (h.fl->deliver(child, at)) {
      eng_.schedule_at(at, [this, fl = h.fl, c = h.child_pos] { forward_children(fl, c); });
    }
  }
}

}  // namespace repseq::net
