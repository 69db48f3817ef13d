// Software multicast over the switch: the sender is the root of a k-ary
// forwarding tree; every interior node re-transmits the frame to each of its
// children as an ordinary switched unicast (uplink serialization + per-hop
// latency).  This is the hand-inserted tree broadcast of paper Section 6.1.2
// expressed as a transport, so any protocol can run over it.
//
// Tree layout: positions are assigned breadth-first (heap order), position 0
// is the root, and position p maps to node (root + p) mod N.  Without a
// coalescing window the root is the sender -- every sender gets the same
// tree shape over a rotated node ordering, so no fixed node is always a
// leaf.
//
// Forwarding is event-driven: an interior node's transmissions to its
// children are scheduled from the event at which its own copy of the frame
// arrives, so its uplink serializes forwards with whatever *other* traffic
// it sends, in true arrival order.  Frame accounting is therefore deferred:
// each hop reports itself through the AccountFn at the instant it is
// committed, and a hop downstream of a lost frame is never charged.
//
// Piggybacking (NetConfig::batch_window > 0): a node with several group
// forwards queued on the same (parent, child) edge coalesces them into ONE
// combined wire frame -- the event-driven per-hop scheduling makes the set
// of concurrent in-flight forwards visible exactly here.  Each edge is one
// key of a net::CoalescingWindow, so an idle edge still transmits a lone
// frame at once (first-frame-immediate, see coalescing_window.hpp).
// Group-affine trees make the coalescing actually bite on round traffic:
// per-sender rotation minimizes edge sharing (a directed pair (a, b) is an
// edge of exactly two of the N rotated trees), capping piggybacking's merge
// factor near 1.  With a window, every multicast of a group instead rides
// ONE tree, rooted at the group's first sender (in round protocols, the
// section owner whose write notices dominate the group's traffic) -- all of
// a round's sends traverse the same N-1 edges and pile up in the same
// queues, and the dominant sender pays no injection at all.  A sender that
// is not the root injects its frame with one ordinary switched unicast to
// the root (charged to the flight like any hop; a lost injection prunes the
// descent).  The sender's own subtree never waits for -- or pays -- that
// round trip: holding the payload natively, the sender forwards its
// children at send time and the descent wave flows around its position
// without transmitting the edge into it.
//
// Charging a combined frame uses the carrier/rider split of transport.hpp
// (riders pay their payload, the carrier pays the rest), each routed to its
// own flight's AccountFn; each constituent still draws its own loss
// decision and continues its own downstream forwarding, so a lost rider
// prunes only that flight's subtree.  Window 0 keeps the per-sender
// rotated trees and sends every hop at once as a one-hop frame through the
// same transmit path.
//
// Concurrency domains: coalescing pays only if flights overlap, and the
// tree -- having no shared medium at all -- never needed the single-round
// serialization that modeling it as one "virtual hub" imposed.  With a
// nonzero window it reports NetConfig::hub_shards independent serialization
// domains (like the sharded hub), so the RSE layer runs rounds on disjoint
// page groups concurrently and their frames meet in the piggyback queues.
// Forwarding-uplink busy is attributed to the carrier flight's domain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/coalescing_window.hpp"
#include "net/transport.hpp"
#include "util/pool_ptr.hpp"

namespace repseq::net {

class TreeMulticastTransport final : public SwitchedTransport {
 public:
  TreeMulticastTransport(sim::Engine& eng, const NetConfig& cfg,
                         std::vector<std::unique_ptr<Nic>>& nics)
      : SwitchedTransport(eng, cfg, nics),
        edges_(eng, cfg.batch_window, [this](std::uint64_t key, std::span<const PendingHop> hops) {
          transmit_hops(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key & 0xffffffffu),
                        hops);
        }) {
    busy_.resize(shard_count());
  }

  void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                 const AccountFn& account) override;

  /// Interior hops run as scheduled events after multicast() returns.
  [[nodiscard]] bool defers_delivery() const override { return true; }

  /// The root transmits only to its own children.
  [[nodiscard]] std::size_t sender_frames(std::size_t receivers) const override {
    return std::min(receivers, NetConfig::mcast_tree_fanout);
  }

  /// The frame descends the tree's levels one after another; each level is
  /// priced as a software forward: a receive, then one send and one uplink
  /// serialization per child, and the two switched hops to the next level.
  [[nodiscard]] sim::SimDuration multicast_price(std::size_t wire_bytes) const override;

  /// Without a window the sender roots the tree, so its successor sits at
  /// position 1, one switched hop away.  With one, the group's root can be
  /// anywhere and the whole descent is priced.
  [[nodiscard]] sim::SimDuration successor_price(std::size_t wire_bytes) const override;

  /// With a coalescing window the tree exposes hub_shards concurrency
  /// domains (see the header comment); without one it is the single
  /// domain it always was.
  [[nodiscard]] std::size_t shard_count() const override {
    return cfg_.batch_window.ns > 0 ? std::max<std::size_t>(1, cfg_.hub_shards) : 1;
  }

  /// Aggregate uplink transmit time spent forwarding multicast frames (all
  /// tree edges, root and interior alike), attributed to the carrier
  /// flight's domain.  The tree has no shared medium; summed over domains
  /// this is the number that must be conserved frame-for-frame against the
  /// single-hub model's busy time in the uncontended case.
  [[nodiscard]] sim::SimDuration shard_busy(std::size_t s) const override {
    return s < busy_.size() ? busy_[s] : sim::SimDuration{};
  }

 private:
  /// One in-flight group send: the callbacks and frame geometry shared by
  /// every forwarding event of its propagation (kept alive by the events).
  struct Flight {
    NodeId src;
    NodeId root;  // == src without a window; the group's tree root with one
    std::size_t nodes;
    std::size_t payload_bytes;
    std::size_t shard;  // busy-attribution domain of this flight's group
    DeliverFn deliver;
    AccountFn account;

    [[nodiscard]] NodeId node_at(std::size_t pos) const {
      return static_cast<NodeId>((root + pos) % nodes);
    }
  };

  /// One flight's hop on an edge: sent at once (window 0, or an idle edge)
  /// or held until that edge's window closes.
  struct PendingHop {
    util::PoolPtr<const Flight> fl;
    std::size_t child_pos;
  };

  /// Transmits the frame from tree position `pos` (whose node holds a
  /// complete copy as of the current virtual instant) to each of its
  /// children, scheduling each child's own forwarding at its arrival --
  /// immediately when the window is zero, else via the edge's piggyback
  /// window.
  void forward_children(const util::PoolPtr<const Flight>& fl, std::size_t pos);

  /// Puts one wire frame carrying `hops` on the (parent, child) edge:
  /// carrier/rider accounting, per-constituent loss draw, surviving
  /// constituents resume their own forwarding at the child.
  void transmit_hops(NodeId parent, NodeId child, std::span<const PendingHop> hops);

  static std::uint64_t edge_key(NodeId parent, NodeId child) {
    return (std::uint64_t{parent} << 32) | child;
  }

  /// Per-domain forwarding-uplink busy (size shard_count()).
  std::vector<sim::SimDuration> busy_;
  /// Per-(parent, child) piggyback windows (used only when window > 0).
  CoalescingWindow<PendingHop> edges_;
  /// Sticky group-affine roots: group -> its first sender (window > 0).
  std::unordered_map<std::uint32_t, NodeId> roots_;
};

}  // namespace repseq::net
