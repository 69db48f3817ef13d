// The pluggable wire model.  A Transport owns all delivery-time modeling for
// point-to-point and group sends; the Network facade owns everything else
// (message ids, byte accounting, loss injection, taps, NIC inboxes).
//
// Contract: a transport computes, per receiver, the virtual time the frame's
// last byte arrives at that receiver's NIC, and reports it through the
// DeliverFn.  Delivery times are never earlier than the send instant, and a
// group send reports each receiver at most once, in a deterministic order
// (which keeps the loss-injection RNG sequence deterministic per backend).
// The facade decides loss per reported delivery and returns the outcome, so
// store-and-forward backends can model a lost frame cutting off everything
// downstream of it.
//
// Accounting is a callback, not a return value: a store-and-forward backend
// puts frames on the wire from *deferred forwarding events* (an interior
// tree node transmits only after its own copy has arrived), so the frame
// count of a group send is not known when multicast() returns.  A backend
// calls the AccountFn at the virtual instant a frame's transmission is
// committed, reporting both frames and wire bytes: with frame coalescing
// (BatchingTransport, tree piggybacking) a constituent's committed bytes are
// its *share* of a combined frame, not the wire size of a standalone send,
// so bytes can no longer be derived as frames x wire by the caller.
// Single-medium backends account their one frame synchronously.  Hops cut
// off by an upstream loss are never accounted -- they were never
// transmitted.  Conservation invariant: summed over all AccountFn
// invocations of all sends, (frames, bytes) equals exactly what went on the
// wire.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/net_config.hpp"
#include "net/nic.hpp"
#include "net/switch_fabric.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace repseq::net {

/// Invoked by a transport once per receiver with the arrival time of the
/// frame's last byte at that receiver's NIC.  Returns false when loss
/// injection consumed the frame (the receiver never saw it).  May be
/// invoked after multicast() returned, from a deferred forwarding event;
/// the facade keeps the callback state alive for the whole propagation.
using DeliverFn = std::function<bool(NodeId dst, sim::SimTime at)>;

/// Invoked by a transport at the virtual instant a transmission is
/// committed (possibly from a deferred forwarding/flush event), with the
/// frames put on the wire and this send's share of their wire bytes.  A
/// coalescing backend splits a combined frame's cost across its
/// constituents (the carrier pays the frame + headers, the riders pay their
/// payload bytes), so per-send charges stay conserved against wire truth.
using AccountFn = std::function<void(std::size_t frames, std::size_t bytes)>;

class Transport {
 public:
  Transport(sim::Engine& eng, const NetConfig& cfg, std::vector<std::unique_ptr<Nic>>& nics)
      : eng_(eng), cfg_(cfg), nics_(nics) {}
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Models the wire path of one point-to-point frame; calls `deliver`
  /// exactly once, for msg.dst, and `account` with the committed frame
  /// cost.  A coalescing backend may defer both callbacks past this call
  /// (see defers_delivery) and charge this send only its share of a
  /// combined frame.
  virtual void unicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                       const AccountFn& account) = 0;

  /// Models a group send to every node except msg.src; calls `deliver` at
  /// most once per receiver (a store-and-forward backend skips receivers
  /// cut off by an upstream loss), in a deterministic order, and `account`
  /// once per frame actually put on the wire: 1 for a true multicast
  /// medium (the paper counts "each multicast message as a single
  /// message"); unicast-composed backends pay per edge transmitted.  Both
  /// callbacks may fire after this call returns, from deferred forwarding
  /// events (event-driven store-and-forward backends).
  virtual void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                         const AccountFn& account) = 0;

  /// True when this backend may invoke a send's callbacks *after*
  /// unicast()/multicast() returns (event-driven store-and-forward, or a
  /// coalescing window).  The facade keeps callback state on the stack for
  /// synchronous backends and only promotes it to shared ownership when the
  /// backend defers.
  [[nodiscard]] virtual bool defers_delivery() const { return false; }

  /// Frames the *source node itself* transmits for one group send -- what
  /// its CPU is charged send overhead for.  1 on a multicast medium; the
  /// fan-out strawman pays per receiver; a forwarding tree's root pays per
  /// child (descendant forwarding costs are modeled as wire time only).
  [[nodiscard]] virtual std::size_t sender_frames(std::size_t receivers) const {
    (void)receivers;
    return 1;
  }

  /// Modeled cost of one uncontended group send of a `wire_bytes` frame:
  /// the sender's software send, the wire path to the last receiver and
  /// that receiver's software receive.  The adaptive policy prices every
  /// multicast with it, so its choices follow the configured medium
  /// without re-deriving the medium's topology.
  [[nodiscard]] virtual sim::SimDuration multicast_price(std::size_t wire_bytes) const = 0;

  /// Modeled cost of one uncontended group send of a `wire_bytes` frame
  /// until it reaches the sender's successor (node id + 1): one step of an
  /// ack chain, where each node sends once its predecessor's frame has
  /// arrived.  By default the whole multicast's price.
  [[nodiscard]] virtual sim::SimDuration successor_price(std::size_t wire_bytes) const {
    return multicast_price(wire_bytes);
  }

  /// Number of independent multicast serialization domains this backend
  /// exposes: NetConfig::hub_shards on the sharded hub and on the tree with
  /// a coalescing window, 1 on the hub, the fan-out strawman and the
  /// unbatched tree.  Upper layers size their per-shard round tables off
  /// this.
  [[nodiscard]] virtual std::size_t shard_count() const { return 1; }

  /// Total time shard `s` of the multicast medium was busy transmitting
  /// (hub occupancy).  The forwarding tree has no shared medium but still
  /// reports its aggregate forwarding-uplink transmit time here, so
  /// occupancy conservation can be checked per backend; the fan-out
  /// strawman reports zero (its cost is already fully visible as source
  /// uplink serialization).
  [[nodiscard]] virtual sim::SimDuration shard_busy(std::size_t s) const {
    (void)s;
    return {};
  }

 protected:
  sim::Engine& eng_;
  const NetConfig& cfg_;
  std::vector<std::unique_ptr<Nic>>& nics_;
};

/// Common unicast path shared by every backend: the frame serializes on the
/// source uplink, crosses the switch, and serializes again on the
/// destination port (SwitchFabric).
class SwitchedTransport : public Transport {
 public:
  SwitchedTransport(sim::Engine& eng, const NetConfig& cfg,
                    std::vector<std::unique_ptr<Nic>>& nics)
      : Transport(eng, cfg, nics), switch_(eng, cfg, nics.size()) {}

  void unicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
               const AccountFn& account) override {
    account(1, wire_bytes);
    deliver(msg.dst, forward_hop(msg.src, msg.dst, wire_bytes, eng_.now()));
  }

 protected:
  /// One switched src->dst hop whose uplink transmission may not start
  /// before `ready` (used by forwarding hops of software multicast).
  sim::SimTime forward_hop(NodeId src, NodeId dst, std::size_t wire_bytes, sim::SimTime ready) {
    const sim::SimTime at_switch =
        nics_[src]->reserve_uplink(wire_bytes, ready) + cfg_.hop_latency;
    return switch_.forward(dst, wire_bytes, at_switch);
  }

  SwitchFabric switch_;
};

/// Instantiates the backend selected by `cfg.transport`.
std::unique_ptr<Transport> make_transport(sim::Engine& eng, const NetConfig& cfg,
                                          std::vector<std::unique_ptr<Nic>>& nics);

}  // namespace repseq::net
