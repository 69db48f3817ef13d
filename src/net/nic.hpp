// Per-node network interface: a transmit serializer (one frame at a time at
// link rate) and a finite receive ring.  Receive overflow drops messages and
// counts them -- TreadMarks' stated reason for conservative multicast flow
// control (paper Section 5.4).
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "net/net_config.hpp"
#include "sim/channel.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace repseq::net {

class Nic {
 public:
  Nic(sim::Engine& eng, const NetConfig& cfg) : eng_(eng), cfg_(cfg), inbox_(eng) {}

  /// Reserves the uplink for `wire_bytes` once the frames already queued
  /// have left, but not before `ready` (forwarding hops of software
  /// multicast reserve uplinks at future instants).  Returns the time the
  /// last byte leaves the NIC.
  sim::SimTime reserve_uplink(std::size_t wire_bytes, sim::SimTime ready);

  /// Delivery at the receive ring.  Honors capacity; returns false (and
  /// counts a drop) when the ring is full and the message is droppable.
  /// A Message::reliable message is admitted to a full ring anyway,
  /// modeled as retried-until-delivered by the kernel-level transport
  /// without simulating the retry.
  bool deliver(Message msg);

  /// Blocking receive used by the node's dispatcher fiber.
  [[nodiscard]] sim::Channel<Message>& inbox() { return inbox_; }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::size_t backlog() const { return inbox_.size(); }

 private:
  sim::Engine& eng_;
  const NetConfig& cfg_;
  sim::Channel<Message> inbox_;
  sim::SimTime uplink_free_{};
  std::uint64_t drops_ = 0;
};

}  // namespace repseq::net
