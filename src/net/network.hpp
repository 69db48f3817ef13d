// The cluster network facade: assigns message ids, keeps byte/message
// accounting, injects loss, and lands deliveries in per-node NIC inboxes.
// All wire-time modeling lives in the pluggable Transport backend selected
// by NetConfig::transport; CPU costs (send/receive software overheads) are
// charged by the protocol layer against the node CPUs so that they interact
// correctly with the interrupt model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/net_config.hpp"
#include "net/nic.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace repseq::net {

class Network {
 public:
  Network(sim::Engine& eng, NetConfig cfg, std::size_t nodes);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Per-send wire accounting, invoked once per batch of frames the
  /// transport commits to the wire -- possibly *after* the send call
  /// returned, from a deferred forwarding or coalescing-window flush event.
  /// Under frame coalescing (NetConfig::batch_window) a send's committed
  /// bytes are its *share* of a combined frame, and frames may be zero for
  /// a send that rode another send's frame.  Callers that charge the
  /// committed cost to per-phase counters must capture stable references:
  /// the callback outlives the send call.
  using SendAccount = std::function<void(std::size_t frames, std::size_t bytes)>;

  /// Sends point-to-point.  Returns the assigned message id.
  /// Must be called from a fiber of the source node (timing uses `now`).
  /// `account` (when set) observes the committed wire cost -- deferred to
  /// the window flush when the backend coalesces.
  std::uint64_t unicast(Message msg, SendAccount account = {});

  /// Sends to every *other* node (single multicast group).  Frame/byte
  /// accounting is backend-dependent and may be deferred; `account` (when
  /// set) observes every frame as it is committed.
  std::uint64_t multicast(Message msg, SendAccount account = {});

  [[nodiscard]] Nic& nic(NodeId n) { return *nics_[n]; }
  [[nodiscard]] std::size_t node_count() const { return nics_.size(); }
  [[nodiscard]] const NetConfig& config() const { return cfg_; }

  /// Frames the source node itself transmits for one group send.
  [[nodiscard]] std::size_t multicast_sender_frames() const {
    return nics_.size() > 1 ? transport_->sender_frames(nics_.size() - 1) : 1;
  }

  /// Transport::multicast_price of one group send of `payload_bytes`.
  [[nodiscard]] sim::SimDuration multicast_price(std::size_t payload_bytes) const {
    return transport_->multicast_price(cfg_.wire_bytes(payload_bytes));
  }
  /// Transport::successor_price of one group send of `payload_bytes`.
  [[nodiscard]] sim::SimDuration successor_price(std::size_t payload_bytes) const {
    return transport_->successor_price(cfg_.wire_bytes(payload_bytes));
  }

  /// Multicast serialization domains of the active backend
  /// (Transport::shard_count: hub_shards on the sharded hub and on the tree
  /// with a coalescing window, 1 otherwise); upper layers size per-shard
  /// round tables off this.
  [[nodiscard]] std::size_t hub_shards() const { return shard_mcast_.size(); }

  /// Time shard `s` of the multicast medium spent transmitting.
  [[nodiscard]] sim::SimDuration hub_busy(std::size_t s) const {
    return transport_->shard_busy(s);
  }

  /// The shard a multicast group maps to on the active backend.
  [[nodiscard]] std::size_t shard_of_group(std::uint64_t group) const {
    return shard_of(group, shard_mcast_.size());
  }

  /// Multicast frames/bytes committed on shard `s`.  Every frame of a send
  /// counts on the send's shard, fixed when it was sent, even when the
  /// frame commits later (a deferred forwarding hop or window flush).
  [[nodiscard]] std::uint64_t mcast_frames(std::size_t s) const { return shard_mcast_[s].frames; }
  [[nodiscard]] std::uint64_t mcast_bytes(std::size_t s) const { return shard_mcast_[s].bytes; }

  /// Observability for tests and the benchmark harness.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t losses_injected() const { return losses_injected_; }
  [[nodiscard]] std::uint64_t total_drops() const;

 private:
  /// Schedules delivery unless loss injection consumes the frame; returns
  /// whether the frame survives (transports use this to prune forwarding
  /// downstream of a lost frame).
  bool deliver_at(sim::SimTime t, NodeId dst, const Message& msg);

  /// The per-delivery loss decision (Message::reliable frames are never
  /// lost); consumes one RNG draw per lossable delivery and counts injected
  /// losses.
  bool lose_frame(const Message& msg);

  /// Lands `msg` in `dst`'s receive ring and counts the delivery.  A frame
  /// the full ring drops leaves a `drop` trace instant naming the receiving
  /// node (its process), the frame's source and kind and the ring's
  /// backlog.
  void hand_to_nic(NodeId dst, const Message& msg);

  /// Schedules batched inbox deliveries: one simulation event per run of
  /// equal arrival times in `sched`.
  void flush_group_schedule(const std::vector<std::pair<sim::SimTime, NodeId>>& sched,
                            const Message& msg);

  sim::Engine& eng_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::unique_ptr<Transport> transport_;
  sim::Rng loss_rng_;

  std::uint64_t next_id_ = 1;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t losses_injected_ = 0;

  struct ShardMcast {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };
  // [shard]; sized once from Transport::shard_count, which is fixed for
  // the backend's life, so hub_shards() needs no virtual call.
  std::vector<ShardMcast> shard_mcast_;
};

}  // namespace repseq::net
