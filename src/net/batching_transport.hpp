// Frame coalescing as a transport decorator.  Wraps any backend and runs a
// net::CoalescingWindow per destination: sends to one destination (unicast)
// -- or one medium shard (multicast) -- that pile up while the window is
// open leave as ONE combined wire frame whose payload is the concatenation
// of its constituents.  This is the classic small-frame batching of
// RDMA/UDP stacks: the chained null acks, write notices and window credits
// that dominate our traces are tens of bytes each, so the per-frame header
// + per-frame software cost dwarfs them.
//
// Semantics preserved:
//   * Per-destination FIFO: a queue flushes in enqueue order, and the
//     combined frame's delivery instant is shared by every constituent, so
//     two sends to the same destination never reorder.
//   * Accounting conservation: the inner backend's committed (frames,
//     bytes) for the combined frame are split across constituents at flush
//     time -- each *rider* is charged (0 frames, its payload bytes), the
//     *carrier* (first in the queue) is charged the frames plus everything
//     else (its own payload, the shared headers, and any fan-out
//     replication the inner backend reports).  Summed over constituents the
//     charges equal wire truth exactly.
//   * Loss: the facade draws loss per constituent delivery (at flush time),
//     exactly one draw per (constituent, receiver) -- the same draw count
//     as unbatched, so the loss process stays independent of the batching
//     axis and a coalesced frame can lose a subset of its riders.
//
// A deferring inner backend (the forwarding tree) keeps its multicast path:
// its frames leave hop by hop from interior nodes the decorator cannot see,
// so coalescing them here would be wrong -- TreeMulticastTransport instead
// piggybacks per interior edge on its own CoalescingWindow (same window,
// same carrier/rider split).  Its unicasts still batch here.
//
// window == 0 never constructs this class (see make_transport): zero-window
// behaviour is frame-for-frame the unwrapped backend.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "net/coalescing_window.hpp"
#include "net/transport.hpp"

namespace repseq::net {

class BatchingTransport final : public Transport {
 public:
  BatchingTransport(sim::Engine& eng, const NetConfig& cfg,
                    std::vector<std::unique_ptr<Nic>>& nics, std::unique_ptr<Transport> inner);

  void unicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
               const AccountFn& account) override;
  void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                 const AccountFn& account) override;

  /// Every send's callbacks fire at its window flush.
  [[nodiscard]] bool defers_delivery() const override { return true; }

  [[nodiscard]] std::size_t sender_frames(std::size_t receivers) const override {
    return inner_->sender_frames(receivers);
  }
  [[nodiscard]] sim::SimDuration multicast_price(std::size_t wire_bytes) const override {
    return inner_->multicast_price(wire_bytes);
  }
  [[nodiscard]] sim::SimDuration successor_price(std::size_t wire_bytes) const override {
    return inner_->successor_price(wire_bytes);
  }
  [[nodiscard]] std::size_t shard_count() const override { return inner_->shard_count(); }
  [[nodiscard]] sim::SimDuration shard_busy(std::size_t s) const override {
    return inner_->shard_busy(s);
  }

 private:
  /// One queued constituent send, held until its queue's flush.
  struct Pending {
    Message msg;
    DeliverFn deliver;
    AccountFn account;
  };

  /// Queues are keyed per (src, dst) for unicast -- bit 63 set -- and per
  /// (src, shard) for multicast: the granularity at which frames may
  /// legally combine.
  static std::uint64_t unicast_key(NodeId src, NodeId dst) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{src} << 32) | dst;
  }
  static std::uint64_t multicast_key(NodeId src, std::size_t shard) {
    return (std::uint64_t{src} << 32) | shard;
  }

  void enqueue(std::uint64_t key, const Message& msg, const DeliverFn& deliver,
               const AccountFn& account);
  /// Hands one (possibly combined) frame to the inner backend and splits
  /// the committed totals across constituents (carrier/rider).
  void transmit(std::uint64_t key, std::span<const Pending> batch);

  std::unique_ptr<Transport> inner_;
  CoalescingWindow<Pending> window_;
};

}  // namespace repseq::net
