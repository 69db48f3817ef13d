// The hub multicast medium: S independent half-duplex hubs, one of which
// carries any given group send, while unicast rides the switch.  With S = 1
// this is the paper's testbed wiring (TransportKind::HubSwitch: one shared
// hub, because their switch forwarded multicast slowly); a hub frame
// reaches every group member simultaneously.  With S > 1
// (TransportKind::ShardedHub) the shard is chosen by hashing the frame's
// multicast group (net::shard_of), so traffic for disjoint groups -- e.g.
// RSE rounds for different pages -- never serializes on the same medium,
// which removes the single hub as the bottleneck for concurrent rounds.
#pragma once

#include <vector>

#include "net/transport.hpp"

namespace repseq::net {

class ShardedHubTransport final : public SwitchedTransport {
 public:
  /// `shards` media (at least one).
  ShardedHubTransport(sim::Engine& eng, const NetConfig& cfg,
                      std::vector<std::unique_ptr<Nic>>& nics, std::size_t shards);

  void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                 const AccountFn& account) override;

  /// One frame on one medium reaches every receiver at once, whatever S.
  [[nodiscard]] sim::SimDuration multicast_price(std::size_t wire_bytes) const override {
    return NetConfig::send_overhead + cfg_.hub_tx_time(wire_bytes) + NetConfig::hub_latency +
           cfg_.recv_overhead;
  }

  [[nodiscard]] std::size_t shard_count() const override { return hubs_.size(); }
  [[nodiscard]] sim::SimDuration shard_busy(std::size_t s) const override {
    return s < hubs_.size() ? hubs_[s].busy : sim::SimDuration{};
  }

 private:
  /// One half-duplex hub: exactly one frame occupies it at a time.
  struct Hub {
    sim::SimTime free_at{};
    sim::SimDuration busy{};
  };
  std::vector<Hub> hubs_;
};

}  // namespace repseq::net
