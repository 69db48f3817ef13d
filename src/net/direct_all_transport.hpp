// The fan-out strawman: "multicast" as one switched unicast per destination.
// All N-1 frames serialize back-to-back on the source uplink, which is
// exactly the contention the paper's hub multicast avoids -- this backend
// exists to make that cost measurable (ablation_broadcast_all).
#pragma once

#include "net/transport.hpp"

namespace repseq::net {

class DirectAllTransport final : public SwitchedTransport {
 public:
  DirectAllTransport(sim::Engine& eng, const NetConfig& cfg,
                     std::vector<std::unique_ptr<Nic>>& nics)
      : SwitchedTransport(eng, cfg, nics) {}

  void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                 const AccountFn& account) override;

  /// The source transmits every fan-out frame itself.
  [[nodiscard]] std::size_t sender_frames(std::size_t receivers) const override {
    return receivers;
  }

  /// The last receiver's frame leaves after every other fan-out frame.
  [[nodiscard]] sim::SimDuration multicast_price(std::size_t wire_bytes) const override {
    const auto receivers = static_cast<std::int64_t>(nics_.size()) - 1;
    return (NetConfig::send_overhead + cfg_.link_tx_time(wire_bytes)) * receivers +
           NetConfig::hop_latency * 2 + cfg_.recv_overhead;
  }
};

}  // namespace repseq::net
