#include "net/sharded_hub_transport.hpp"

#include <algorithm>

namespace repseq::net {

ShardedHubTransport::ShardedHubTransport(sim::Engine& eng, const NetConfig& cfg,
                                         std::vector<std::unique_ptr<Nic>>& nics,
                                         std::size_t shards)
    : SwitchedTransport(eng, cfg, nics), hubs_(std::max<std::size_t>(1, shards)) {}

void ShardedHubTransport::multicast(const Message& msg, std::size_t wire_bytes,
                                    const DeliverFn& deliver, const AccountFn& account) {
  // One frame occupies the group's shard of the medium; all receivers see
  // it at the same instant once it has fully propagated.  Frames on other
  // shards are concurrent.
  Hub& hub = hubs_[shard_of(msg.mcast_group, hubs_.size())];
  const sim::SimDuration tx = cfg_.hub_tx_time(wire_bytes);
  hub.free_at = std::max(eng_.now(), hub.free_at) + tx;
  hub.busy += tx;
  const sim::SimTime done = hub.free_at + cfg_.hub_latency;
  account(1, wire_bytes);
  for (NodeId n = 0; n < nics_.size(); ++n) {
    if (n == msg.src) continue;  // the sender consumes its own data locally
    deliver(n, done);
  }
}

}  // namespace repseq::net
