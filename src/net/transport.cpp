#include "net/transport.hpp"

#include "net/batching_transport.hpp"
#include "net/direct_all_transport.hpp"
#include "net/sharded_hub_transport.hpp"
#include "net/tree_multicast_transport.hpp"
#include "util/check.hpp"

namespace repseq::net {

namespace {

std::unique_ptr<Transport> make_backend(sim::Engine& eng, const NetConfig& cfg,
                                        std::vector<std::unique_ptr<Nic>>& nics) {
  switch (cfg.transport) {
    case TransportKind::HubSwitch:
      // The paper's testbed: one hub carries every multicast, whatever
      // hub_shards says.
      return std::make_unique<ShardedHubTransport>(eng, cfg, nics, 1);
    case TransportKind::TreeMulticast:
      return std::make_unique<TreeMulticastTransport>(eng, cfg, nics);
    case TransportKind::DirectAll:
      return std::make_unique<DirectAllTransport>(eng, cfg, nics);
    case TransportKind::ShardedHub:
      return std::make_unique<ShardedHubTransport>(eng, cfg, nics, cfg.hub_shards);
  }
  REPSEQ_CHECK(false, "unknown transport kind");
}

}  // namespace

std::unique_ptr<Transport> make_transport(sim::Engine& eng, const NetConfig& cfg,
                                          std::vector<std::unique_ptr<Nic>>& nics) {
  auto backend = make_backend(eng, cfg, nics);
  // A zero window never wraps: behaviour (frames, events, loss draws) stays
  // bit-identical to the bare backend, which the invariance suite pins.
  if (cfg.batch_window.ns > 0) {
    return std::make_unique<BatchingTransport>(eng, cfg, nics, std::move(backend));
  }
  return backend;
}

}  // namespace repseq::net
