#include "net/batching_transport.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repseq::net {

BatchingTransport::BatchingTransport(sim::Engine& eng, const NetConfig& cfg,
                                     std::vector<std::unique_ptr<Nic>>& nics,
                                     std::unique_ptr<Transport> inner)
    : Transport(eng, cfg, nics),
      inner_(std::move(inner)),
      window_(eng, cfg.batch_window,
              [this](std::uint64_t key, std::span<const Pending> batch) { transmit(key, batch); }) {
  REPSEQ_CHECK(cfg.batch_window.ns > 0, "BatchingTransport needs a nonzero window");
}

void BatchingTransport::unicast(const Message& msg, std::size_t wire_bytes,
                                const DeliverFn& deliver, const AccountFn& account) {
  (void)wire_bytes;  // recomputed for the combined payload at flush
  enqueue(unicast_key(msg.src, msg.dst), msg, deliver, account);
}

void BatchingTransport::multicast(const Message& msg, std::size_t wire_bytes,
                                  const DeliverFn& deliver, const AccountFn& account) {
  if (inner_->defers_delivery()) {
    // The forwarding tree's frames leave hop by hop from interior nodes;
    // it piggybacks per interior edge itself (tree_multicast_transport).
    inner_->multicast(msg, wire_bytes, deliver, account);
    return;
  }
  enqueue(multicast_key(msg.src, shard_of(msg.mcast_group, inner_->shard_count())), msg, deliver,
          account);
}

void BatchingTransport::enqueue(std::uint64_t key, const Message& msg, const DeliverFn& deliver,
                                const AccountFn& account) {
  if (obs::enabled(obs::Cat::Net) && !window_.is_open(key)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(), static_cast<std::int32_t>(msg.src) + 1,
                          "net-batch", "window-open",
                          {{"key", static_cast<double>(key)},
                           {"window_ns", static_cast<double>(cfg_.batch_window.ns)}});
  }
  window_.push(key, Pending{msg, deliver, account});
}

void BatchingTransport::transmit(std::uint64_t key, std::span<const Pending> batch) {
  const bool is_multicast = (key >> 63) == 0;
  // The combined frame: concatenated payloads under one set of headers.
  // Group identity (src, dst/mcast_group, kind) is taken from the carrier;
  // every constituent in this queue shares the delivery set by key
  // construction, and the inner backend never reads the payload.
  Message combined = batch.front().msg;
  std::size_t payload_total = 0;
  for (const Pending& p : batch) payload_total += p.msg.payload_bytes;
  combined.payload_bytes = payload_total;
  const std::size_t combined_wire = cfg_.wire_bytes(payload_total);
  if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(),
                          static_cast<std::int32_t>(combined.src) + 1, "net-batch",
                          "batch-commit",
                          {{"coalesced", static_cast<double>(batch.size())},
                           {"wire_bytes", static_cast<double>(combined_wire)},
                           {"mcast", is_multicast ? 1.0 : 0.0}});
  }

  // The inner backend is synchronous on this path (unicast everywhere;
  // multicast only for non-deferring backends), so the committed totals are
  // complete when the call returns and can be split across constituents.
  std::size_t frames_total = 0;
  std::size_t bytes_total = 0;
  const auto deliver_all = [&](NodeId dst, sim::SimTime at) {
    bool any = false;
    for (const Pending& p : batch) {
      if (p.deliver(dst, at)) any = true;  // per-constituent loss draw
    }
    return any;
  };
  const auto account_total = [&](std::size_t frames, std::size_t bytes) {
    frames_total += frames;
    bytes_total += bytes;
  };
  if (is_multicast) {
    inner_->multicast(combined, combined_wire, deliver_all, account_total);
  } else {
    inner_->unicast(combined, combined_wire, deliver_all, account_total);
  }

  // Carrier/rider split (see transport.hpp): riders pay their payload
  // bytes, the carrier pays the rest (frames, headers, fan-out).
  std::size_t rider_bytes = 0;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    rider_bytes += batch[i].msg.payload_bytes;
    batch[i].account(0, batch[i].msg.payload_bytes);
  }
  REPSEQ_CHECK(bytes_total >= rider_bytes, "combined frame smaller than its riders");
  batch.front().account(frames_total, bytes_total - rider_bytes);
}

}  // namespace repseq::net
