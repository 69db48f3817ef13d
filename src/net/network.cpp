#include "net/network.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repseq::net {

Network::Network(sim::Engine& eng, NetConfig cfg, std::size_t nodes)
    : eng_(eng), cfg_(cfg), loss_rng_(cfg.loss_seed) {
  REPSEQ_CHECK(nodes >= 1, "network needs at least one node");
  nics_.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    nics_.push_back(std::make_unique<Nic>(eng_, cfg_));
  }
  transport_ = make_transport(eng_, cfg_, nics_);
  shard_mcast_.resize(transport_->shard_count());
}

bool Network::deliver_at(sim::SimTime t, NodeId dst, const Message& msg) {
  if (lose_frame(msg)) return false;
  eng_.schedule_at(t, [this, dst, msg] { hand_to_nic(dst, msg); });
  return true;
}

void Network::hand_to_nic(NodeId dst, const Message& msg) {
  Nic& nic = *nics_[dst];
  if (nic.deliver(msg)) {
    ++deliveries_;
  } else if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(), static_cast<std::int32_t>(dst) + 1, "net",
                          "drop",
                          {{"src", static_cast<double>(msg.src)},
                           {"kind", static_cast<double>(msg.kind)},
                           {"backlog", static_cast<double>(nic.backlog())}});
  }
}

std::uint64_t Network::unicast(Message msg, SendAccount account) {
  REPSEQ_CHECK(msg.src < nics_.size(), "bad unicast src");
  REPSEQ_CHECK(msg.dst < nics_.size(), "bad unicast dst");
  REPSEQ_CHECK(msg.dst != msg.src, "unicast to self");
  msg.id = next_id_++;
  const std::size_t wire = cfg_.wire_bytes(msg.payload_bytes);
  if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(), static_cast<std::int32_t>(msg.src) + 1,
                          "net", "unicast",
                          {{"dst", static_cast<double>(msg.dst)},
                           {"wire_bytes", static_cast<double>(wire)},
                           {"kind", static_cast<double>(msg.kind)}});
  }
  const sim::SimTime sent = eng_.now();

  if (!transport_->defers_delivery()) {
    // Synchronous backends: both callbacks fire inside this call, so the
    // whole send stays on the stack -- no per-send allocation.
    transport_->unicast(
        msg, wire,
        [&](NodeId dst, sim::SimTime at) {
          REPSEQ_CHECK(at >= sent, "transport delivered into the past");
          return deliver_at(at, dst, msg);
        },
        [&](std::size_t frames, std::size_t bytes) {
          messages_sent_ += frames;
          bytes_sent_ += bytes;
          if (account) account(frames, bytes);
        });
    return msg.id;
  }

  // Coalescing backend: the frame leaves (and is charged) at the window
  // flush, after this call returns, so the callbacks must own their state.
  // The loss draw also moves to commit time, per constituent.
  struct UniSend {
    Network* nw;
    Message msg;
    sim::SimTime sent;
    SendAccount account;
  };
  auto u = util::make_pooled<UniSend>(UniSend{this, std::move(msg), sent, std::move(account)});
  transport_->unicast(
      u->msg, wire,
      [u](NodeId dst, sim::SimTime at) {
        REPSEQ_CHECK(at >= u->sent, "transport delivered into the past");
        return u->nw->deliver_at(at, dst, u->msg);
      },
      [u](std::size_t frames, std::size_t bytes) {
        u->nw->messages_sent_ += frames;
        u->nw->bytes_sent_ += bytes;
        if (u->account) u->account(frames, bytes);
      });
  return u->msg.id;
}

void Network::flush_group_schedule(const std::vector<std::pair<sim::SimTime, NodeId>>& sched,
                                   const Message& msg) {
  // One simulation event per run of equal delivery times: the hub reaches
  // every receiver simultaneously, so its group send stays a single event.
  for (std::size_t i = 0; i < sched.size();) {
    std::size_t j = i;
    while (j < sched.size() && sched[j].first == sched[i].first) ++j;
    std::vector<NodeId> group;
    group.reserve(j - i);
    for (std::size_t g = i; g < j; ++g) group.push_back(sched[g].second);
    eng_.schedule_at(sched[i].first, [this, group = std::move(group), msg] {
      for (NodeId n : group) hand_to_nic(n, msg);
    });
    i = j;
  }
}

bool Network::lose_frame(const Message& msg) {
  if (cfg_.loss_probability > 0.0 && !msg.reliable &&
      loss_rng_.chance(cfg_.loss_probability)) {
    ++losses_injected_;
    if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
      obs::tracer().instant(obs::Cat::Net, eng_.now(), 0, "net", "loss-drop",
                            {{"src", static_cast<double>(msg.src)},
                             {"dst", static_cast<double>(msg.dst)},
                             {"kind", static_cast<double>(msg.kind)}});
    }
    return true;
  }
  return false;
}

std::uint64_t Network::multicast(Message msg, SendAccount account) {
  REPSEQ_CHECK(msg.src < nics_.size(), "bad multicast src");
  msg.dst = kMulticastDst;
  msg.id = next_id_++;
  const std::size_t wire = cfg_.wire_bytes(msg.payload_bytes);
  if (obs::enabled(obs::Cat::Net)) [[unlikely]] {
    obs::tracer().instant(obs::Cat::Net, eng_.now(), static_cast<std::int32_t>(msg.src) + 1,
                          "net", "multicast",
                          {{"group", static_cast<double>(msg.mcast_group)},
                           {"wire_bytes", static_cast<double>(wire)},
                           {"kind", static_cast<double>(msg.kind)}});
  }
  const sim::SimTime sent = eng_.now();
  const std::size_t shard = shard_of_group(msg.mcast_group);

  // Frame accounting is backend-dependent: a true multicast medium carries
  // one frame regardless of group size (paper: "each multicast message is
  // counted as a single message"); unicast-composed backends pay per edge
  // actually transmitted, reported hop by hop.

  if (!transport_->defers_delivery()) {
    // Synchronous backends: every callback fires inside this call, so the
    // whole send stays on the stack -- no per-send allocation.
    std::vector<std::pair<sim::SimTime, NodeId>> sched;
    transport_->multicast(
        msg, wire,
        [&](NodeId dst, sim::SimTime at) {
          REPSEQ_CHECK(at >= sent, "transport delivered into the past");
          if (lose_frame(msg)) return false;
          sched.emplace_back(at, dst);
          return true;
        },
        [&](std::size_t frames, std::size_t bytes) {
          messages_sent_ += frames;
          bytes_sent_ += bytes;
          shard_mcast_[shard].frames += frames;
          shard_mcast_[shard].bytes += bytes;
          if (account) account(frames, bytes);
        });
    flush_group_schedule(sched, msg);
    return msg.id;
  }

  // Event-driven backend: interior hops commit from deferred forwarding
  // events, so both callbacks outlive this call and must own their state
  // (loss can prune a forwarding tree's subtrees before they are charged).
  struct Burst {
    Network* nw;
    Message msg;
    sim::SimTime sent;
    std::size_t shard;
    SendAccount account;
    /// Deliveries reported synchronously (the root's own hops), batched
    /// by flush_group_schedule like any synchronous send.
    bool collecting = true;
    std::vector<std::pair<sim::SimTime, NodeId>> sched;
  };
  auto b = util::make_pooled<Burst>(
      Burst{this, std::move(msg), sent, shard, std::move(account), /*collecting=*/true, {}});

  transport_->multicast(
      b->msg, wire,
      [b](NodeId dst, sim::SimTime at) {
        Network& nw = *b->nw;
        REPSEQ_CHECK(at >= b->sent, "transport delivered into the past");
        if (nw.lose_frame(b->msg)) return false;
        if (b->collecting) {
          b->sched.emplace_back(at, dst);
        } else {
          // Deferred forwarding hop: schedule this receiver on its own.
          nw.eng_.schedule_at(at, [&nw, dst, msg = b->msg] { nw.hand_to_nic(dst, msg); });
        }
        return true;
      },
      [b](std::size_t frames, std::size_t bytes) {
        Network& nw = *b->nw;
        nw.messages_sent_ += frames;
        nw.bytes_sent_ += bytes;
        nw.shard_mcast_[b->shard].frames += frames;
        nw.shard_mcast_[b->shard].bytes += bytes;
        if (b->account) b->account(frames, bytes);
      });

  b->collecting = false;
  flush_group_schedule(b->sched, b->msg);
  b->sched.clear();
  return b->msg.id;
}

std::uint64_t Network::total_drops() const {
  std::uint64_t d = 0;
  for (const auto& nic : nics_) d += nic->drops();
  return d;
}

}  // namespace repseq::net
