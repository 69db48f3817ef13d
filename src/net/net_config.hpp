// Network and cost-model parameters for the simulated network of
// workstations.  Defaults are calibrated to the paper's testbed class:
// 800 MHz Athlon nodes on 100 Mbps switched Ethernet (unicast) plus a
// 100 Mbps hub (multicast), UDP user-level messaging (TreadMarks 1.0.3).
//
// Calibration targets are the paper's *measured* protocol latencies:
// an uncontended diff-request round trip of ~0.7-0.9 ms and a contended
// one of ~3.0-3.4 ms on 32 nodes (Tables 2 and 4).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/clock.hpp"
#include "util/axis.hpp"

namespace repseq::net {

/// Which wire model carries the cluster's traffic (see net/transport.hpp).
enum class TransportKind {
  /// Unicast rides the switch, multicast rides one shared hub (the paper's
  /// testbed: switched Ethernet + a multicast hub).  Always one medium,
  /// whatever NetConfig::hub_shards says.
  HubSwitch,
  /// Software multicast: a k-ary forwarding tree of switched unicasts with
  /// per-hop latency (the Section 6.1.2 hand-inserted tree broadcast).
  TreeMulticast,
  /// Strawman: multicast as a per-destination unicast fan-out serialized on
  /// the source uplink.
  DirectAll,
  /// S independent hub media (NetConfig::hub_shards); each multicast group
  /// hashes to one shard, so rounds on disjoint groups never serialize on
  /// the same medium.  The same wire model as HubSwitch, which is S = 1.
  ShardedHub,
};

[[nodiscard]] constexpr const char* transport_name(TransportKind k) {
  switch (k) {
    case TransportKind::HubSwitch:
      return "hub-switch";
    case TransportKind::TreeMulticast:
      return "tree-multicast";
    case TransportKind::DirectAll:
      return "direct-all";
    case TransportKind::ShardedHub:
      return "sharded-hub";
  }
  return "?";
}

/// Parses a transport selection from a CLI flag / environment variable.
/// Accepts the canonical names plus short aliases ("hub", "tree", "direct",
/// "sharded").
[[nodiscard]] inline std::optional<TransportKind> parse_transport(std::string_view s) {
  if (s == "hub" || s == "hub-switch") return TransportKind::HubSwitch;
  if (s == "tree" || s == "tree-multicast") return TransportKind::TreeMulticast;
  if (s == "direct" || s == "direct-all") return TransportKind::DirectAll;
  if (s == "sharded" || s == "sharded-hub") return TransportKind::ShardedHub;
  return std::nullopt;
}

/// Deterministic multicast-group -> shard mapping of the multicast backends.
/// Layers above the network ask Network::shard_of_group, so placement has
/// one owner and per-shard round serialization always matches the medium.
/// splitmix64 finalizer: cheap, well-dispersed, stable across runs.
[[nodiscard]] constexpr std::size_t shard_of(std::uint64_t group, std::size_t shards) {
  if (shards <= 1) return 0;
  std::uint64_t x = group + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

/// Parses a coalescing-window selection (REPSEQ_BATCH_WINDOW / CLI): a
/// non-negative integer count of virtual microseconds.  0 disables
/// coalescing entirely (the frame-for-frame behaviour of the unwrapped
/// backends).  Returns nullopt on anything else -- callers fail loud.
[[nodiscard]] inline std::optional<sim::SimDuration> parse_batch_window(std::string_view s) {
  // Above 1000 virtual seconds a window is nonsense.
  const auto us = util::parse_long(s, 0, 1'000'000'000);
  if (!us) return std::nullopt;
  return sim::microseconds(*us);
}

/// Fields are the settings callers vary; static constexpr members are fixed calibration.
struct NetConfig {
  /// Transport backend carrying unicast and multicast traffic.
  TransportKind transport = TransportKind::HubSwitch;

  /// Frame-coalescing window.  When nonzero, outgoing frames queued for the
  /// same destination (unicast) / the same medium shard (multicast) within
  /// this span of virtual time leave as ONE combined wire frame:
  /// net::BatchingTransport wraps the selected backend, and the forwarding
  /// tree additionally piggybacks concurrent group forwards per interior
  /// edge.  Zero (the default) means no wrapping -- behaviour is
  /// frame-for-frame identical to the unwrapped backend.
  sim::SimDuration batch_window{};

  /// Fan-out of the TreeMulticast forwarding tree (k-ary, k >= 1).
  static constexpr std::size_t mcast_tree_fanout = 2;

  /// Number of multicast serialization domains (S >= 1): the hub media of
  /// the ShardedHub transport, and the concurrency domains the
  /// TreeMulticast transport reports when batch_window > 0.  HubSwitch
  /// always uses one medium; DirectAll and the unbatched tree ignore it.
  std::size_t hub_shards = 4;

  /// Link rate of each node's switched full-duplex port, bytes per second.
  /// 100 Mbps = 12.5 MB/s.
  static constexpr double link_bytes_per_sec = 12.5e6;

  /// Rate of the shared half-duplex multicast hub, bytes per second.
  static constexpr double hub_bytes_per_sec = 12.5e6;

  /// Propagation + store-and-forward fixed latency per unicast hop
  /// (node->switch or switch->node).
  static constexpr sim::SimDuration hop_latency = sim::microseconds(5);

  /// Fixed latency for a frame across the hub.
  static constexpr sim::SimDuration hub_latency = sim::microseconds(5);

  /// Software send cost charged to the sending CPU per message
  /// (UDP stack traversal, ~70 us on an 800 MHz machine).
  static constexpr sim::SimDuration send_overhead = sim::microseconds(70);

  /// Software receive/dispatch cost per message on the destination.
  sim::SimDuration recv_overhead = sim::microseconds(35);

  /// Capacity of a node's receive ring in messages.  Arrivals beyond this
  /// are dropped (the buffer-overflow hazard of paper Section 5.4 that
  /// motivates flow control).
  std::size_t recv_buffer_msgs = 64;

  /// Per-frame maximum transfer unit.  Larger payloads are charged as
  /// multiple frames' worth of wire time (fragmentation), all-or-nothing
  /// delivery as in TreadMarks' UDP usage.
  static constexpr std::size_t mtu_bytes = 1500;

  /// Fixed header bytes added per message (UDP/IP/Ethernet).
  static constexpr std::size_t header_bytes = 42;

  /// Probability that any given delivery is lost (loss injection for
  /// testing the recovery path).  Zero by default.
  double loss_probability = 0.0;

  /// Seed for the loss-injection RNG.
  std::uint64_t loss_seed = 0x5eed;

  /// Computes serialized wire size (payload + per-fragment headers).
  [[nodiscard]] std::size_t wire_bytes(std::size_t payload) const {
    const std::size_t max_frag = mtu_bytes - header_bytes;
    const std::size_t frags = payload == 0 ? 1 : (payload + max_frag - 1) / max_frag;
    return payload + frags * header_bytes;
  }

  /// Serialization time of one frame on a switched link (uplink or switch
  /// port).  The single source of the bytes -> wire-time conversion: every
  /// link-rate resource (Nic, SwitchFabric, the tree transport's busy
  /// accounting) must agree to the nanosecond or occupancy conservation
  /// checks drift.
  [[nodiscard]] sim::SimDuration link_tx_time(std::size_t bytes) const {
    return sim::SimDuration{static_cast<std::int64_t>(
        static_cast<double>(bytes) / link_bytes_per_sec * 1e9)};
  }

  /// Serialization time of one frame on the shared multicast hub medium.
  [[nodiscard]] sim::SimDuration hub_tx_time(std::size_t bytes) const {
    return sim::SimDuration{static_cast<std::int64_t>(
        static_cast<double>(bytes) / hub_bytes_per_sec * 1e9)};
  }
};

}  // namespace repseq::net
