// The transport-level message unit.  The network layer is deliberately
// payload-agnostic: upper layers (the DSM protocol) attach a typed payload
// object plus an explicit wire-size so byte accounting matches what a real
// serialization would have produced.  Since the whole cluster lives in one
// address space there is no reason to actually serialize.
#pragma once

#include <cstdint>

#include "util/pool_ptr.hpp"

namespace repseq::net {

using NodeId = std::uint32_t;

/// Destination value meaning "the single IP-multicast group" (every node
/// joins it at program start, paper Section 5.4).
inline constexpr NodeId kMulticastDst = 0xffffffffu;

struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  /// Protocol-defined discriminator (net layer treats it as opaque).
  std::uint32_t kind = 0;
  /// Exempt from loss injection and from receive-ring overflow drops: the
  /// protocol layer marks traffic whose loss it has no recovery for.  Sits
  /// in the padding after `kind`, so a Message stays 48 bytes.
  bool reliable = false;
  /// Multicast group key: the sharded-hub medium hashes it to pick the
  /// shard carrying this frame (see net::shard_of).  Ignored by unicast and
  /// by single-medium backends.  The DSM layer keys round traffic by page.
  std::uint64_t mcast_group = 0;
  /// Payload bytes as they would appear on the wire (excluding headers).
  std::size_t payload_bytes = 0;
  /// The typed payload, cast back by the protocol layer.  Pool-backed and
  /// non-atomically counted: multicast delivery copies this handle once per
  /// receiver, which must not be a locked RMW storm at 1024 nodes.
  util::PoolPtr<const void> payload{};
  /// Unique per-simulation id (assigned by Network::send) for tracing.
  std::uint64_t id = 0;

  template <typename T>
  [[nodiscard]] const T& as() const {
    return *static_cast<const T*>(payload.get());
  }
};

}  // namespace repseq::net
