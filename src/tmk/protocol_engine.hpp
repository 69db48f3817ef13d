// Typed message-dispatch registry for the per-node request server.
//
// Each Message::Kind has exactly one registered handler.  The tmk base
// protocol registers its handlers at Cluster construction
// (NodeRuntime::register_base_protocol); a protocol extension -- the RSE
// engine's flow-control variants -- registers its own in its constructor.  The dispatcher fiber then routes every inbound
// message through dispatch(), which replaces the monolithic switch that
// previously fused all protocol handling into NodeRuntime.
#pragma once

#include <functional>
#include <unordered_map>

#include "net/message.hpp"
#include "tmk/protocol.hpp"

namespace repseq::tmk {

class NodeRuntime;

class ProtocolEngine {
 public:
  /// Handlers run on the destination node's dispatcher fiber.
  using Handler = std::function<void(NodeRuntime&, const net::Message&)>;

  /// Registers the handler for `kind`.  Double registration is a protocol
  /// wiring bug (two subsystems claiming one kind) and aborts.
  void on(MsgKind kind, Handler h);

  /// Routes `msg` to its handler; returns false when no handler is
  /// registered for the message's kind.
  bool dispatch(NodeRuntime& rt, const net::Message& msg) const;

 private:
  std::unordered_map<std::uint32_t, Handler> handlers_;
};

}  // namespace repseq::tmk
