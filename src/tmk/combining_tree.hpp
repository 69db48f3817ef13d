// The combining tree of a replicated section's bracket.
//
// Both bursts that would converge on the master when a replicated section
// opens and closes -- every replica's valid notices (Section 5.4.1) and
// every slave's join (Section 5.2) -- combine up one fixed-fan-in tree
// instead (a software combining tree: Yew, Tzeng and Lawrie, IEEE TC
// 1987).  Node i's parent is (i-1)/kFanIn.  Each node waits for its
// children's messages, adds its own and sends one message to its parent,
// so no node receives more than kFanIn per burst.  With n-1 <= kFanIn
// every slave is the master's child: the flat exchange.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tmk/vector_clock.hpp"

namespace repseq::tmk {

struct CombiningTree {
  /// Fan-in of every interior node: the fastest of 2 to 8 measured on
  /// Ilink's replicated sections at 128 nodes on the hub, and never slower
  /// than the flat exchange from 4 nodes up.
  static constexpr std::size_t kFanIn = 5;

  /// The node `node` (not the master) sends its combined message to.
  [[nodiscard]] static constexpr NodeId parent(NodeId node) {
    return static_cast<NodeId>((node - 1) / kFanIn);
  }
  /// The first of `node`'s children, whose ids are consecutive.
  [[nodiscard]] static constexpr std::size_t first_child(NodeId node) {
    return kFanIn * node + 1;
  }
  /// The number of children of `node` in a cluster of `nodes`.
  [[nodiscard]] static constexpr std::size_t children(NodeId node, std::size_t nodes) {
    const std::size_t first = first_child(node);
    return first >= nodes ? 0 : std::min(kFanIn, nodes - first);
  }
};

}  // namespace repseq::tmk
