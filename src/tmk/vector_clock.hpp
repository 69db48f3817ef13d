// Vector timestamps over node (thread) ids.  Entry t of node p's clock is
// the most recent interval of thread t that precedes p's current interval in
// the happens-before partial order (paper Section 5.1).
//
// Storage is lazy: a clock knows its logical size from construction but
// allocates the entry array only on the first write.  An unmaterialized
// clock reads as all-zeros, which is exactly the initial timestamp -- this
// matters because the runtime keeps one clock per page per node
// (O(pages x nodes^2) entries cluster-wide) and the vast majority of pages
// are never invalidated, so their clocks stay at zero forever.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace repseq::tmk {

using NodeId = std::uint32_t;

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t nodes) : size_(nodes) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::uint32_t at(NodeId n) const { return v_.empty() ? 0 : v_[n]; }
  void set(NodeId n, std::uint32_t val) {
    materialize();
    v_[n] = val;
  }
  void bump(NodeId n) {
    materialize();
    ++v_[n];
  }

  /// True when this clock already covers interval `index` of `owner`
  /// (i.e. that interval happens-before or equals our knowledge).
  [[nodiscard]] bool covers(NodeId owner, std::uint32_t index) const {
    return at(owner) >= index;
  }

  /// Pairwise maximum (performed by the acquirer after a release message).
  void max_with(const VectorClock& o) {
    REPSEQ_CHECK(o.size() == size(), "vector clock size mismatch");
    if (o.v_.empty()) return;  // all-zero contributes nothing
    materialize();
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] = std::max(v_[i], o.v_[i]);
  }

  /// Pointwise <=.
  [[nodiscard]] bool dominated_by(const VectorClock& o) const {
    REPSEQ_CHECK(o.size() == size(), "vector clock size mismatch");
    if (v_.empty()) return true;  // all-zero is dominated by everything
    for (std::size_t i = 0; i < v_.size(); ++i) {
      if (v_[i] > (o.v_.empty() ? 0 : o.v_[i])) return false;
    }
    return true;
  }

  /// Scalar Lamport projection: strictly increases along happens-before,
  /// usable to totally order interval records consistently with causality.
  [[nodiscard]] std::uint64_t lamport_sum() const {
    return std::accumulate(v_.begin(), v_.end(), std::uint64_t{0});
  }

  /// Logical value comparison: an unmaterialized clock equals an all-zero
  /// materialized one of the same size.
  [[nodiscard]] bool operator==(const VectorClock& o) const {
    if (size_ != o.size_) return false;
    if (v_.empty() && o.v_.empty()) return true;
    for (std::size_t i = 0; i < size_; ++i) {
      if (at(static_cast<NodeId>(i)) != o.at(static_cast<NodeId>(i))) return false;
    }
    return true;
  }

 private:
  void materialize() {
    if (v_.empty()) v_.assign(size_, 0);
  }

  std::size_t size_ = 0;
  std::vector<std::uint32_t> v_;
};

}  // namespace repseq::tmk
