// The shared heap allocator.  TreadMarks programs place all shared data on
// a shared heap (`Tmk_malloc`); the OpenMP translator also gathers shared
// globals into one structure allocated there (paper Section 2.3).
//
// Allocation metadata is cluster-global and deterministic: every node sees
// identical addresses, which is both what a real DSM provides (same mapping
// on every node) and what replicated sequential execution requires of
// guarded allocation calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tmk/gaddr.hpp"
#include "util/check.hpp"

namespace repseq::tmk {

class SharedHeap {
 public:
  explicit SharedHeap(std::size_t capacity) : capacity_(capacity) {}

  /// Allocates `bytes` with the given alignment (power of two).
  GAddr alloc(std::size_t bytes, std::size_t align = 8) {
    REPSEQ_CHECK((align & (align - 1)) == 0, "alignment must be a power of two");
    std::uint64_t base = (next_ + align - 1) & ~(static_cast<std::uint64_t>(align) - 1);
    REPSEQ_CHECK(base + bytes <= capacity_,
                 "shared heap exhausted: need " + std::to_string(bytes) + " at " +
                     std::to_string(base) + ", capacity " + std::to_string(capacity_));
    next_ = base + bytes;
    ++allocations_;
    return GAddr{base};
  }

  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  std::size_t capacity_;
  std::uint64_t next_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace repseq::tmk
