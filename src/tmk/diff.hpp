// Diffs: the multiple-writer protocol's unit of update propagation.
//
// A diff is the run-length encoding of the words that changed between a
// page's twin (copy taken at the first write) and its current contents
// (paper Section 2.2.2).  Applying a diff overwrites exactly those words,
// which is what lets concurrent writers to disjoint parts of a page merge
// without false-sharing ping-pong.
//
// Storage is contiguous: one vector of fixed-size run headers plus one
// vector holding every carried word, sized exactly in a counting pre-pass.
// The previous vector-of-vectors layout paid one heap allocation (plus
// growth reallocations) per run; diff creation sits on the fault-service
// hot path, so at 256+ nodes that was a measurable slice of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/pool_ptr.hpp"

namespace repseq::tmk {

class Diff {
 public:
  /// One run of modified 32-bit words, viewed in place (`values` aliases
  /// the diff's contiguous word buffer -- valid while the Diff lives).
  struct RunView {
    std::uint32_t word_index;               // offset within the page, in words
    std::span<const std::uint32_t> values;  // new values
  };

  /// Indexable view over the runs.
  class RunRange {
   public:
    explicit RunRange(const Diff* d) : d_(d) {}
    [[nodiscard]] std::size_t size() const { return d_->headers_.size(); }
    [[nodiscard]] RunView operator[](std::size_t i) const { return d_->run(i); }

   private:
    const Diff* d_;
  };

  /// Builds the diff `twin -> current`.  Both spans must be the same size,
  /// a multiple of 4 bytes.
  static Diff create(std::span<const std::byte> twin, std::span<const std::byte> current);

  /// Overwrites the runs into `page`.
  void apply(std::span<std::byte> page) const;

  [[nodiscard]] bool empty() const { return headers_.empty(); }
  [[nodiscard]] RunRange runs() const { return RunRange{this}; }

  /// Number of words carried.
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

  /// Encoded size on the wire: per-run header (index + length, 8 bytes)
  /// plus 4 bytes per word, plus a fixed page/interval header.
  [[nodiscard]] std::size_t wire_bytes() const {
    return 12 + 8 * headers_.size() + 4 * words_.size();
  }

 private:
  friend class RunRange;

  struct RunHeader {
    std::uint32_t word_index;  // offset within the page, in words
    std::uint32_t begin;       // offset of the run's words in words_
    std::uint32_t length;      // run length in words
  };

  [[nodiscard]] RunView run(std::size_t i) const {
    const RunHeader& h = headers_[i];
    return {h.word_index, {words_.data() + h.begin, h.length}};
  }

  std::vector<RunHeader> headers_;
  std::vector<std::uint32_t> words_;
};

using DiffPtr = util::PoolPtr<const Diff>;

}  // namespace repseq::tmk
