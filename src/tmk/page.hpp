// Per-node page state for the multiple-writer lazy-invalidate protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tmk/diff.hpp"
#include "tmk/interval.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {

enum class PageProt : std::uint8_t {
  Invalid,   // pending write notices; access faults
  ReadOnly,  // up to date; first write creates a twin
  Writable,  // dirty in the current interval (twin exists)
};

struct PageState {
  PageProt prot = PageProt::ReadOnly;

  /// While the page holds a twin: its position in the owning node's
  /// twinned-page list (NodeRuntime::twinned_pages).
  std::uint32_t twin_slot = 0;

  /// Copy taken at the first write after the page was last clean; present
  /// while there are local modifications not yet captured in a diff.
  std::unique_ptr<std::byte[]> twin;

  /// Own interval indices whose modifications live in the current twin
  /// (diff not yet created -- lazy diff creation, paper Section 5.1).
  std::vector<std::uint32_t> open_intervals;

  /// True when written during the current (not yet closed) interval.
  bool dirty_in_current = false;

  /// Write notices received but whose diffs have not been applied here,
  /// in arrival order.  Sorted causally at fault time.  The paper's "valid
  /// notices" (Section 5.4.1) communicate them in compact form
  /// (tmk::ValidNotice).
  std::vector<IntervalRecordPtr> pending;

  /// Local knowledge timestamp: covers (owner, index) iff this copy
  /// reflects owner's interval `index` modifications to this page.
  VectorClock valid_vc;

  /// Set during a replicated sequential section when the page was dirty on
  /// entry and has been write-protected (paper Section 5.3).
  bool rse_write_protected = false;

  /// Set while the page is listed in NodeRuntime::section_writes().
  bool section_written = false;

  [[nodiscard]] bool has_twin() const { return twin != nullptr; }
};

}  // namespace repseq::tmk
