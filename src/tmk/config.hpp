// DSM runtime configuration and CPU cost model.
//
// CPU costs are calibrated to the paper's 800 MHz Athlon / FreeBSD testbed.
// They matter only through ratios (computation vs communication); the
// benchmark harness reports shape, not absolute seconds.
#pragma once

#include <cstdint>

#include "sim/clock.hpp"

namespace repseq::tmk {

/// Fields are the settings callers vary; static constexpr members are fixed calibration.
struct TmkConfig {
  /// Shared page size.  TreadMarks used the VM page size (4 KB).
  std::size_t page_bytes = 4096;

  /// Shared heap capacity.
  std::size_t heap_bytes = 8u << 20;

  /// CPU cost of a page-protection trap + handler entry (the cost of a
  /// page fault that TreadMarks takes via SIGSEGV).
  static constexpr sim::SimDuration fault_overhead = sim::microseconds(25);

  /// CPU cost per byte of diff creation (twin comparison + encode).
  static constexpr double diff_create_ns_per_byte = 1.5;
  /// Fixed CPU cost per diff creation.
  static constexpr sim::SimDuration diff_create_fixed = sim::microseconds(15);

  /// CPU cost per byte of diff application.
  static constexpr double diff_apply_ns_per_byte = 1.0;
  /// Fixed CPU cost per diff applied.
  static constexpr sim::SimDuration diff_apply_fixed = sim::microseconds(10);

  /// CPU cost of twin creation (page copy), per byte.
  static constexpr double twin_ns_per_byte = 0.4;

  /// Request retransmission timeout (TreadMarks retries lost UDP requests).
  sim::SimDuration request_timeout = sim::milliseconds(40);
  /// Abort after this many retransmissions of the same request.
  int max_retries = 25;

  /// Timeout before a faulting thread inside a replicated sequential
  /// section falls back to direct recovery (paper Section 5.4.2: "rather
  /// expensive ... almost never invoked").  Deliberately generous: rounds
  /// serialize at the master, so a legitimate wait spans many rounds.
  sim::SimDuration rse_wait_timeout = sim::milliseconds(2000);

  /// Quantum for accrued application compute (see sim::Cpu).
  static constexpr sim::SimDuration compute_quantum = sim::microseconds(50);
};

}  // namespace repseq::tmk
