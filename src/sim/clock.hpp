// Virtual time for the discrete-event cluster simulation.
//
// All latencies, bandwidth delays and CPU costs in the reproduction are
// expressed in virtual nanoseconds.  Strong types keep wall-clock time (which
// is meaningless here) out of the measurement path.
#pragma once

#include <compare>
#include <cstdint>

namespace repseq::sim {

/// A span of virtual time, in nanoseconds.
struct SimDuration {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const SimDuration&) const = default;
  constexpr SimDuration operator+(SimDuration o) const { return {ns + o.ns}; }
  constexpr SimDuration operator-(SimDuration o) const { return {ns - o.ns}; }
  constexpr SimDuration& operator+=(SimDuration o) {
    ns += o.ns;
    return *this;
  }
  constexpr SimDuration& operator-=(SimDuration o) {
    ns -= o.ns;
    return *this;
  }
  constexpr SimDuration operator*(std::int64_t k) const { return {ns * k}; }

  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] constexpr double millis() const { return static_cast<double>(ns) * 1e-6; }
  [[nodiscard]] constexpr double micros() const { return static_cast<double>(ns) * 1e-3; }
};

constexpr SimDuration nanoseconds(std::int64_t v) { return {v}; }
constexpr SimDuration microseconds(std::int64_t v) { return {v * 1000}; }
constexpr SimDuration milliseconds(std::int64_t v) { return {v * 1'000'000}; }

/// An instant of virtual time since simulation start.
struct SimTime {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(SimDuration d) const { return {ns + d.ns}; }
  constexpr SimDuration operator-(SimTime o) const { return {ns - o.ns}; }

  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] constexpr double millis() const { return static_cast<double>(ns) * 1e-6; }
};

}  // namespace repseq::sim
