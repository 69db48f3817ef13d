// The one parser for values that reach the program from outside it: the
// REPSEQ_* environment axes, and the drivers' command-line spellings of them.
//
// A malformed axis value must kill the run, not silently fall back: a sweep
// that quietly ran the wrong transport, pin or size produces tables that
// look fine and mean nothing.  Every such exit goes through axis_error, so
// every axis fails the same way: exit 2, naming the value and the accepted
// set.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace repseq::util {

/// Prints `error: unknown <axis> '<got>' (accepted: <accepted>)` and exits 2.
[[noreturn]] void axis_error(std::string_view axis, std::string_view got,
                             std::string_view accepted);

/// The whole of `s` as one base-10 integer in [min, max]; nullopt for
/// anything else ("", "4x", "1.5", "+8", " 8", out of range, overflow).
[[nodiscard]] std::optional<long> parse_long(std::string_view s, long min,
                                             long max = std::numeric_limits<long>::max());

/// ORs a comma list of `names` into a mask: names[i] sets bit i, and "all"
/// sets every name's bit.  An unknown or empty token ("", "a,,b", a trailing
/// comma) returns nullopt and is reported through `bad`.
[[nodiscard]] std::optional<std::uint8_t> parse_mask(
    std::string_view s, std::initializer_list<std::string_view> names, std::string* bad);

namespace detail {
/// The raw value of REPSEQ_<name>; nullptr when unset.  `name` must be on
/// axis.cpp's list of axes (anything else aborts), and any REPSEQ_* variable
/// set but not on it goes to axis_error.
[[nodiscard]] const char* axis_value(std::string_view name);
}  // namespace detail

/// Reads REPSEQ_<name>.  Unset gives `fallback`; a value `parse` rejects
/// (returns nullopt for) goes to axis_error with `accepted`.
template <typename Parse,
          typename T = typename std::invoke_result_t<Parse&, std::string_view>::value_type>
[[nodiscard]] T env_or(std::string_view name, std::type_identity_t<T> fallback, Parse parse,
                       std::string_view accepted) {
  const char* v = detail::axis_value(name);
  if (v == nullptr) return fallback;
  auto parsed = parse(std::string_view(v));
  if (!parsed) axis_error("REPSEQ_" + std::string(name), v, accepted);
  return *std::move(parsed);
}

/// env_or over parse_long: an integer axis in [min, max], whose error names
/// the range.
[[nodiscard]] long env_long(std::string_view name, long fallback, long min,
                            long max = std::numeric_limits<long>::max());

}  // namespace repseq::util
