#include "util/axis.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "util/check.hpp"

namespace repseq::util {

void axis_error(std::string_view axis, std::string_view got, std::string_view accepted) {
  std::fprintf(stderr, "error: unknown %.*s '%.*s' (accepted: %.*s)\n",
               static_cast<int>(axis.size()), axis.data(), static_cast<int>(got.size()),
               got.data(), static_cast<int>(accepted.size()), accepted.data());
  std::exit(2);
}

std::optional<long> parse_long(std::string_view s, long min, long max) {
  // from_chars takes no sign but '-' and skips no whitespace, so "+8" and
  // " 8" stop at their first character.
  const char* const first = s.data();
  const char* const last = first + s.size();
  long v = 0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || v < min || v > max) return std::nullopt;
  return v;
}

std::optional<std::uint8_t> parse_mask(std::string_view s,
                                       std::initializer_list<std::string_view> names,
                                       std::string* bad) {
  std::uint8_t mask = 0;
  for (;;) {
    const std::size_t comma = s.find(',');
    const std::string_view tok = s.substr(0, comma);
    std::uint8_t bits = 0;
    std::uint8_t bit = 1;
    for (const std::string_view name : names) {
      if (tok == name || tok == "all") bits |= bit;
      bit = static_cast<std::uint8_t>(bit << 1);
    }
    if (bits == 0) {
      if (bad != nullptr) *bad = tok;
      return std::nullopt;
    }
    mask |= bits;
    if (comma == std::string_view::npos) return mask;
    s.remove_prefix(comma + 1);
  }
}

const char* detail::axis_value(std::string_view name) {
  // Every axis any reader takes.  A REPSEQ_ variable outside the list is a
  // misspelt or retired axis that no reader would ever look at, so it exits
  // 2 like a malformed value.  The environment is scanned on every read, not
  // once, so a variable set after start-up (a test, a driver's flag) counts.
  static constexpr std::string_view kPrefix = "REPSEQ_";
  static constexpr std::string_view kNames[] = {
      "BATCH_WINDOW", "BH_BODIES", "BH_STEPS", "CHECK", "FLOW", "HEAP_MB", "HUB_SHARDS",
      "ILINK_CHILDREN", "ILINK_FAMILIES", "ILINK_GENOTYPES", "ILINK_ITERATIONS", "ILINK_MAX_NZ",
      "ILINK_MIN_NZ", "ILINK_THRESHOLD", "NODES", "PIN_SITE", "TRACE", "TRACE_FILTER",
      "TRANSPORT"};
  const auto listed = [](std::string_view n) {
    return std::find(std::begin(kNames), std::end(kNames), n) != std::end(kNames);
  };
  REPSEQ_CHECK(listed(name), "axis reader for unlisted REPSEQ_" + std::string(name));
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view var(*env);
    if (!var.starts_with(kPrefix)) continue;
    const std::string_view got = var.substr(0, var.find('='));
    if (listed(got.substr(kPrefix.size()))) continue;
    std::string accepted;
    for (const std::string_view n : kNames) {
      if (!accepted.empty()) accepted += '|';
      accepted += kPrefix;
      accepted += n;
    }
    axis_error("variable", got, accepted);
  }

  // Formatted on the stack: every Cluster reads its axes, and an allocation
  // here would show in the allocation counts perf_sim pins.
  char var[64];
  std::snprintf(var, sizeof var, "REPSEQ_%.*s", static_cast<int>(name.size()), name.data());
  return std::getenv(var);
}

long env_long(std::string_view name, long fallback, long min, long max) {
  std::string range = "an integer >= " + std::to_string(min);
  if (max != std::numeric_limits<long>::max()) range += " and <= " + std::to_string(max);
  return env_or(
      name, fallback, [&](std::string_view s) { return parse_long(s, min, max); }, range);
}

}  // namespace repseq::util
