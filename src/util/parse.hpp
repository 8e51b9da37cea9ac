// Whole-string number parsing for command-line flags: a value is accepted
// only when every character is consumed, it fits the target type and (for
// floating point) it is finite, so "12x", "", "-1" for an unsigned flag and
// "nan" are rejected instead of silently truncated to whatever prefix
// strto* would have read.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace vns::util {

template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace vns::util
