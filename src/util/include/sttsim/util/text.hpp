// Small text helpers: formatting for reports and error messages, and
// command-line value parsing.
// (C++20 <format> is avoided for toolchain portability.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sttsim {

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting of `v` with `decimals` digits after the point.
std::string format_double(double v, int decimals);

/// Human-readable byte size: "64 KiB", "2 MiB", "512 B".
std::string format_bytes(std::uint64_t bytes);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Pads `s` on the right (left-aligns) to at least `width` characters.
std::string pad_right(std::string s, std::size_t width);

/// Pads `s` on the left (right-aligns) to at least `width` characters.
std::string pad_left(std::string s, std::size_t width);

/// Parses a whole non-negative decimal integer that fits `unsigned` (no
/// sign, no trailing characters). Returns false, leaving `out` untouched,
/// on anything else.
bool parse_count(const char* s, unsigned& out);

}  // namespace sttsim
