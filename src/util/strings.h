// Small string helpers shared across code generators and printers.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace gallium {

// Joins the string form of each element with `sep`.
template <typename Range>
std::string StrJoin(const Range& range, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& item : range) {
    if (!first) out << sep;
    first = false;
    out << item;
  }
  return out.str();
}

// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Number of non-empty, non-comment-only lines ("lines of code" in the sense
// of Table 1: blank lines and pure comment lines are excluded).
int CountCodeLines(std::string_view source);

// "a.b.c" -> "a_b_c": make an identifier safe for P4/C++ emission.
std::string SanitizeIdentifier(std::string_view name);

// Formats a byte count with binary units ("12.5 KiB").
std::string FormatBytes(uint64_t bytes);

}  // namespace gallium
