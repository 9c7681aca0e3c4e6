#include "util/strings.h"

#include <cctype>
#include <cstdio>

namespace gallium {

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

int CountCodeLines(std::string_view source) {
  int count = 0;
  // Walks the lines in place: one view per line, no copies.
  while (!source.empty()) {
    const size_t eol = source.find('\n');
    std::string_view v = source.substr(0, eol);
    source.remove_prefix(eol == std::string_view::npos ? source.size()
                                                       : eol + 1);
    // Trim leading whitespace.
    size_t i = 0;
    while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
    v.remove_prefix(i);
    if (v.empty()) continue;
    if (StartsWith(v, "//") || StartsWith(v, "#") || StartsWith(v, "/*") ||
        StartsWith(v, "*")) {
      continue;
    }
    ++count;
  }
  return count;
}

std::string SanitizeIdentifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

}  // namespace gallium
