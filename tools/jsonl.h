// Flat field scanner for the line-delimited JSON records the benches
// write, shared by the CI gate tools. Each record is one line with no
// nesting inside the fields read here, which keeps the tools
// dependency-free.
#pragma once

#include <cstdlib>
#include <string>

namespace jsonl {

/// Extracts a `"key":<number>` field from one flat JSON record line.
/// Returns false when the key is absent or its value is not numeric.
/// Keys are matched quoted and colon-terminated, so "p50_ms" never
/// matches "server_p50_ms".
inline bool extract_number(const std::string& line, const std::string& key,
                           double* out) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    // Reject a longer key ending in ours ("x_p50_ms" vs "p50_ms").
    if (pos > 0 && line[pos - 1] != ',' && line[pos - 1] != '{') {
      pos += needle.size();
      continue;
    }
    const char* start = line.c_str() + pos + needle.size();
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;  // non-numeric value
    *out = v;
    return true;
  }
  return false;
}

/// Extracts a `"key":"<string>"` field (no escapes) from one record line.
inline bool extract_string(const std::string& line, const std::string& key,
                           std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t start = pos + needle.size();
  const std::size_t stop = line.find('"', start);
  if (stop == std::string::npos) return false;
  *out = line.substr(start, stop - start);
  return true;
}

}  // namespace jsonl
