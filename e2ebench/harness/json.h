#ifndef E2EBENCH_HARNESS_JSON_H_
#define E2EBENCH_HARNESS_JSON_H_

#include <charconv>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Shortest round-trip rendering of `v` (every digit the double carries).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// `{"name": value, ...}` from (name, JSON literal) pairs, in order.
inline std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", " : "") + JsonString(fields[i].first) + ": " +
           fields[i].second;
  }
  return out + "}";
}

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_JSON_H_
