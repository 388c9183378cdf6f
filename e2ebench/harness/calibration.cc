#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

namespace {

struct PassInput {
  std::vector<std::string> strings;
  std::vector<uint32_t> ints;

  PassInput() {
    strings.reserve(60'000);
    for (uint32_t i = 0; i < 60'000; ++i) {
      strings.push_back(
          std::string("c").append(std::to_string(i * 7919u % 10'000'000u)));
    }
    ints.resize(40'000);
    uint32_t x = 1;
    for (uint32_t& v : ints) {
      x = x * 1664525u + 1013904223u;
      v = x;
    }
  }
};

volatile size_t g_sink;

}  // namespace

double TimeCalibrationPassMs() {
  static const PassInput input;
  const auto start = std::chrono::steady_clock::now();
  size_t h = 0;
  for (const std::string& s : input.strings) h += std::hash<std::string>{}(s);
  std::vector<uint32_t> sorted = input.ints;
  std::sort(sorted.begin(), sorted.end());
  g_sink = h + sorted[h % sorted.size()];
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace e2e
