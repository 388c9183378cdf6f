#ifndef E2EBENCH_HARNESS_RUN_LOOP_H_
#define E2EBENCH_HARNESS_RUN_LOOP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform_driver.h"

namespace e2e {

/// A metric as it lands in the result line: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// What one closed-loop run observed.
struct LoopResult {
  std::vector<double> latency_ms[kOpKinds];  // wall, per op kind
  /// Every successful op's latency in reference ms (calibration.h).
  std::vector<double> ref_ms;
  /// Mean op latency of each completed op cycle (one op for every workload
  /// but analytics, whose cycle is its four-query mix): wall and reference.
  std::vector<double> cycle_mean_ms;
  std::vector<double> cycle_mean_ref_ms;
  /// Wall time of every calibration pass.
  std::vector<double> calibration_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  double wall_s = 0;   // loop wall time minus oracle and calibration time
  std::string first_error;

  /// Appends `other`'s samples and adds its counters and wall time.
  void Add(const LoopResult& other);

  std::vector<double> All() const;
  std::vector<double> Reads() const;
  std::vector<double> Writes() const;
};

/// Runs every client of `env` as a closed loop for at least `seconds` and
/// until each client has finished a whole op cycle and issued at least
/// `min_ops / clients` ops (so the tail percentile stays supported). The
/// clients' op streams derive from `stream_seed`.
LoopResult RunClosedLoop(WorkloadEnv& env, double seconds, size_t min_ops,
                         uint64_t stream_seed);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_RUN_LOOP_H_
