#ifndef E2EBENCH_HARNESS_CALIBRATION_H_
#define E2EBENCH_HARNESS_CALIBRATION_H_

// Host-speed calibration for the timed loop.
//
// On a shared host the CPU's speed wanders by up to ±20% over seconds, and
// it wanders in step for the program and for any other code on the same
// thread. The timed loop therefore runs a fixed pass of harness-only code
// (hash 60k short strings, sort a copy of 40k integers) after every
// kCalibrateEveryMs of op time. It scales those ops' wall times by
// kReferencePassMs / (that pass's wall time). The result is in reference
// milliseconds (`ref_ms`): an op's time on a host where the pass takes
// kReferencePassMs. A set-up is scaled by the median pass time of the loop
// slice that follows it. The pass runs no library code, so every change to
// the program still moves the scaled times.

namespace e2e {

/// Median pass time in a quiet stretch on the 4-vCPU Xeon VM the bounds
/// were set on (GCC 12.2, Release): the scale of one reference millisecond.
constexpr double kReferencePassMs = 3.4;

/// Op time between two passes. Analytics and export ops each take longer,
/// so each of their ops is scaled by the pass right after it.
constexpr double kCalibrateEveryMs = 50;

/// Runs one calibration pass and returns its wall time in ms.
double TimeCalibrationPassMs();

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_CALIBRATION_H_
