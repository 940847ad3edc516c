// Host-speed probe for normalising host-time metrics.
//
// Host speed on a shared machine swings by up to 2x within seconds and
// drifts over minutes. calibration_seconds() times a fixed, benchmark-owned
// mix of the kinds of work the simulator does (pointer chasing through a
// large heap, hash-map churn with allocation, a binary-heap event loop,
// buffer copies, a sort). It shares no code with src/, so an optimisation
// of the program cannot move it; measured next to a repetition it tells how
// fast the host ran at that moment.
#pragma once

namespace perfbench {

/// The probe's duration on the reference host. Host times are reported as
/// the time this reference host would have taken: measured seconds x
/// (kReferenceCalibrationSeconds / calibration_seconds()).
inline constexpr double kReferenceCalibrationSeconds = 0.05;

/// Run the probe once; returns its host duration in seconds.
[[nodiscard]] double calibration_seconds();

}  // namespace perfbench
