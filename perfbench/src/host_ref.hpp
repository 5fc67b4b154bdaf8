// Host-speed reference for normalizing host timings.
//
// On a shared VM this code runs in distinct speed modes: back-to-back runs
// of one workload differ by up to 1.6x, and the mode drifts over minutes,
// so no per-run statistic of raw wall time is steady. A fixed kernel with
// the simulator's access pattern slows down with it (per-cycle correlation
// about 0.84). The timed loop runs this kernel after every ~50 ms of steps,
// and host times are reported as if the host ran it in kReferenceNominalNs:
// each segment's step times are scaled by nominal / (mean of the kernel
// times measured just before and just after the segment).
#pragma once

namespace perfbench {

/// About the kernel's time on the fast speed mode of a 4-core x86-64 Xeon
/// VM; normalized host times are in seconds of a host that fast.
inline constexpr double kReferenceNominalNs = 12e6;

/// Run the fixed reference kernel once; returns its wall nanoseconds.
[[nodiscard]] double run_reference();

}  // namespace perfbench
