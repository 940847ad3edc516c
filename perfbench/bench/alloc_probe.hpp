// Process-wide allocation and memory probes for the benchmark binary.
//
// alloc_probe.cpp replaces the global operator new/delete family with thin
// malloc wrappers that count calls and bytes. The simulator is single
// threaded and so is this binary, so the counters are plain integers.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounters {
  std::uint64_t allocs{0};       ///< operator new calls
  std::uint64_t alloc_bytes{0};  ///< bytes requested from operator new
  std::int64_t live_bytes{0};    ///< usable bytes currently allocated
};

/// Snapshot of the counters since process start.
[[nodiscard]] AllocCounters alloc_counters();

/// Difference of two snapshots (live_bytes is the change in live bytes).
[[nodiscard]] AllocCounters alloc_delta(const AllocCounters& before,
                                        const AllocCounters& after);

/// Peak resident set of this process in bytes (VmHWM; falls back to
/// getrusage's ru_maxrss).
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace perfbench
