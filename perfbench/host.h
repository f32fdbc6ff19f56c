// Host fingerprint and roofline inputs, measured in the run that uses them.
#pragma once

#include "bench.h"

namespace perfbench {

struct HostModel {
  double peak_gflops_1core = 0;  ///< perf::measure_peak_gflops, labelled by ISA
  double bw_gbs = 0;             ///< triad, all threads
  double bw_gbs_1thread = 0;     ///< triad, one thread
};

/// Records cores, ISA, dispatched SIMD width, the last-level cache size and
/// the triad working set into `b`'s info keys; measures peak and bandwidth.
[[nodiscard]] HostModel measure_host(Bench& b);

/// Host CPU time counters from the cpu line of /proc/stat (zero where it is
/// unreadable), in clock ticks.
struct CpuTimes {
  double total = 0, steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Share of host CPU time the hypervisor stole since `since`; reported so a
/// noisy neighbour shows in the run it slowed.
[[nodiscard]] double steal_fraction(const CpuTimes& since);

/// Peak resident set of this process so far [MiB].
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
