#include "host.h"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "common/aligned_buffer.h"
#include "perf/microbench.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

/// Last-level cache size in bytes (0 when the host does not say).
long llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) {
    const char unit = s.back();
    const long n = std::atol(s.c_str());
    if (unit == 'K') return n << 10;
    if (unit == 'M') return n << 20;
    return n;
  }
  return 0;
}

/// Best-of-`passes` STREAM triad a = b + s*c on `threads` threads [GB/s],
/// counting 2 reads + 1 write per element (STREAM rules).
double triad_gbs(float* a, const float* b, const float* c, long n, int threads, int passes) {
  double best = 0;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (long i = 0; i < n; ++i) a[i] = b[i] + 0.5f * c[i];
    const double sec = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(n) * sizeof(float) / sec / 1e9);
  }
  return best;
}

}  // namespace

HostModel measure_host(Bench& b) {
  namespace simd = mpcf::simd;
  HostModel m;
  b.info("host.cores", static_cast<double>(omp_get_num_procs()));
  b.info("host.threads", static_cast<double>(b.threads));
  std::string isa;
  if (__builtin_cpu_supports("avx512f")) isa += "avx512f ";
  if (__builtin_cpu_supports("avx2")) isa += "avx2 ";
  if (__builtin_cpu_supports("fma")) isa += "fma ";
  b.info("host.isa", isa.empty() ? std::string("baseline") : isa.substr(0, isa.size() - 1));
  b.info("host.simd_width", simd::width_name(simd::dispatch_width()));

  // Peak: the repository's FMA-chain probe runs at the widest compiled
  // backend, which is 8 float lanes even on hosts that also execute wider
  // ISAs; the label says which width the figure is for.
  const bool w8 = simd::width_compiled(simd::Width::kW8) && simd::host_executes(simd::Width::kW8);
  m.peak_gflops_1core = mpcf::perf::measure_peak_gflops(0.3);
  b.info("host.peak_gflops_1core", m.peak_gflops_1core);
  b.info("host.peak_isa", w8 ? "vec8 (8 float lanes)" : "vec4 (4 float lanes)");

  // Bandwidth: three arrays whose combined size is at least four times the
  // last-level cache, so each pass streams from memory.
  const long llc = llc_bytes();
  const long set_bytes = std::max(4 * llc, 256L << 20);
  const long n = set_bytes / 3 / static_cast<long>(sizeof(float));
  mpcf::AlignedBuffer<float> a(static_cast<std::size_t>(n)), x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  float* pa = a.data();
  float* px = x.data();
  float* py = y.data();
#pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) {
    pa[i] = 0.0f;
    px[i] = static_cast<float>(i & 1023);
    py[i] = 1.0f;
  }
  m.bw_gbs = triad_gbs(pa, px, py, n, b.threads, 5);
  m.bw_gbs_1thread = triad_gbs(pa, px, py, n, 1, 3);
  b.info("host.llc_mib", static_cast<double>(llc) / (1 << 20));
  b.info("host.triad_array_mib", static_cast<double>(n) * sizeof(float) / (1 << 20));
  b.info("host.triad_set_mib", 3.0 * static_cast<double>(n) * sizeof(float) / (1 << 20));
  b.info("host.bw_gbs", m.bw_gbs);
  b.info("host.bw_gbs_1thread", m.bw_gbs_1thread);
  return m;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  const double dt = now.total - since.total;
  return dt > 0 ? (now.steal - since.steal) / dt : 0.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
