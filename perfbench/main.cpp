// mpcf-perfbench: one run of one workload of the benchmark of record.
//
//   mpcf-perfbench --workload cloud_step|cloud_output|cluster_halo --seed N
//                  --seconds S --trace 0|1 --config <cloud_collapse.cfg>
//                  --workdir <dir> [--trace-out <trace.json>]
//
// Progress goes to stderr; the last stdout line is `REPORT {...}`, one flat
// JSON object of every metric, its spread and the run's context, which
// perfbench/run.py turns into the benchmark's result line.
#include <omp.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/error.h"
#include "host.h"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw mpcf::PreconditionError("missing value after " + a);
    const std::string v = argv[++i];
    if (a == "--workload")
      o.workload = v;
    else if (a == "--seed")
      o.seed = std::stoul(v);
    else if (a == "--seconds")
      o.seconds = std::stod(v);
    else if (a == "--trace")
      o.trace = v == "1";
    else if (a == "--config")
      o.config = v;
    else if (a == "--workdir")
      o.workdir = v;
    else if (a == "--trace-out")
      o.trace_out = v;
    else
      throw mpcf::PreconditionError("unknown argument " + a);
  }
  mpcf::require(!o.workload.empty() && !o.workdir.empty() && o.seconds > 0,
                "usage: mpcf-perfbench --workload W --seed N --seconds S --trace 0|1 "
                "--config CFG --workdir DIR [--trace-out FILE]");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::Bench b(parse(argc, argv));
    omp_set_num_threads(omp_get_num_procs());
    // Restarts load the newest checkpoint in here: stale files from another
    // run would be picked up, so the directory must start empty.
    namespace fs = std::filesystem;
    mpcf::require(!fs::exists(b.opt.workdir) || fs::is_empty(b.opt.workdir),
                  "--workdir " + b.opt.workdir + " must be empty or absent");
    fs::create_directories(b.opt.workdir);
    const double t0 = perfbench::now_s();
    const perfbench::CpuTimes cpu0 = perfbench::cpu_times();
    perfbench::run_workload(b);
    b.info("host.steal_frac", perfbench::steal_fraction(cpu0));

    const perfbench::Ledger& l = b.ledger;
    b.metric("peak_rss_mb", perfbench::peak_rss_mib());
    b.metric("ok_frac", static_cast<double>(l.attempted() - l.failed()) /
                            static_cast<double>(l.attempted()));
    b.info("failed_frac",
           static_cast<double>(l.failed()) / static_cast<double>(l.attempted()));
    b.info("first_failure", l.first_failure().empty() ? "none" : l.first_failure());
    b.info("failures_by_check", l.failures_by_check().empty() ? "none" : l.failures_by_check());
    b.info("run_id", b.trace.run_id());
    b.info("wall_s", perfbench::now_s() - t0);
    b.report.add("attempted", l.attempted());
    b.report.add("failed", l.failed());
    b.report.add("correct", l.contracts_hold());
    if (b.trace.enabled() && !b.opt.trace_out.empty()) b.trace.write_chrome(b.opt.trace_out);
    std::printf("REPORT %s\n", b.report.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcf-perfbench: %s\n", e.what());
    return 1;
  }
}
