// Halo/interior overlap bench: the same cluster workload runs under both
// plans of the stage graph — exchange first (overlap off: a blocking halo
// exchange precedes every RK stage's graph) and comm tasks in the graph
// (overlap on: pack and drain are graph tasks, and halo-block labs wait on
// the drain while interior blocks compute). Reports per-step
// wall clock and exposed communication time, best of several repetitions
// with the tracer off; a separate short traced run produces the phase split
// and a chrome://tracing JSON for visual inspection.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "cluster/cluster_simulation.h"
#include "perf/trace.h"

using namespace mpcf;
using namespace mpcf::cluster;

namespace {

struct RunResult {
  double wall = 0;       ///< advance() wall clock, all steps
  double stall = 0;      ///< exposed stall: step loop blocked on comm
  double comm_work = 0;  ///< comm thread-seconds, wherever they executed
  SimComm::Stats stats;  ///< transport counters
};

std::unique_ptr<ClusterSimulation> make_cluster(int ba, int bs, bool overlap) {
  Simulation::Params params;
  params.extent = 1e-3;
  // Periodic faces: every rank talks on all six faces, the worst (deepest
  // queue) communication pattern of the topology.
  params.bc = BoundaryConditions::all(BCType::kPeriodic);
  auto cs =
      std::make_unique<ClusterSimulation>(ba, ba, ba, bs, CartTopology(2, 2, 1), params);
  cs->set_overlap(overlap);
  Grid tmp(ba, ba, ba, bs, params.extent);
  mpcf::bench::init_cloud_state(tmp, 8);
  for (int r = 0; r < cs->rank_count(); ++r) {
    Grid& rg = cs->rank_sim(r).grid();
    int cx, cy, cz;
    cs->topology().coords(r, cx, cy, cz);
    for (int iz = 0; iz < rg.cells_z(); ++iz)
      for (int iy = 0; iy < rg.cells_y(); ++iy)
        for (int ix = 0; ix < rg.cells_x(); ++ix)
          rg.cell(ix, iy, iz) = tmp.cell(cx * rg.cells_x() + ix, cy * rg.cells_y() + iy,
                                         cz * rg.cells_z() + iz);
  }
  return cs;
}

/// Best-of-`reps` timing of `steps` steps on fresh clusters, tracer off so
/// the measurement carries no recording overhead. "Best" picks the rep with
/// the lowest wall clock and reports that rep's stall alongside it.
RunResult run_timed(int ba, int bs, bool overlap, int steps, int reps) {
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    auto cs = make_cluster(ba, bs, overlap);
    // One untimed step to settle the dt and warm caches/thread pools.
    cs->step();
    cs->comm().reset_stats();
    const double stall0 = cs->comm_time();
    const double work0 = cs->comm_work_time();
    Timer t;
    for (int s = 0; s < steps; ++s) cs->step();
    RunResult res;
    res.wall = t.seconds();
    res.stall = cs->comm_time() - stall0;
    res.comm_work = cs->comm_work_time() - work0;
    res.stats = cs->comm().stats();
    if (rep == 0 || res.wall < best.wall) best = res;
  }
  return best;
}

void print_row(const char* name, const RunResult& r) {
  std::printf("%-26s %12.2f %12.2f %12.2f %9.1f%% %8llu\n", name, 1e3 * r.wall,
              1e3 * r.stall, 1e3 * r.comm_work, 100.0 * r.stall / r.wall,
              static_cast<unsigned long long>(r.stats.messages));
}

}  // namespace

int main() {
  const int ba = 6, bs = 16;  // 96^3 cells over 2x2x1 ranks
  const int steps = 4, reps = 3;

  const RunResult r_seq = run_timed(ba, bs, /*overlap=*/false, steps, reps);
  const RunResult r_ovl = run_timed(ba, bs, /*overlap=*/true, steps, reps);

  std::puts("=== Halo/interior overlap: exposed comm stall, overlap off vs on ===");
  std::printf("(best of %d reps x %d steps, tracer off)\n", reps, steps);
  std::printf("%-26s %12s %12s %12s %10s %8s\n", "schedule", "wall [ms]", "stall [ms]",
              "comm work", "stall %", "msgs");
  print_row("exchange first", r_seq);
  print_row("comm tasks in graph", r_ovl);
  mpcf::bench::print_rule();
  if (r_ovl.stall > 0)
    std::printf("stall reduction: %.2fx (%.2f -> %.2f ms)\n", r_seq.stall / r_ovl.stall,
                1e3 * r_seq.stall, 1e3 * r_ovl.stall);
  else
    std::printf("stall reduction: %.2f ms -> none exposed\n", 1e3 * r_seq.stall);
  std::printf(
      "comm work moved into the stage graph: %.2f ms (of which recv %.2f ms),\n"
      "interleaved with interior compute instead of blocking the step loop\n",
      1e3 * r_ovl.comm_work, 1e3 * r_ovl.stats.recv_seconds);

  // Separate short traced run: the tracer adds per-span recording overhead,
  // so it stays out of the timed comparison above.
  auto traced = make_cluster(ba, bs, /*overlap=*/true);
  traced->step();  // warmup outside the trace
  traced->tracer().enable(true);
  for (int s = 0; s < 2; ++s) traced->step();
  traced->tracer().enable(false);

  using perf::TracePhase;
  const auto& tr = traced->tracer();
  std::puts("\nphase split of a 2-step traced comm-tasks-in-graph run (thread-seconds):");
  // Each block task records its lab assembly (kLab), then its RHS twice
  // over the same interval: as membership (kInterior/kHalo) and as kRhs.
  for (const TracePhase p : {TracePhase::kExchange, TracePhase::kInterior,
                             TracePhase::kHalo, TracePhase::kLab, TracePhase::kRhs,
                             TracePhase::kUpdate, TracePhase::kReduce})
    std::printf("  %-9s %9.2f ms\n", perf::trace_phase_name(p),
                1e3 * tr.total_seconds(p));

  const char* trace_path = "bench_overlap_trace.json";
  tr.write_chrome_json(trace_path);
  std::printf("\nchrome://tracing timeline written to %s\n", trace_path);
  std::puts("(open chrome://tracing or https://ui.perfetto.dev and load the file;");
  std::puts(" one row group per rank, interior/halo tasks interleaved across threads)");
  return 0;
}
