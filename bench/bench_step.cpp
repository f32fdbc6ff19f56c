// STEP bench: whole-step throughput (compute_dt + three RK stages +
// positivity guard) of the step engine — the per-block dependency graph of
// DESIGN.md §14 — on a cloud workload, in ms/step. Before timing, a
// one-thread run and an N-thread run of the same engine (N = the OpenMP
// thread count, at least 2) must agree bit for bit: the graph's
// interleaving may never leak into the result. Single-core hosts are
// flagged as such.
//
//   bench_step [--steps N] [--blocks B] [--bs S] [--smoke] [--json [path]]
//
// --smoke: tiny grid / two steps, exit non-zero on bitwise mismatch (CI).
// --json: splice a "step" section into BENCH_kernels.json (created if
// absent; an existing step section is replaced).
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "core/simulation.h"
#include "grid/cell.h"
#include "simd/dispatch.h"

namespace {

using namespace mpcf;

Simulation::Params step_params() {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(BCType::kAbsorbing);
  return p;
}

bool bitwise_equal(const Grid& a, const Grid& b) {
  for (int iz = 0; iz < a.cells_z(); ++iz)
    for (int iy = 0; iy < a.cells_y(); ++iy)
      for (int ix = 0; ix < a.cells_x(); ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          if (a.cell(ix, iy, iz).q(q) != b.cell(ix, iy, iz).q(q)) return false;
  return true;
}

/// Seconds per step of a freshly initialized simulation (first step excluded:
/// it pays the one-time graph build, workspace allocation and SOS sweep).
double seconds_per_step(int blocks, int bs, int steps) {
  Simulation sim(blocks, blocks, blocks, bs, step_params());
  bench::init_cloud_state(sim.grid());
  sim.step();  // warm up
  Timer t;
  for (int s = 0; s < steps; ++s) sim.step();
  return t.seconds() / steps;
}

/// Two steps of a fresh simulation on `threads` OpenMP threads; returns it
/// with its dt sequence in `dts`.
Simulation run_two_steps(int blocks, int bs, int threads, double dts[2]) {
  omp_set_num_threads(threads);
  Simulation sim(blocks, blocks, blocks, bs, step_params());
  bench::init_cloud_state(sim.grid());
  for (int s = 0; s < 2; ++s) dts[s] = sim.step();
  return sim;
}

/// Inserts (or replaces) the "step" section in the kernels JSON artifact,
/// creating a minimal document when the file does not exist.
int splice_json(const char* path, const std::string& section) {
  std::string doc;
  {
    // mpcf-lint: allow(raw-io): bench JSON report; SafeFile atomicity is pointless for a rewritable artifact
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      doc = ss.str();
    }
  }
  if (doc.empty()) doc = "{\n  \"bench\": \"kernels_micro\"\n}\n";
  // Drop a previous step section: it is always spliced last, so cutting from
  // the comma preceding its key to the closing brace removes it cleanly.
  const std::size_t old_pos = doc.find("\"step\":");
  if (old_pos != std::string::npos) {
    const std::size_t comma = doc.rfind(',', old_pos);
    const std::size_t close = doc.rfind('}');
    if (comma == std::string::npos || close == std::string::npos || close < old_pos) {
      std::fprintf(stderr, "cannot parse existing %s; not splicing\n", path);
      return 1;
    }
    doc.erase(comma, close - comma);
  }
  const std::size_t close = doc.rfind('}');
  if (close == std::string::npos) {
    std::fprintf(stderr, "%s is not a JSON object; not splicing\n", path);
    return 1;
  }
  std::size_t end = close;
  while (end > 0 && (doc[end - 1] == '\n' || doc[end - 1] == ' ')) --end;
  doc = doc.substr(0, end) + ",\n  \"step\": " + section + "\n}\n";
  // mpcf-lint: allow(raw-io): bench JSON report; SafeFile atomicity is pointless for a rewritable artifact
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  out << doc;
  std::printf("spliced step section into %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int steps = 5, blocks = 4, bs = 16;
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) steps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--blocks") == 0 && i + 1 < argc) blocks = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--bs") == 0 && i + 1 < argc) bs = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--smoke") == 0) { smoke = true; steps = 2; blocks = 2; bs = 8; }
    else if (std::strcmp(argv[i], "--json") == 0)
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_kernels.json";
  }

  const int threads = omp_get_max_threads();
  std::printf("STEP bench: %d^3 blocks of %d^3 cells, %d timed steps, "
              "%d threads, width %s\n",
              blocks, bs, steps, threads, simd::width_name(simd::dispatch_width()));

  // Conformance first: the same engine on one thread and on N threads,
  // from the same state — dt and final grid must agree bit for bit.
  const int nt = std::max(2, threads);
  double dts_one[2], dts_many[2];
  const Simulation one = run_two_steps(blocks, bs, 1, dts_one);
  const Simulation many = run_two_steps(blocks, bs, nt, dts_many);
  omp_set_num_threads(threads);
  const bool identical = dts_one[0] == dts_many[0] && dts_one[1] == dts_many[1] &&
                         bitwise_equal(one.grid(), many.grid());
  std::printf("bitwise identity (2 steps, 1 vs %d threads): %s\n", nt,
              identical ? "OK" : "MISMATCH");
  if (!identical) return 1;

  const double step_s = seconds_per_step(blocks, bs, steps);

  mpcf::bench::print_rule();
  std::printf("  step    %9.3f ms/step\n", step_s * 1e3);
  mpcf::bench::print_rule();

  if (json_path != nullptr) {
    char section[512];
    std::snprintf(section, sizeof(section),
                  "{\"blocks\": %d, \"block_size\": %d, \"steps\": %d, "
                  "\"threads\": %d, \"cores\": %d, \"single_core\": %s, "
                  "\"ms_per_step\": %.3f, \"bitwise_identical\": true}",
                  blocks, bs, steps, threads, omp_get_num_procs(),
                  omp_get_num_procs() == 1 ? "true" : "false", step_s * 1e3);
    return splice_json(json_path, section);
  }
  (void)smoke;  // smoke's job is the bitwise gate above + the tiny shape
  return 0;
}
