// Table 7 analogue: core-layer kernel throughput, plain C++ (scalar float)
// vs explicit 4-wide SIMD (the paper's QPX column, here SSE) vs the 8-wide
// AVX2 backend. The paper reports RHS 2.21 -> 8.27 GFLOP/s (3.7X), DT
// 0.90 -> 1.96 (2.2X), UP flat (memory-bound), FWT 0.40 -> 1.29 (3.2X).
// The structure to reproduce: explicit vectorization radically helps every
// kernel except UP — and widening the lanes helps again wherever the
// kernel is compute-bound.
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "grid/lab.h"
#include "kernels/sos.h"
#include "simd/dispatch.h"
#include "simd/vec8.h"
#include "kernels/update.h"
#include "perf/microbench.h"
#include "wavelet/interp_wavelet.h"

using namespace mpcf;
using namespace mpcf::kernels;

int main() {
  const int bs = 32;
  Grid grid(2, 2, 2, bs, 1e-3);
  mpcf::bench::init_cloud_state(grid);

  BlockLab lab;
  lab.resize(bs);
  RhsWorkspace ws;
  ws.resize(bs);
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  lab.load(grid, 0, 0, 0, bc);

  const double peak = perf::host_machine().peak_gflops;
  const bool w8 = simd::host_executes(simd::Width::kW8);
  struct Row {
    const char* name;
    double scalar_gf, simd_gf, simd8_gf;  // simd8_gf <= 0: not measured
  };
  std::vector<Row> rows;

  // RHS: scalar vs fused SIMD over one block, repeated.
  {
    const int reps = 4;
    const double flops = rhs_flops(bs) * reps;
    const double ts = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i)
        rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
                  KernelImpl::kScalar);
    });
    const double tv = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i)
        rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
                  KernelImpl::kSimdFused, 5, simd::Width::kW4);
    });
    double gf8 = 0;
    if (w8) {
      const double t8 = mpcf::bench::time_best_of([&] {
        for (int i = 0; i < reps; ++i)
          rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
                    KernelImpl::kSimdFused, 5, simd::Width::kW8);
      });
      gf8 = flops / t8 / 1e9;
    }
    rows.push_back({"RHS", flops / ts / 1e9, flops / tv / 1e9, gf8});
  }

  // DT (SOS reduction).
  {
    const int reps = 64;
    const double flops = sos_flops(bs) * reps;
    volatile double sink = 0;
    const double ts = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i) sink = block_max_speed(grid.block(0));
    });
    const double tv = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i)
        sink = block_max_speed_simd(grid.block(0), simd::Width::kW4);
    });
    double gf8 = 0;
    if (w8) {
      const double t8 = mpcf::bench::time_best_of([&] {
        for (int i = 0; i < reps; ++i)
          sink = block_max_speed_simd(grid.block(0), simd::Width::kW8);
      });
      gf8 = flops / t8 / 1e9;
    }
    (void)sink;
    rows.push_back({"DT", flops / ts / 1e9, flops / tv / 1e9, gf8});
  }

  // UP (streaming axpy) — use all 8 blocks so the working set exceeds L2.
  {
    const int reps = 16;
    const double flops = update_flops(bs) * grid.block_count() * reps;
    const double ts = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i)
        for (int b = 0; b < grid.block_count(); ++b) update_block(grid.block(b), 1e-12f);
    });
    const double tv = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i)
        for (int b = 0; b < grid.block_count(); ++b)
          update_block_simd(grid.block(b), 1e-12f, simd::Width::kW4);
    });
    double gf8 = 0;
    if (w8) {
      const double t8 = mpcf::bench::time_best_of([&] {
        for (int i = 0; i < reps; ++i)
          for (int b = 0; b < grid.block_count(); ++b)
            update_block_simd(grid.block(b), 1e-12f, simd::Width::kW8);
      });
      gf8 = flops / t8 / 1e9;
    }
    rows.push_back({"UP", flops / ts / 1e9, flops / tv / 1e9, gf8});
  }

  // FWT (forward wavelet transform of one cube) at the block sizes the
  // solver runs: the transpose-based scalar oracle against the production
  // kernel, which vectorizes the y and z passes across contiguous x lanes.
  for (const auto& [fbs, name] : {std::pair{8, "FWT8"}, {16, "FWT16"}, {32, "FWT32"}}) {
    const int levels = wavelet::max_levels(fbs);
    const int reps = 32 * (bs / fbs) * (bs / fbs) * (bs / fbs);
    Field3D<float> cube(fbs, fbs, fbs);
    for (int iz = 0; iz < fbs; ++iz)
      for (int iy = 0; iy < fbs; ++iy)
        for (int ix = 0; ix < fbs; ++ix) cube(ix, iy, iz) = grid.cell(ix, iy, iz).rho;
    const double flops = wavelet::fwt_flops(fbs, levels) * reps;
    const double ts = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i) wavelet::forward_3d(cube.view(), levels);
    });
    const double tv = mpcf::bench::time_best_of([&] {
      for (int i = 0; i < reps; ++i) wavelet::forward_3d_lanes(cube.view(), levels);
    });
    std::printf("%s: %.2f us/cube scalar, %.2f us/cube lanes (%d-wide)\n", name,
                ts / reps * 1e6, tv / reps * 1e6, MPCF_SIMD_AVX2 ? 8 : 4);
    rows.push_back({name, flops / ts / 1e9, flops / tv / 1e9, 0.0});
  }

  std::puts("=== Table 7 analogue: core-layer kernel performance ===");
  std::printf("%-8s %13s %13s %13s %9s %11s\n", "kernel", "C++ GFLOP/s",
              "x4 GFLOP/s", "x8 GFLOP/s", "speedup", "% of peak");
  for (const auto& r : rows) {
    const double best = r.simd8_gf > 0 ? r.simd8_gf : r.simd_gf;
    std::printf("%-8s %13.2f %13.2f ", r.name, r.scalar_gf, r.simd_gf);
    if (r.simd8_gf > 0)
      std::printf("%13.2f ", r.simd8_gf);
    else
      std::printf("%13s ", "-");
    std::printf("%8.1fX %10.1f%%\n", best / r.scalar_gf, 100.0 * best / peak);
  }
  std::puts("\npaper Table 7: RHS 3.7X, DT 2.2X, UP ~1X, FWT 3.2X from QPX;");
  std::puts("RHS reaches 65% of peak, UP stays at 2% (memory-bound).");
  return 0;
}
