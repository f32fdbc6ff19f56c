// Width-parity suite: the kernel expression trees instantiated at 1, 4 and
// 8 lanes must agree on RHS, SOS and UPDATE.
//
// Expected equality classes (documented here, asserted below):
//  - SOS and UPDATE: bitwise identical between vec4 and vec8 whenever no
//    scalar tail lanes are taken. Their per-lane trees survive compilation
//    unchanged (max is exact, the update fmadd is explicit), so only the
//    lane grouping differs.
//  - RHS: ULP-tight but NOT bitwise across widths. GCC represents the
//    arithmetic intrinsics as generic vector ops and, under the default
//    -ffp-contract=fast of -O3, fuses mul+add chains into FMAs
//    independently per template instantiation — the float, vec4 and vec8
//    WENO/HLLE trees each contract slightly differently. The contraction
//    noise is ~1 ULP of the *flux* magnitude; because the RHS is a small
//    residual of large cancelling fluxes, comparisons must be scaled by the
//    per-quantity field magnitude, not the per-cell value. Tests therefore
//    use O(1) nondimensional states (parity is an arithmetic property, not
//    a physical one) and a per-quantity scaled tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/simulation.h"
#include "eos/stiffened_gas.h"
#include "grid/lab.h"
#include "kernels/rhs.h"
#include "kernels/sos.h"
#include "kernels/update.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

bool vec8_runs() { return simd::host_executes(simd::Width::kW8); }

/// Smooth O(1) stiffened-gas field: every quantity varies so that no RHS
/// component cancels to zero identically.
void fill_unit_smooth(Grid& g) {
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double rho = 1.0 + 0.2 * std::sin(0.7 * ix) * std::cos(0.4 * iy + 0.2 * iz);
        const double u = 0.3 * std::sin(0.3 * ix + 0.1 * iy);
        const double v = -0.2 * std::cos(0.5 * iz);
        const double w = 0.15 * std::sin(0.2 * (ix + iy + iz));
        const double p = 1.0 + 0.2 * std::cos(0.3 * iy) * std::sin(0.25 * ix);
        const double G = 1.6 + 0.2 * std::sin(0.15 * ix + 0.35 * iz);
        const double Pi = 0.5 + 0.1 * std::cos(0.2 * iy + 0.1 * ix);
        Cell c;
        c.rho = static_cast<Real>(rho);
        c.ru = static_cast<Real>(rho * u);
        c.rv = static_cast<Real>(rho * v);
        c.rw = static_cast<Real>(rho * w);
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(eos::total_energy(rho, u, v, w, p, G, Pi));
        g.cell(ix, iy, iz) = c;
      }
}

/// Smooth, physically valid liquid-scale field (for SOS/UPDATE).
void fill_liquid_smooth(Grid& g) {
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double rho = 900 + 80 * std::sin(0.7 * ix) * std::cos(0.4 * iy + 0.2 * iz);
        const double u = 3 * std::sin(0.3 * ix + 0.1 * iy);
        const double v = -2 * std::cos(0.5 * iz);
        const double w = 1.5 * std::sin(0.2 * (ix + iy + iz));
        const double p = 5e6 + 1e6 * std::cos(0.3 * iy) * std::sin(0.25 * ix);
        Cell c;
        c.rho = static_cast<Real>(rho);
        c.ru = static_cast<Real>(rho * u);
        c.rv = static_cast<Real>(rho * v);
        c.rw = static_cast<Real>(rho * w);
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(eos::total_energy(rho, u, v, w, p, G, Pi));
        g.cell(ix, iy, iz) = c;
      }
}

/// One RHS evaluation (a = 0, tmp zeroed) at the given width; returns the
/// flattened tmp field (cell-major, kNumQuantities per cell).
std::vector<float> run_rhs(int bs, kernels::KernelImpl impl, int order, simd::Width w) {
  Grid g(1, 1, 1, bs, 1e-3);
  fill_unit_smooth(g);
  BlockLab lab;
  lab.resize(bs);
  lab.load(g, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));
  kernels::RhsWorkspace ws;
  ws.resize(bs);
  Block& b = g.block(0);
  Cell* tmp = b.tmp_data();
  for (std::size_t i = 0; i < b.cells(); ++i) tmp[i] = Cell{};
  kernels::rhs_block(lab, static_cast<Real>(g.h()), 0.0f, b, ws, impl, order, w);
  std::vector<float> out;
  out.reserve(b.cells() * kNumQuantities);
  for (std::size_t i = 0; i < b.cells(); ++i)
    for (int q = 0; q < kNumQuantities; ++q) out.push_back(tmp[i].q(q));
  return out;
}

/// Per-quantity comparison scaled by the field magnitude of that quantity:
/// the FMA-contraction noise scales with the flux (hence field) magnitude,
/// not with the per-cell residual.
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float rtol) {
  ASSERT_EQ(a.size(), b.size());
  float scale[kNumQuantities] = {};
  for (std::size_t i = 0; i < a.size(); ++i)
    scale[i % kNumQuantities] = std::max(scale[i % kNumQuantities], std::fabs(a[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], rtol * (1.0f + scale[i % kNumQuantities]))
        << "i=" << i << " q=" << i % kNumQuantities;
}

TEST(RhsWidthParity, Vec4VsVec8UlpTight) {
  if (!vec8_runs()) GTEST_SKIP() << "host cannot execute the vec8 backend";
  for (const auto impl : {kernels::KernelImpl::kSimdFused, kernels::KernelImpl::kSimd})
    for (const int order : {5, 3}) {
      SCOPED_TRACE(testing::Message() << "impl=" << static_cast<int>(impl)
                                      << " order=" << order);
      // 1e-5 of the field scale is a few tens of float ULPs: room for the
      // WENO weights to amplify the contraction noise, far below any real
      // kernel divergence.
      expect_close(run_rhs(8, impl, order, simd::Width::kW4),
                   run_rhs(8, impl, order, simd::Width::kW8), 1e-5f);
    }
}

TEST(RhsWidthParity, ScalarWidthMatchesVectorWithinTolerance) {
  // T=float instantiation of the same sweeps vs the vec4 lanes.
  expect_close(run_rhs(8, kernels::KernelImpl::kSimdFused, 5, simd::Width::kScalar),
               run_rhs(8, kernels::KernelImpl::kSimdFused, 5, simd::Width::kW4), 1e-4f);
}

TEST(RhsWidthParity, NonMultipleOfWidthTailsAgree) {
  if (!vec8_runs()) GTEST_SKIP() << "host cannot execute the vec8 backend";
  // bs=4: vec8 rows run entirely on the scalar tail; bs=12: one 8-wide
  // vector iteration plus a 4-lane scalar tail per row.
  for (const int bs : {4, 12}) {
    SCOPED_TRACE(testing::Message() << "bs=" << bs);
    expect_close(run_rhs(bs, kernels::KernelImpl::kSimdFused, 5, simd::Width::kW4),
                 run_rhs(bs, kernels::KernelImpl::kSimdFused, 5, simd::Width::kW8),
                 1e-4f);
  }
}

TEST(SosWidthParity, LaneGroupingDoesNotChangeTheMax) {
  Grid g(1, 1, 1, 8, 1e-3);
  fill_liquid_smooth(g);
  const Block& b = g.block(0);
  const double v4 = kernels::block_max_speed_simd(b, simd::Width::kW4);
  const double vs = kernels::block_max_speed_simd(b, simd::Width::kScalar);
  // max is exact and the lane expression trees are identical: regrouping
  // the lanes cannot change the reduction result — bitwise equality.
  if (vec8_runs()) {
    const double v8 = kernels::block_max_speed_simd(b, simd::Width::kW8);
    EXPECT_EQ(v4, v8);
  }
  // The pinned-scalar path accumulates in double; compare with tolerance.
  EXPECT_NEAR(vs, v4, 1e-5 * vs);
  const double ref = kernels::block_max_speed(b);
  EXPECT_NEAR(ref, v4, 1e-5 * ref);
}

TEST(UpdateWidthParity, AllWidthsAgree) {
  auto make = [] {
    Grid g(1, 1, 1, 8, 1e-3);
    fill_liquid_smooth(g);
    Block& b = g.block(0);
    Cell* tmp = b.tmp_data();
    const Cell* data = b.data();
    for (std::size_t i = 0; i < b.cells(); ++i)
      for (int q = 0; q < kNumQuantities; ++q)
        tmp[i].q(q) = 0.01f * data[i].q(q) * ((i % 5) - 2.0f);
    return g;
  };
  const Real bdt = 3.7e-8f;
  // The update is one multiply-add per element, in the vector stores an
  // explicit fmadd and in the scalar reference the same expression: bitwise
  // across every width (8^3 * 7 elements — no tail lanes at bs=8).
  Grid gs = make();
  kernels::update_block(gs.block(0), bdt);
  const Cell* cs = gs.block(0).data();
  for (const simd::Width w : {simd::Width::kScalar, simd::Width::kW4, simd::Width::kW8}) {
    if (!simd::host_executes(w)) continue;
    Grid gw = make();
    kernels::update_block_simd(gw.block(0), bdt, w);
    const Cell* cw = gw.block(0).data();
    for (std::size_t i = 0; i < gs.block(0).cells(); ++i)
      for (int q = 0; q < kNumQuantities; ++q)
        ASSERT_EQ(cs[i].q(q), cw[i].q(q))
            << "width=" << static_cast<int>(w) << " i=" << i << " q=" << q;
  }
}

TEST(TrajectoryWidthParity, Vec4AndVec8TrajectoriesAgree) {
  if (!vec8_runs()) GTEST_SKIP() << "host cannot execute the vec8 backend";
  auto run = [](simd::Width w) {
    Simulation::Params prm;
    prm.extent = 1e-3;
    prm.width = w;
    Simulation sim(2, 2, 2, 8, prm);
    std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
    set_cloud_ic(sim.grid(), one, TwoPhaseIC{});
    for (int s = 0; s < 5; ++s) sim.step();
    return sim.diagnostics(materials::kVapor.Gamma(), materials::kLiquid.Gamma());
  };
  // Seeded only by per-width FMA contraction (ULP-scale), the trajectories
  // stay far closer than the scalar-vs-SIMD pair tested elsewhere.
  const auto d4 = run(simd::Width::kW4);
  const auto d8 = run(simd::Width::kW8);
  EXPECT_NEAR(d8.mass, d4.mass, 1e-6 * d4.mass);
  EXPECT_NEAR(d8.kinetic_energy, d4.kinetic_energy, 5e-3 * d4.kinetic_energy + 1e-12);
  EXPECT_NEAR(d8.vapor_volume, d4.vapor_volume, 1e-4 * d4.vapor_volume);
  EXPECT_NEAR(d8.max_p_field, d4.max_p_field, 1e-3 * d4.max_p_field);
}

}  // namespace
}  // namespace mpcf
