// Differential tests of BlockLab bulk assembly against the per-cell fetch
// oracle: for every boundary-condition fold (absorbing clamp, wall mirror
// with momentum sign flip, periodic wrap, and mixed per-face settings) and
// for every block position (faces, edges, corners), the bulk load must
// reproduce the per-cell path bitwise. The cluster intercept is exercised
// both with a synthetic override and with the real fetch_remote path.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "cluster/cluster_simulation.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "grid/lab.h"

namespace mpcf {
namespace {

/// Uniquely tags every cell so that any block/cell/sign mix-up is visible.
void tag_grid(Grid& g) {
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        Cell c;
        c.rho = static_cast<Real>(1 + ix + 100 * iy + 10000 * iz);
        c.ru = static_cast<Real>(10 + ix);
        c.rv = static_cast<Real>(20 + iy);
        c.rw = static_cast<Real>(30 + iz);
        c.E = static_cast<Real>(ix * iy + iz);
        c.G = static_cast<Real>(2 + ix);
        c.P = static_cast<Real>(3 + iz);
        g.cell(ix, iy, iz) = c;
      }
}

void expect_labs_bitwise(const BlockLab& a, const BlockLab& b) {
  const int bs = a.block_size(), g = a.ghosts();
  for (int q = 0; q < kNumQuantities; ++q)
    for (int iz = -g; iz < bs + g; ++iz)
      for (int iy = -g; iy < bs + g; ++iy)
        for (int ix = -g; ix < bs + g; ++ix)
          ASSERT_EQ(a(q, ix, iy, iz), b(q, ix, iy, iz))
              << "q=" << q << " (" << ix << "," << iy << "," << iz << ")";
}

/// Loads every block of `g` through both paths and compares bitwise.
void check_all_blocks(Grid& g, const BoundaryConditions& bc) {
  const int bs = g.block_size();
  BlockLab oracle, bulk;
  oracle.resize(bs);
  bulk.resize(bs);
  for (int bz = 0; bz < g.blocks_z(); ++bz)
    for (int by = 0; by < g.blocks_y(); ++by)
      for (int bx = 0; bx < g.blocks_x(); ++bx) {
        SCOPED_TRACE(testing::Message() << "block (" << bx << "," << by << "," << bz << ")");
        oracle.load(g, bx, by, bz,
                    [&](int ix, int iy, int iz) { return g.cell_folded(ix, iy, iz, bc); });
        bulk.load(g, bx, by, bz, bc);
        expect_labs_bitwise(oracle, bulk);
      }
}

TEST(LabAssembly, AbsorbingMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kAbsorbing));
}

TEST(LabAssembly, WallMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kWall));
}

TEST(LabAssembly, PeriodicMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kPeriodic));
}

TEST(LabAssembly, MixedPerFaceBcsMatchPerCellFetch) {
  // Different fold on every axis, asymmetric lo/hi on x: corner ghosts
  // combine three distinct folds (and two momentum sign flips on y-walls).
  Grid g(3, 2, 1, 8, 1.0);
  tag_grid(g);
  BoundaryConditions bc;
  bc.face[0] = {BCType::kAbsorbing, BCType::kWall};
  bc.face[1] = {BCType::kWall, BCType::kWall};
  bc.face[2] = {BCType::kPeriodic, BCType::kPeriodic};
  check_all_blocks(g, bc);
}

TEST(LabAssembly, SingleBlockGridFoldsOntoItself) {
  Grid g(1, 1, 1, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kPeriodic));
  check_all_blocks(g, BoundaryConditions::all(BCType::kWall));
}

TEST(LabAssembly, OverrideInterceptsExactlyTheOutOfDomainCells) {
  Grid g(2, 1, 1, 8, 1.0);
  tag_grid(g);
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);

  // Synthetic cluster intercept with fetch_remote semantics: fills any
  // out-of-domain coordinate with a recognizable tag, declines in-domain
  // coordinates (the local fold serves those).
  long calls = 0, in_domain_calls = 0;
  const std::function<bool(int, int, int, Cell&)> override_fn =
      [&](int ix, int iy, int iz, Cell& c) {
        ++calls;
        const bool outside = ix < 0 || ix >= g.cells_x() || iy < 0 ||
                             iy >= g.cells_y() || iz < 0 || iz >= g.cells_z();
        if (!outside) {
          ++in_domain_calls;
          return false;
        }
        c = Cell{};
        c.rho = static_cast<Real>(-1000 - ix - 10 * iy - 100 * iz);
        return true;
      };

  BlockLab oracle, bulk;
  oracle.resize(8);
  bulk.resize(8);
  for (int bx = 0; bx < 2; ++bx) {
    SCOPED_TRACE(testing::Message() << "block x " << bx);
    // The per-cell oracle (the fetch the bulk load replaced) consults the
    // override for *every* ghost cell, in-domain ones included.
    oracle.load(g, bx, 0, 0, [&](int ix, int iy, int iz) {
      Cell c;
      if (override_fn(ix, iy, iz, c)) return c;
      return g.cell_folded(ix, iy, iz, bc);
    });
    const long oracle_calls = calls;
    calls = in_domain_calls = 0;
    bulk.load(g, bx, 0, 0, bc, &override_fn);
    expect_labs_bitwise(oracle, bulk);
    // The bulk path must route only the out-of-domain subset through it.
    EXPECT_EQ(in_domain_calls, 0);
    EXPECT_GT(calls, 0);
    EXPECT_LT(calls, oracle_calls);
    calls = in_domain_calls = 0;
  }
}

TEST(LabAssembly, DecliningOverrideFallsBackToLocalFold) {
  Grid g(2, 1, 1, 8, 1.0);
  tag_grid(g);
  const auto bc = BoundaryConditions::all(BCType::kPeriodic);
  const std::function<bool(int, int, int, Cell&)> decline =
      [](int, int, int, Cell&) { return false; };
  BlockLab plain, declined;
  plain.resize(8);
  declined.resize(8);
  plain.load(g, 1, 0, 0, bc);
  declined.load(g, 1, 0, 0, bc, &decline);
  expect_labs_bitwise(plain, declined);
}

TEST(LabAssembly, ClusterFetchRemoteInterceptMatchesPerCellPath) {
  // The real cluster override: a 2x1x1 rank split with exchanged halos.
  Simulation::Params p;
  p.extent = 1.0;
  p.bc = BoundaryConditions::all(BCType::kPeriodic);
  auto cs = std::make_unique<cluster::ClusterSimulation>(4, 2, 2, 8,
                                                         cluster::CartTopology(2, 1, 1), p);
  for (int r = 0; r < 2; ++r) tag_grid(cs->rank_sim(r).grid());
  cs->exchange_halos();

  BlockLab oracle, bulk;
  oracle.resize(8);
  bulk.resize(8);
  for (int r = 0; r < 2; ++r) {
    Grid& g = cs->rank_sim(r).grid();
    // fetch_remote takes global coordinates; the lab hands out rank-local
    // ones — translate by the rank's box origin, as the cluster layer does.
    int cx, cy, cz;
    cs->topology().coords(r, cx, cy, cz);
    const int ox = cx * g.cells_x(), oy = cy * g.cells_y(), oz = cz * g.cells_z();
    const std::function<bool(int, int, int, Cell&)> remote =
        [&, r, ox, oy, oz](int ix, int iy, int iz, Cell& c) {
          return cs->fetch_remote(r, ix + ox, iy + oy, iz + oz, c);
        };
    for (int bz = 0; bz < g.blocks_z(); ++bz)
      for (int by = 0; by < g.blocks_y(); ++by)
        for (int bx = 0; bx < g.blocks_x(); ++bx) {
          SCOPED_TRACE(testing::Message()
                       << "rank " << r << " block (" << bx << "," << by << "," << bz << ")");
          oracle.load(g, bx, by, bz, [&](int ix, int iy, int iz) {
            Cell c;
            if (remote(ix, iy, iz, c)) return c;
            return g.cell_folded(ix, iy, iz, p.bc);
          });
          bulk.load(g, bx, by, bz, p.bc, &remote);
          expect_labs_bitwise(oracle, bulk);
        }
  }
}

}  // namespace
}  // namespace mpcf
