// Differential tests of BlockLab bulk assembly against the per-cell fetch
// oracle: for every boundary-condition fold (absorbing clamp, wall mirror
// with momentum sign flip, periodic wrap, and mixed per-face settings) and
// for every block position (faces, edges, corners), the bulk load must
// reproduce the per-cell path bitwise. A cluster rank's labs, which read the
// received halo slabs, are checked against the lab of the same block of the
// gathered global grid.
#include <gtest/gtest.h>

#include <cmath>
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

/// Global-grid oracle for a rank's halo ghosts: a tagged global grid is
/// scattered over `topo`, one exchange fills the slabs, and every lab cell
/// of every rank block with at most one axis outside the rank's box must
/// equal, bitwise, the lab of the same global block loaded from the gathered
/// grid under the global BCs.
void check_rank_labs_against_global(cluster::CartTopology topo, const BoundaryConditions& bc) {
  constexpr int kBs = 8;
  const int gb[3] = {2 * topo.rx, 2 * topo.ry, 2 * topo.rz};
  Simulation::Params p;
  p.extent = 1.0;
  p.bc = bc;
  auto cs = std::make_unique<cluster::ClusterSimulation>(gb[0], gb[1], gb[2], kBs, topo, p);
  Grid global(gb[0], gb[1], gb[2], kBs, 1.0);
  tag_grid(global);
  cs->scatter(global);
  cs->exchange_halos();
  Grid gathered(gb[0], gb[1], gb[2], kBs, 1.0);
  cs->gather(gathered);

  BlockLab rank_lab, global_lab;
  rank_lab.resize(kBs);
  global_lab.resize(kBs);
  long compared = 0;
  for (int r = 0; r < topo.size(); ++r) {
    const Simulation& sim = cs->rank_sim(r);
    const Grid& g = sim.grid();
    const int n[3] = {g.cells_x(), g.cells_y(), g.cells_z()};
    int rc[3];
    topo.coords(r, rc[0], rc[1], rc[2]);
    for (int bz = 0; bz < g.blocks_z(); ++bz)
      for (int by = 0; by < g.blocks_y(); ++by)
        for (int bx = 0; bx < g.blocks_x(); ++bx) {
          SCOPED_TRACE(testing::Message()
                       << "rank " << r << " block (" << bx << "," << by << "," << bz << ")");
          rank_lab.load(g, bx, by, bz, sim.params().bc, &cs->halo_slabs(r));
          global_lab.load(gathered, bx + rc[0] * g.blocks_x(), by + rc[1] * g.blocks_y(),
                          bz + rc[2] * g.blocks_z(), bc);
          const int b[3] = {bx, by, bz};
          for (int iz = -kGhosts; iz < kBs + kGhosts; ++iz)
            for (int iy = -kGhosts; iy < kBs + kGhosts; ++iy)
              for (int ix = -kGhosts; ix < kBs + kGhosts; ++ix) {
                const int i[3] = {ix, iy, iz};
                int out = 0;
                for (int a = 0; a < 3; ++a) {
                  const int c = b[a] * kBs + i[a];
                  out += c < 0 || c >= n[a];
                }
                if (out > 1) continue;
                for (int q = 0; q < kNumQuantities; ++q)
                  ASSERT_EQ(rank_lab(q, ix, iy, iz), global_lab(q, ix, iy, iz))
                      << "q=" << q << " (" << ix << "," << iy << "," << iz << ")";
                ++compared;
              }
        }
  }
  EXPECT_GT(compared, 0);
}

TEST(LabAssembly, RankLabsMatchGlobalLabPeriodic2x1x1) {
  check_rank_labs_against_global(cluster::CartTopology(2, 1, 1),
                                 BoundaryConditions::all(BCType::kPeriodic));
}

TEST(LabAssembly, RankLabsMatchGlobalLabWallFloor2x2x1) {
  // The cluster_halo workload's BCs: absorbing far field, a wall at z-low.
  BoundaryConditions bc = BoundaryConditions::all(BCType::kAbsorbing);
  bc.face[2][0] = BCType::kWall;
  check_rank_labs_against_global(cluster::CartTopology(2, 2, 1), bc);
}

TEST(LabAssembly, RankLabsMatchGlobalLabAbsorbing1x2x2) {
  check_rank_labs_against_global(cluster::CartTopology(1, 2, 2),
                                 BoundaryConditions::all(BCType::kAbsorbing));
}

}  // namespace
}  // namespace mpcf
