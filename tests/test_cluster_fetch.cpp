// Focused unit tests of the cluster layer's ghost path — a rank's labs read
// the received face slabs through BlockLab's fold tables — and of the halo
// exchange message discipline.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster_simulation.h"
#include "grid/lab.h"

namespace mpcf::cluster {
namespace {

/// Deterministically tagged global field on a 32^3 grid split 2x1x1.
/// Heap-allocated: ClusterSimulation is pinned by its comm mutexes.
std::unique_ptr<ClusterSimulation> make_tagged(const BoundaryConditions& bc) {
  Simulation::Params p;
  p.extent = 1.0;
  p.bc = bc;
  auto cs = std::make_unique<ClusterSimulation>(4, 4, 4, 8, CartTopology(2, 1, 1), p);
  for (int r = 0; r < 2; ++r) {
    Grid& g = cs->rank_sim(r).grid();
    int cx, cy, cz;
    cs->topology().coords(r, cx, cy, cz);
    const int ox = cx * g.cells_x();
    for (int iz = 0; iz < g.cells_z(); ++iz)
      for (int iy = 0; iy < g.cells_y(); ++iy)
        for (int ix = 0; ix < g.cells_x(); ++ix) {
          Cell c;
          c.rho = static_cast<Real>(1000 + ox + ix);
          c.ru = static_cast<Real>(iy);
          c.rv = static_cast<Real>(iz);
          c.rw = static_cast<Real>(ox + ix + iy + iz);
          c.E = 1;
          c.G = 1;
          c.P = 0;
          g.cell(ix, iy, iz) = c;
        }
  }
  return cs;
}

std::unique_ptr<ClusterSimulation> make_tagged(BCType bctype) {
  return make_tagged(BoundaryConditions::all(bctype));
}

/// Block (bx,by,bz) of rank `r`, assembled as the rank's step assembles it:
/// the rank's grid and BCs plus the slabs it last received.
BlockLab rank_lab(const ClusterSimulation& cs, int r, int bx, int by, int bz) {
  const Simulation& sim = cs.rank_sim(r);
  BlockLab lab;
  lab.resize(sim.grid().block_size());
  lab.load(sim.grid(), bx, by, bz, sim.params().bc, &cs.halo_slabs(r));
  return lab;
}

/// Every lab cell of every block of rank `r` with at least `min_out` axes
/// outside the rank's grid equals the rank-local fold of that cell.
void expect_local_fold(const ClusterSimulation& cs, int r, int min_out) {
  const Simulation& sim = cs.rank_sim(r);
  const Grid& g = sim.grid();
  const int bs = g.block_size(), ng = kGhosts;
  const int n[3] = {g.cells_x(), g.cells_y(), g.cells_z()};
  long checked = 0;
  for (int bz = 0; bz < g.blocks_z(); ++bz)
    for (int by = 0; by < g.blocks_y(); ++by)
      for (int bx = 0; bx < g.blocks_x(); ++bx) {
        const BlockLab lab = rank_lab(cs, r, bx, by, bz);
        for (int iz = -ng; iz < bs + ng; ++iz)
          for (int iy = -ng; iy < bs + ng; ++iy)
            for (int ix = -ng; ix < bs + ng; ++ix) {
              const int c[3] = {bx * bs + ix, by * bs + iy, bz * bs + iz};
              int out = 0;
              for (int a = 0; a < 3; ++a) out += c[a] < 0 || c[a] >= n[a];
              if (out < min_out) continue;
              const Cell want = g.cell_folded(c[0], c[1], c[2], sim.params().bc);
              for (int q = 0; q < kNumQuantities; ++q)
                ASSERT_EQ(lab(q, ix, iy, iz), want.q(q))
                    << "rank " << r << " block (" << bx << "," << by << "," << bz
                    << ") cell (" << ix << "," << iy << "," << iz << ") q=" << q;
              ++checked;
            }
      }
  EXPECT_GT(checked, 0);
}

TEST(HaloLab, FaceGhostsComeFromNeighborRankAfterExchange) {
  auto cs = make_tagged(BCType::kAbsorbing);
  cs->exchange_halos();
  // Rank 0 (x in [0,16)), block x 1: lab x = 8..10 are global x = 16..18,
  // rank 1's first layers.
  const BlockLab lab0 = rank_lab(*cs, 0, 1, 0, 1);
  for (int l = 0; l < kGhosts; ++l) {
    EXPECT_EQ(lab0(Q_RHO, 8 + l, 7, 1), 1000 + 16 + l);
    EXPECT_EQ(lab0(Q_RU, 8 + l, 7, 1), 7);
    EXPECT_EQ(lab0(Q_RV, 8 + l, 7, 1), 9);
  }
  // Rank 1 (x in [16,32)), block x 0: lab x = -1..-3 are global x = 15..13,
  // rank 0's last layers.
  const BlockLab lab1 = rank_lab(*cs, 1, 0, 0, 0);
  for (int l = 0; l < kGhosts; ++l) {
    EXPECT_EQ(lab1(Q_RHO, -1 - l, 2, 4), 1000 + 15 - l);
    EXPECT_EQ(lab1(Q_RU, -1 - l, 2, 4), 2);
    EXPECT_EQ(lab1(Q_RV, -1 - l, 2, 4), 4);
  }
}

TEST(HaloLab, YWallGhostOnHaloXRowFlipsRv) {
  BoundaryConditions bc = BoundaryConditions::all(BCType::kAbsorbing);
  bc.face[1] = {BCType::kWall, BCType::kWall};
  auto cs = make_tagged(bc);
  cs->exchange_halos();
  // Rank 0, block (1,0,0): lab (8+l, -2, 5) is global (16+l, -2, 5) — x in
  // rank 1's slab, y mirrored about the wall to y = 1 with rv flipped.
  const BlockLab lab = rank_lab(*cs, 0, 1, 0, 0);
  for (int l = 0; l < kGhosts; ++l) {
    EXPECT_EQ(lab(Q_RHO, 8 + l, -2, 5), 1000 + 16 + l);
    EXPECT_EQ(lab(Q_RU, 8 + l, -2, 5), 1);
    EXPECT_EQ(lab(Q_RV, 8 + l, -2, 5), -5);
    EXPECT_EQ(lab(Q_RW, 8 + l, -2, 5), 16 + l + 1 + 5);
  }
}

TEST(HaloLab, PeriodicSelfAxisReadsOwnOppositeLayers) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  // ry == 1: the rank's own high-y layers travel through the self-send slab.
  ASSERT_FALSE(cs->halo_slabs(0)[2].empty());
  // A write after the exchange must not show: the lab reads the slab, not
  // the rank's own cells.
  cs->rank_sim(0).grid().cell(5, 30, 8).ru = -77;
  // Block (0,0,1): lab (5, -2, 0) is global (5, -2, 8), which wraps to y = 30.
  const BlockLab lab = rank_lab(*cs, 0, 0, 0, 1);
  EXPECT_EQ(lab(Q_RU, 5, -2, 0), 30);
  // Block (0,1,3): lab (5, 0, 9) is global (5, 8, 33), which wraps to z = 1.
  const BlockLab lab_z = rank_lab(*cs, 0, 0, 1, 3);
  EXPECT_EQ(lab_z(Q_RV, 5, 0, 9), 1);
}

TEST(HaloLab, PeriodicSplitAxisReadsNeighborSlab) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  // Rank 0, lab x = -1 of block x 0 is global x = -1, which wraps to x = 31
  // (rank 1's last layer).
  EXPECT_EQ(rank_lab(*cs, 0, 0, 0, 0)(Q_RHO, -1, 4, 4), 1000 + 31);
  // Rank 1, lab x = 8 of block x 1 is global x = 32, which wraps to x = 0
  // (rank 0's first layer).
  EXPECT_EQ(rank_lab(*cs, 1, 1, 0, 0)(Q_RHO, 8, 4, 4), 1000 + 0);
}

TEST(HaloLab, EdgeAndCornerGhostsTakeTheLocalFold) {
  // Periodic: every face has a slab, so a cell with two or three axes
  // beyond the rank's grid has as many halo axes and reads no slab.
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  for (int r = 0; r < 2; ++r) expect_local_fold(*cs, r, 2);
}

TEST(HaloLab, BeforeTheFirstExchangeEveryGhostTakesTheLocalFold) {
  auto cs = make_tagged(BCType::kPeriodic);
  for (int r = 0; r < 2; ++r) {
    for (const auto& slab : cs->halo_slabs(r)) EXPECT_TRUE(slab.empty());
    expect_local_fold(*cs, r, 1);
  }
}

TEST(ExchangeHalos, MessageCountPerExchange) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->comm().reset_stats();
  cs->exchange_halos();
  // 2 ranks x 6 faces (periodic: every face has a neighbour, possibly self).
  EXPECT_EQ(cs->comm().stats().messages, 12u);
  auto cs2 = make_tagged(BCType::kAbsorbing);
  cs2->comm().reset_stats();
  cs2->exchange_halos();
  // Absorbing 2x1x1: only the two internal x-faces carry messages.
  EXPECT_EQ(cs2->comm().stats().messages, 2u);
}

}  // namespace
}  // namespace mpcf::cluster
