// Tests of the per-block step graph (DESIGN.md §14): the block dependency
// topology the scheduler seeds its counters from, bitwise identity of the
// node and cluster graphs against the staged reference stepper across SIMD
// widths / thread counts / guard on, firing and off / cluster plans, and
// the folded SOS reduction (steady state runs no standalone sweep; the
// folded dt is bit-equal to a fresh sweep's). Built under MPCF_CHECKED
// these runs additionally exercise the scheduler's counter invariants and
// the lab readset cross-validation.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "core/simulation.h"
#include "grid/lab.h"
#include "grid/sfc.h"
#include "reference_stepper.h"
#include "simd/dispatch.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

using cluster::CartTopology;
using cluster::ClusterSimulation;

// --- helpers --------------------------------------------------------------

Simulation::Params cloud_params(BCType bctype, simd::Width w = simd::Width::kAuto) {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(bctype);
  p.width = w;
  return p;
}

void init_cloud(Grid& g) {
  std::vector<Bubble> bubbles{{0.35e-3, 0.4e-3, 0.5e-3, 0.1e-3},
                              {0.65e-3, 0.6e-3, 0.45e-3, 0.12e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
}

// Smooth single-phase acoustic pulse: stays clamp-free, so it can run with
// the positivity guard disabled (exercising the fold-into-final-stage path).
void init_pulse(Grid& g) {
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double x = (ix + 0.5) / g.cells_x();
        const double p =
            materials::kLiquidPressure * (1.0 + 0.01 * std::sin(6.283185307179586 * x));
        Cell& c = g.cell(ix, iy, iz);
        c.rho = static_cast<Real>(materials::kLiquidDensity);
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(G * p + Pi);
      }
}

void expect_grids_bitwise_equal(const Grid& a, const Grid& b, const char* what) {
  ASSERT_EQ(a.cells_x(), b.cells_x());
  ASSERT_EQ(a.cells_y(), b.cells_y());
  ASSERT_EQ(a.cells_z(), b.cells_z());
  for (int iz = 0; iz < a.cells_z(); ++iz)
    for (int iy = 0; iy < a.cells_y(); ++iy)
      for (int ix = 0; ix < a.cells_x(); ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(a.cell(ix, iy, iz).q(q), b.cell(ix, iy, iz).q(q))
              << what << ": mismatch at " << ix << "," << iy << "," << iz << " q=" << q;
}

std::vector<simd::Width> executable_widths() {
  std::vector<simd::Width> ws{simd::Width::kScalar};
  for (simd::Width w : {simd::Width::kW4, simd::Width::kW8})
    if (simd::width_compiled(w) && simd::host_executes(w)) ws.push_back(w);
  return ws;
}

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

// --- BlockTopology --------------------------------------------------------

TEST(BlockTopology, SelfMembershipSortedAndTransposeConsistent) {
  struct Shape {
    int bx, by, bz;
    BCType bc;
  };
  for (const Shape& s : {Shape{2, 2, 2, BCType::kAbsorbing}, Shape{2, 2, 2, BCType::kPeriodic},
                         Shape{3, 2, 1, BCType::kPeriodic}, Shape{4, 2, 2, BCType::kAbsorbing}}) {
    const BlockIndexer idx(s.bx, s.by, s.bz);
    const BlockTopology topo =
        build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(s.bc));
    ASSERT_EQ(topo.count, idx.count());
    for (int b = 0; b < topo.count; ++b) {
      const auto rs = topo.readset(b);
      const auto cs = topo.consumers(b);
      EXPECT_TRUE(std::is_sorted(rs.begin(), rs.end()));
      EXPECT_TRUE(std::is_sorted(cs.begin(), cs.end()));
      EXPECT_TRUE(std::binary_search(rs.begin(), rs.end(), b)) << "readset self b=" << b;
      EXPECT_TRUE(std::binary_search(cs.begin(), cs.end(), b)) << "consumers self b=" << b;
      // Transpose consistency: r in readset(b) <=> b in consumers(r).
      for (const int r : rs) {
        const auto rc = topo.consumers(r);
        EXPECT_TRUE(std::binary_search(rc.begin(), rc.end(), b))
            << "b=" << b << " reads r=" << r << " but is not r's consumer";
      }
      for (const int c : cs) {
        const auto cr = topo.readset(c);
        EXPECT_TRUE(std::binary_search(cr.begin(), cr.end(), b))
            << "c=" << c << " consumes b=" << b << " but b not in c's readset";
      }
    }
  }
}

TEST(BlockTopology, SingleBlockReadsOnlyItself) {
  for (BCType bc : {BCType::kAbsorbing, BCType::kPeriodic}) {
    const BlockIndexer idx(1, 1, 1);
    const BlockTopology topo = build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(bc));
    ASSERT_EQ(topo.readset(0).size(), 1u);
    EXPECT_EQ(topo.readset(0)[0], 0);
    ASSERT_EQ(topo.consumers(0).size(), 1u);
  }
}

TEST(BlockTopology, PeriodicTwoBlocksPerAxisReadsEveryBlock) {
  // Two blocks per axis under periodic folding: every axis folds to both
  // blocks, so each readset is the full 8-block product.
  const BlockIndexer idx(2, 2, 2);
  const BlockTopology topo =
      build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(BCType::kPeriodic));
  for (int b = 0; b < topo.count; ++b) {
    EXPECT_EQ(topo.readset(b).size(), 8u) << "b=" << b;
    EXPECT_EQ(topo.consumers(b).size(), 8u) << "b=" << b;
  }
}

TEST(BlockTopology, ReadsetCoversActualLabLoads) {
  // Brute force: for every block, a real bulk lab assembly's recorded source
  // set must be contained in the topology's readset.
  for (BCType bc : {BCType::kAbsorbing, BCType::kPeriodic}) {
    Grid g(3, 2, 2, 8, 1.0);
    const BoundaryConditions bcs = BoundaryConditions::all(bc);
    const BlockTopology topo = build_block_topology(g.indexer(), 8, kGhosts, bcs);
    BlockLab lab;
    std::vector<int> reads;
    for (int b = 0; b < g.block_count(); ++b) {
      int bx, by, bz;
      g.indexer().coords(b, bx, by, bz);
      lab.load(g, bx, by, bz, bcs);
      lab.read_block_set(g.indexer(), reads);
      const auto rs = topo.readset(b);
      EXPECT_TRUE(std::includes(rs.begin(), rs.end(), reads.begin(), reads.end()))
          << "lab of block " << b << " read outside its readset (bc="
          << static_cast<int>(bc) << ")";
    }
  }
}

// --- Step graph vs reference stepper: node layer -------------------------

TEST(StepGraph, BitwiseMatchesReferenceAcrossWidthsThreadsAndGuard) {
  // Guard on: cloud IC at the default floors, which this shape never
  // reaches. Guard fires: the same cloud with a pressure floor above the
  // bubbles' vapor pressure, so cells clamp inside the final-stage updates
  // from the first step on. Guard off: the smooth pulse never needs
  // clamping. In every arm the SOS reduction folds into the final-stage
  // update tasks, after the clamp.
  enum class Arm { kGuardOn, kGuardFires, kGuardOff };
  ThreadCountGuard tg;
  for (const Arm arm : {Arm::kGuardOn, Arm::kGuardFires, Arm::kGuardOff}) {
    const bool guard = arm != Arm::kGuardOff;
    for (const simd::Width w : executable_widths()) {
      for (const int nt : {1, 2, 8}) {
        omp_set_num_threads(nt);
        Simulation::Params p =
            cloud_params(guard ? BCType::kAbsorbing : BCType::kPeriodic, w);
        if (!guard) p.rho_floor = p.p_floor = -1.0;
        if (arm == Arm::kGuardFires) p.p_floor = 5e6;
        Simulation ref(2, 2, 2, 8, p), sim(2, 2, 2, 8, p);
        for (Simulation* x : {&ref, &sim}) (guard ? init_cloud : init_pulse)(x->grid());
        for (int s = 0; s < 3; ++s) {
          // The folded dt must match the reference's fresh sweep bit for
          // bit, every step.
          ASSERT_EQ(test::reference_step(ref), sim.step())
              << "dt diverged at step " << s << " arm=" << static_cast<int>(arm)
              << " width=" << static_cast<int>(w) << " threads=" << nt;
        }
        expect_grids_bitwise_equal(ref.grid(), sim.grid(), "graph-vs-reference");
        // The per-block clamp counts exactly what the reference's sweep does.
        EXPECT_EQ(sim.params().clamped_cells, ref.params().clamped_cells);
        if (arm == Arm::kGuardFires) {
          EXPECT_GT(sim.params().clamped_cells, 0);
        }
      }
    }
  }
}

TEST(StepGraph, SteadyStateRunsNoStandaloneSosSweep) {
  Simulation sim(2, 2, 2, 8, cloud_params(BCType::kAbsorbing));
  init_cloud(sim.grid());
  for (int s = 0; s < 4; ++s) sim.step();
  // Only step 0's compute_dt sweeps; every later dt comes from the
  // reduction folded into the step.
  EXPECT_EQ(sim.profile().sos_sweeps, 1);
}

TEST(StepGraph, FoldedVmaxCacheIsOneShotAndInvalidated) {
  Simulation sim(2, 2, 2, 8, cloud_params(BCType::kAbsorbing));
  init_cloud(sim.grid());
  sim.step();  // step 0: sweep for dt, advance folds the next vmax
  ASSERT_EQ(sim.profile().sos_sweeps, 1);

  const double dt_folded = sim.compute_dt();  // consumes the cache
  EXPECT_EQ(sim.profile().sos_sweeps, 1);
  // Cache is one-shot: the second call re-sweeps — and, with the state
  // untouched in between, must reproduce the folded value bit-for-bit.
  const double dt_swept = sim.compute_dt();
  EXPECT_EQ(sim.profile().sos_sweeps, 2);
  EXPECT_EQ(dt_folded, dt_swept);

  // restore_clock (checkpoint restart) drops a pending folded vmax.
  sim.advance(dt_swept);
  sim.restore_clock(sim.time(), sim.step_count());
  (void)sim.compute_dt();
  EXPECT_EQ(sim.profile().sos_sweeps, 3);
}

TEST(StepGraph, RankSimulationRefusesStandaloneAdvance) {
  // A cluster rank's ghosts come from its owner's halo exchange; stepping
  // it alone would read stale slabs.
  ClusterSimulation cs(2, 2, 2, 8, CartTopology(2, 1, 1), cloud_params(BCType::kAbsorbing));
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  EXPECT_THROW(cs.rank_sim(0).advance(1e-12), PreconditionError);
}

// --- Step graph vs reference stepper: cluster layer -----------------------

TEST(ClusterFused, BitwiseAcrossOverlapAndFusedModes) {
  // Both plans of the cluster stage graph — comm tasks in the graph
  // (overlap on) and exchange first (overlap off) — against the reference
  // stepper on the global grid: identical dt sequences and states.
  Simulation::Params params = cloud_params(BCType::kPeriodic);
  Simulation ref(4, 4, 4, 8, params);
  init_cloud(ref.grid());
  std::vector<double> ref_dts;
  for (int s = 0; s < 2; ++s) ref_dts.push_back(test::reference_step(ref));

  Grid initial(4, 4, 4, 8, params.extent);
  init_cloud(initial);
  for (const bool overlap : {false, true}) {
    ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 1, 1), params);
    cs.set_overlap(overlap);
    cs.scatter(initial);
    for (int s = 0; s < 2; ++s)
      ASSERT_EQ(cs.step(), ref_dts[s]) << "overlap=" << overlap << " step " << s;
    Grid g(4, 4, 4, 8, params.extent);
    cs.gather(g);
    expect_grids_bitwise_equal(g, ref.grid(), overlap ? "overlap plan" : "exchange plan");
  }
}

TEST(ClusterFused, SteadyStateRunsNoStandaloneSosSweep) {
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 1, 1), cloud_params(BCType::kAbsorbing));
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  for (int s = 0; s < 3; ++s) cs.step();
  // One sweep per rank at step 0, then every dt comes from the folded
  // reduction (profile() sums the local ranks).
  EXPECT_EQ(cs.profile().sos_sweeps, cs.rank_count());
}

TEST(ClusterFused, ScatterInvalidatesFoldedVmax) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  ClusterSimulation cs(2, 2, 2, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  cs.step();
  const long sweeps_after_step = cs.profile().sos_sweeps;
  Grid g(2, 2, 2, 8, params.extent);
  cs.gather(g);
  cs.scatter(g);  // external state injection: folded vmax must be dropped
  (void)cs.compute_dt();
  EXPECT_EQ(cs.profile().sos_sweeps, sweeps_after_step + cs.rank_count());
}

}  // namespace
}  // namespace mpcf
