// Tests of the cluster layer: topology, transport, and — the critical
// property — multi-rank runs reproducing the single-rank solution exactly.
#include <gtest/gtest.h>
#include <omp.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cluster/cluster_simulation.h"
#include "eos/stiffened_gas.h"
#include "io/compressed_file.h"
#include "reference_stepper.h"
#include "workload/cloud.h"

namespace mpcf::cluster {
namespace {

TEST(CartTopology, CoordsRoundTrip) {
  CartTopology t(2, 3, 4);
  EXPECT_EQ(t.size(), 24);
  for (int r = 0; r < t.size(); ++r) {
    int x, y, z;
    t.coords(r, x, y, z);
    EXPECT_EQ(t.rank(x, y, z), r);
  }
}

TEST(CartTopology, NeighborsNonPeriodic) {
  CartTopology t(2, 2, 2);
  EXPECT_EQ(t.neighbor(0, 0, 0, false), -1);       // low-x edge
  EXPECT_EQ(t.neighbor(0, 0, 1, false), 1);        // +x neighbor
  EXPECT_EQ(t.neighbor(0, 1, 1, false), 2);        // +y
  EXPECT_EQ(t.neighbor(0, 2, 1, false), 4);        // +z
  EXPECT_EQ(t.neighbor(7, 0, 1, false), -1);       // high-x edge
}

TEST(CartTopology, NeighborsPeriodicWrap) {
  CartTopology t(3, 1, 1);
  EXPECT_EQ(t.neighbor(0, 0, 0, true), 2);
  EXPECT_EQ(t.neighbor(2, 0, 1, true), 0);
  EXPECT_EQ(t.neighbor(0, 1, 0, true), 0);  // self across a 1-rank axis
}

TEST(SimComm, SendRecvFifoPerTag) {
  SimComm comm(2);
  comm.send(0, 1, 7, {1.0f, 2.0f});
  comm.send(0, 1, 7, {3.0f});
  comm.send(1, 0, 7, {9.0f});
  EXPECT_TRUE(comm.probe(0, 1, 7));
  EXPECT_FALSE(comm.probe(0, 1, 8));
  const auto a = comm.recv(0, 1, 7);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1.0f);
  const auto b = comm.recv(0, 1, 7);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 3.0f);
  // A receive with no matching message blocks until the timeout, then fails
  // with a diagnosable TransportError naming the flow (regression: this used
  // to hard-fail immediately, turning legitimate waits into errors).
  comm.set_recv_timeout(0.05);
  try {
    (void)comm.recv(0, 1, 7);
    FAIL() << "recv on an empty flow must time out";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 7"), std::string::npos) << what;
  }
  EXPECT_EQ(comm.stats().messages, 3u);
  EXPECT_EQ(comm.stats().bytes, 4u * sizeof(float));
}

TEST(SimComm, RecvUnblocksWhenMessageArrivesLate) {
  // The blocking receive must wake as soon as a matching send lands — the
  // paper's cluster layer legitimately receives messages posted by another
  // worker after the recv started.
  SimComm comm(2);
  comm.set_recv_timeout(10.0);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    comm.send(0, 1, 4, {42.0f});
  });
  const auto msg = comm.recv(0, 1, 4);
  sender.join();
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(msg[0], 42.0f);
}

TEST(SimComm, TryRecvIsAtomicUnderConcurrentDrains) {
  // probe()+recv() is a check-then-act race: two drains can both see the
  // same message and the loser dies on an empty mailbox. try_recv pops
  // atomically — N messages split across two concurrent drains must arrive
  // exactly once each (regression for the overlap drain loop).
  SimComm comm(2);
  const int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) comm.send(0, 1, 9, {static_cast<float>(i)});
  std::vector<float> got_a, got_b;
  std::thread drain_a([&] {
    std::vector<float> msg;
    while (comm.try_recv(0, 1, 9, msg)) got_a.push_back(msg.at(0));
  });
  std::vector<float> msg;
  while (comm.try_recv(0, 1, 9, msg)) got_b.push_back(msg.at(0));
  drain_a.join();
  ASSERT_EQ(got_a.size() + got_b.size(), static_cast<std::size_t>(kMessages));
  // Each drain sees an ascending subsequence; together they cover 0..N-1.
  std::vector<bool> seen(kMessages, false);
  for (const auto& seq : {got_a, got_b}) {
    float last = -1.0f;
    for (const float v : seq) {
      EXPECT_GT(v, last);
      last = v;
      ASSERT_FALSE(seen[static_cast<int>(v)]) << "message " << v << " popped twice";
      seen[static_cast<int>(v)] = true;
    }
  }
}

TEST(Transport, HaloTagSchemaEncodesEpochAndFace) {
  // Epoch-qualified halo tags: a fast rank one RK stage ahead must never
  // alias the previous stage's flow (regression: tags used to be axis*2+side
  // only, so stage N+1 messages matched stage N receives).
  EXPECT_NE(halo_tag(0, 0, 0), halo_tag(0, 0, 1));
  for (long epoch : {0L, 1L, 7L, 1000L})
    for (int a = 0; a < 3; ++a)
      for (int s = 0; s < 2; ++s) {
        const int tag = halo_tag(a, s, epoch);
        EXPECT_TRUE(is_halo_tag(tag));
        EXPECT_EQ(halo_tag_epoch(tag), epoch);
        EXPECT_EQ(halo_tag_face(tag), a * 2 + s);
      }
  EXPECT_FALSE(is_halo_tag(kTagGather));
  EXPECT_FALSE(is_halo_tag(kTagDump));
}

TEST(SimComm, ManyMessagesStayFifoPerKey) {
  // The overlap plan lets fast ranks run ahead, deepening mailbox
  // queues; order must stay FIFO per (src,dst,tag) and pops must not lose
  // messages. Interleave sends across several keys to stress the matching.
  SimComm comm(3);
  const int kMessages = 500;
  struct KeyDef {
    int src, dst, tag;
  };
  const KeyDef keys[] = {{0, 1, 0}, {0, 1, 1}, {2, 1, 0}, {1, 0, 3}};
  for (int i = 0; i < kMessages; ++i)
    for (const auto& k : keys)
      comm.send(k.src, k.dst, k.tag,
                {static_cast<float>(i), static_cast<float>(k.tag)});
  for (const auto& k : keys) EXPECT_TRUE(comm.probe(k.src, k.dst, k.tag));
  for (int i = 0; i < kMessages; ++i)
    for (const auto& k : keys) {
      const auto msg = comm.recv(k.src, k.dst, k.tag);
      ASSERT_EQ(msg.size(), 2u);
      EXPECT_EQ(msg[0], static_cast<float>(i)) << "key " << k.src << "," << k.tag;
      EXPECT_EQ(msg[1], static_cast<float>(k.tag));
    }
  for (const auto& k : keys) EXPECT_FALSE(comm.probe(k.src, k.dst, k.tag));
  EXPECT_EQ(comm.stats().messages, 4u * kMessages);
  EXPECT_EQ(comm.stats().bytes, 4u * kMessages * 2 * sizeof(float));
  EXPECT_GT(comm.stats().recv_seconds, 0.0);
}

TEST(SimComm, Collectives) {
  SimComm comm(4);
  EXPECT_DOUBLE_EQ(comm.allreduce_max({1.0, 7.0, 3.0, 2.0}), 7.0);
  const auto scan = comm.exscan({10, 20, 30, 40});
  EXPECT_EQ(scan, (std::vector<std::uint64_t>{0, 10, 30, 60}));
  EXPECT_EQ(comm.stats().collectives, 2u);
}

// --- Multi-rank == single-rank ------------------------------------------

Simulation::Params cloud_params(BCType bctype) {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(bctype);
  return p;
}

void init_cloud(Grid& g) {
  std::vector<Bubble> bubbles{{0.35e-3, 0.4e-3, 0.5e-3, 0.1e-3},
                              {0.65e-3, 0.6e-3, 0.45e-3, 0.12e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
}

void copy_into_cluster(const Grid& global, ClusterSimulation& cs) {
  Grid check(global.blocks_x(), global.blocks_y(), global.blocks_z(),
             global.block_size(), 1.0);
  (void)check;
  for (int r = 0; r < cs.rank_count(); ++r) {
    Grid& rg = cs.rank_sim(r).grid();
    // Recover the rank origin by gathering once: instead, copy via the
    // public gather-compatible layout (rank boxes are row-major by topology).
    int cx, cy, cz;
    cs.topology().coords(r, cx, cy, cz);
    const int ox = cx * rg.cells_x(), oy = cy * rg.cells_y(), oz = cz * rg.cells_z();
    for (int iz = 0; iz < rg.cells_z(); ++iz)
      for (int iy = 0; iy < rg.cells_y(); ++iy)
        for (int ix = 0; ix < rg.cells_x(); ++ix)
          rg.cell(ix, iy, iz) = global.cell(ox + ix, oy + iy, oz + iz);
  }
}

class RankEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, BCType>> {};

TEST_P(RankEquivalenceTest, MultiRankMatchesSingleRank) {
  const auto [rx, ry, rz, bctype] = GetParam();
  const int gb = 4, bs = 8;  // 32^3 cells globally

  Simulation::Params params = cloud_params(bctype);
  Simulation single(gb, gb, gb, bs, params);
  init_cloud(single.grid());

  ClusterSimulation cluster(gb, gb, gb, bs, CartTopology(rx, ry, rz), params);
  copy_into_cluster(single.grid(), cluster);

  for (int s = 0; s < 4; ++s) {
    const double dt1 = single.step();
    const double dt2 = cluster.step();
    ASSERT_DOUBLE_EQ(dt1, dt2) << "step " << s;
  }

  Grid gathered(gb, gb, gb, bs, params.extent);
  cluster.gather(gathered);
  for (int iz = 0; iz < single.grid().cells_z(); ++iz)
    for (int iy = 0; iy < single.grid().cells_y(); ++iy)
      for (int ix = 0; ix < single.grid().cells_x(); ++ix)
        for (int q = 0; q < kNumQuantities; ++q) {
          ASSERT_EQ(gathered.cell(ix, iy, iz).q(q), single.grid().cell(ix, iy, iz).q(q))
              << "mismatch at " << ix << "," << iy << "," << iz << " q=" << q
              << " ranks=" << rx << ry << rz;
        }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RankEquivalenceTest,
    ::testing::Values(std::tuple{2, 1, 1, BCType::kAbsorbing},
                      std::tuple{1, 2, 1, BCType::kAbsorbing},
                      std::tuple{1, 1, 2, BCType::kAbsorbing},
                      std::tuple{2, 2, 2, BCType::kAbsorbing},
                      std::tuple{2, 1, 1, BCType::kPeriodic},
                      std::tuple{2, 2, 2, BCType::kPeriodic},
                      std::tuple{4, 1, 1, BCType::kPeriodic},
                      std::tuple{2, 2, 1, BCType::kWall}));

// The stage graph's two plans — pack/drain tasks inside the graph (overlap
// on, the default) and a blocking exchange before each stage (overlap off)
// — must reproduce the staged single-threaded reference on the global grid
// (dt, every cell, and the guard's clamp count) for 2x1x1 and 2x2x2 ranks
// at 1 and 4 threads: only the interleaving differs, and no block result
// may depend on it. Stores the reference's clamp count in `ref_clamped`.
void expect_plans_match_reference(const Simulation::Params& params, long* ref_clamped) {
  Simulation seed(4, 4, 4, 8, params);
  init_cloud(seed.grid());
  Simulation ref(4, 4, 4, 8, params);
  init_cloud(ref.grid());
  std::vector<double> ref_dts;
  for (int s = 0; s < 2; ++s) ref_dts.push_back(test::reference_step(ref));
  *ref_clamped = ref.params().clamped_cells;

  const int saved_threads = omp_get_max_threads();
  for (const CartTopology topo : {CartTopology(2, 1, 1), CartTopology(2, 2, 2)})
    for (const int nt : {1, 4})
      for (const bool overlap : {true, false}) {
        omp_set_num_threads(nt);
        ClusterSimulation cs(4, 4, 4, 8, topo, params);
        cs.set_overlap(overlap);
        copy_into_cluster(seed.grid(), cs);
        for (int s = 0; s < 2; ++s)
          ASSERT_EQ(cs.step(), ref_dts[s]) << "step " << s;
        Grid g(4, 4, 4, 8, params.extent);
        cs.gather(g);
        for (int iz = 0; iz < g.cells_z(); ++iz)
          for (int iy = 0; iy < g.cells_y(); ++iy)
            for (int ix = 0; ix < g.cells_x(); ++ix)
              for (int q = 0; q < kNumQuantities; ++q)
                ASSERT_EQ(g.cell(ix, iy, iz).q(q), ref.grid().cell(ix, iy, iz).q(q))
                    << "mismatch at " << ix << "," << iy << "," << iz << " q=" << q
                    << " ranks=" << topo.size() << " threads=" << nt
                    << " overlap=" << overlap;
        long clamped = 0;
        for (int r = 0; r < cs.rank_count(); ++r)
          clamped += cs.rank_sim(r).params().clamped_cells;
        ASSERT_EQ(clamped, *ref_clamped)
            << "ranks=" << topo.size() << " threads=" << nt << " overlap=" << overlap;
      }
  omp_set_num_threads(saved_threads);
}

TEST(Cluster, BothPlansMatchReferenceStepperBitwise) {
  long ref_clamped = 0;
  expect_plans_match_reference(cloud_params(BCType::kPeriodic), &ref_clamped);
}

TEST(Cluster, BothPlansMatchReferenceStepperBitwiseWhileGuardFires) {
  // A pressure floor above the bubbles' vapor pressure: cells clamp inside
  // the final-stage updates of every rank from the first step on, so a
  // clamp that ran before a consumer lab or a pack had read its block would
  // show.
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  params.p_floor = 5e6;
  long ref_clamped = 0;
  ASSERT_NO_FATAL_FAILURE(expect_plans_match_reference(params, &ref_clamped));
  EXPECT_GT(ref_clamped, 0);
}

TEST(Cluster, TracerCapturesPhasesAndExportsChromeJson) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  cs.tracer().enable(true);
  cs.step();
  cs.step();

  using perf::TracePhase;
  // 2x1x1 absorbing: each rank has a 2x4x4 halo layer and 2x4x4 interior.
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kExchange), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kHalo), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kUpdate), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kReduce), 0.0);
  // The stage graph must not hide RHS time: its block tasks emit
  // lab-assembly and pure-RHS spans on top of the membership
  // (interior/halo) spans.
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kLab), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs), 0.0);
  // Per-rank filtering: both ranks contributed interior and RHS spans.
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior, 0), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior, 1), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs, 0), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs, 1), 0.0);

  const auto events = cs.tracer().events();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_TRUE(e.rank >= 0 && e.rank < cs.rank_count());
  }

  const std::string json = cs.tracer().chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"interior\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"halo\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lab\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rhs\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');

  const std::string path = ::testing::TempDir() + "/mpcf_trace.json";
  cs.tracer().write_chrome_json(path);
  // mpcf-lint: allow(raw-io): test oracle re-reads the exported trace independently of the writer
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), json);
  std::remove(path.c_str());

  // clear() drops events and disabling stops recording.
  cs.tracer().clear();
  EXPECT_TRUE(cs.tracer().events().empty());
  cs.tracer().enable(false);
  cs.step();
  EXPECT_TRUE(cs.tracer().events().empty());
}

TEST(Cluster, StallAccountingSurfacesInCommStats) {
  Simulation::Params params = cloud_params(BCType::kPeriodic);

  // Exchange-first plan (overlap off): the step loop blocks on the full
  // exchange, and the stall surfaces identically through SimComm stats and
  // comm_time().
  ClusterSimulation seq(4, 4, 4, 8, CartTopology(2, 1, 1), params);
  seq.set_overlap(false);
  for (int r = 0; r < seq.rank_count(); ++r) init_cloud(seq.rank_sim(r).grid());
  seq.step();
  const auto seq_stats = seq.comm().stats();
  EXPECT_GT(seq_stats.stall_seconds, 0.0);
  EXPECT_GT(seq_stats.recv_seconds, 0.0);
  EXPECT_DOUBLE_EQ(seq_stats.stall_seconds, seq.comm_time());
  EXPECT_DOUBLE_EQ(seq.comm_work_time(), seq.comm_time());

  // Overlap plan: packs and drains run as tasks inside the stage graph, so
  // the step loop never blocks on comm — zero exposed stall —
  // while the communication work itself shows up in comm_work_time() and
  // the drain time in recv_seconds.
  ClusterSimulation ovl(4, 4, 4, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < ovl.rank_count(); ++r) init_cloud(ovl.rank_sim(r).grid());
  ovl.step();
  const auto ovl_stats = ovl.comm().stats();
  EXPECT_DOUBLE_EQ(ovl.comm_time(), 0.0);
  EXPECT_DOUBLE_EQ(ovl_stats.stall_seconds, 0.0);
  EXPECT_GT(ovl.comm_work_time(), 0.0);
  EXPECT_GT(ovl_stats.recv_seconds, 0.0);
  EXPECT_EQ(ovl_stats.messages, seq_stats.messages);
}

TEST(Cluster, MessageAccountingMatchesTopology) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
  for (int r = 0; r < 8; ++r) init_cloud(cs.rank_sim(r).grid());
  cs.step();
  // 8 ranks x 3 faces with neighbours (corner ranks of a 2^3 topology)
  // x 3 RK stages = 72 messages per step.
  EXPECT_EQ(cs.comm().stats().messages, 72u);
  // Each message: 3-layer slab of 16x16 cells x 7 floats.
  EXPECT_EQ(cs.comm().stats().bytes, 72u * 3 * 16 * 16 * 7 * sizeof(float));
  // Default overlap plan: no exposed stall, but the communication work
  // itself is accounted.
  EXPECT_DOUBLE_EQ(cs.comm_time(), 0.0);
  EXPECT_GT(cs.comm_work_time(), 0.0);
  // One epoch per RK stage: three stages stepped once.
  EXPECT_EQ(cs.halo_epoch(), 3);
  cs.step();
  EXPECT_EQ(cs.halo_epoch(), 6);
}

TEST(Cluster, HaloInteriorSplitCoversAllBlocks) {
  Simulation::Params params = cloud_params(BCType::kPeriodic);
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
  for (int r = 0; r < cs.rank_count(); ++r) {
    const auto& h = cs.halo_blocks(r);
    const auto& in = cs.interior_blocks(r);
    EXPECT_EQ(h.size() + in.size(),
              static_cast<std::size_t>(cs.rank_sim(r).grid().block_count()));
    // A 2x2x2-block rank with neighbours on all faces: every block is halo.
    EXPECT_EQ(in.size(), 0u);
  }
  // With absorbing faces instead, 1-rank-per-axis topology has no messages
  // and all blocks are interior.
  params.bc = BoundaryConditions::all(BCType::kAbsorbing);
  ClusterSimulation cs1(2, 2, 2, 8, CartTopology(1, 1, 1), params);
  EXPECT_EQ(cs1.halo_blocks(0).size(), 0u);
  EXPECT_EQ(cs1.interior_blocks(0).size(), 8u);
}

TEST(Cluster, DiagnosticsReduceAcrossRanks) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  Simulation single(4, 4, 4, 8, params);
  init_cloud(single.grid());
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 1), params);
  copy_into_cluster(single.grid(), cs);
  const double Gv = materials::kVapor.Gamma(), Gl = materials::kLiquid.Gamma();
  const auto ds = single.diagnostics(Gv, Gl);
  const auto dc = cs.diagnostics(Gv, Gl);
  EXPECT_NEAR(dc.mass, ds.mass, 1e-9 * ds.mass);
  EXPECT_NEAR(dc.vapor_volume, ds.vapor_volume, 1e-9 * ds.vapor_volume + 1e-20);
  EXPECT_DOUBLE_EQ(dc.max_p_field, ds.max_p_field);
}

TEST(Cluster, CollectiveDumpMatchesSingleRankField) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  Simulation single(4, 4, 4, 8, params);
  init_cloud(single.grid());
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
  copy_into_cluster(single.grid(), cs);

  compression::CompressionParams cp;
  cp.eps = 0.0f;  // lossless so fields must match to transform round-off
  cp.quantity = Q_G;
  const auto cq = cs.compress_collective(cp);
  const auto field = compression::decompress_to_field(cq);
  for (int iz = 0; iz < single.grid().cells_z(); ++iz)
    for (int iy = 0; iy < single.grid().cells_y(); ++iy)
      for (int ix = 0; ix < single.grid().cells_x(); ++ix)
        ASSERT_NEAR(field(ix, iy, iz), single.grid().cell(ix, iy, iz).G, 2e-5f);

  // Round-trip through the file format too.
  const std::string path = ::testing::TempDir() + "/mpcf_cluster_dump.cq";
  io::write_compressed(path, cq);
  const auto rt = io::read_compressed(path);
  EXPECT_EQ(rt.bx, 4);
  const auto field2 = compression::decompress_to_field(rt);
  EXPECT_EQ(field2(5, 6, 7), field(5, 6, 7));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::cluster
