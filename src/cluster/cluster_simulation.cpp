#include "cluster/cluster_simulation.h"

#include <omp.h>

#include <algorithm>
#include <cmath>

#include "cluster/transport_inmemory.h"
#include "compression/pipeline.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"

namespace mpcf::cluster {

namespace {

[[nodiscard]] std::shared_ptr<Transport> or_in_memory(std::shared_ptr<Transport> t,
                                                      int nranks) {
  if (t) return t;
  return std::make_shared<InMemoryTransport>(nranks);
}

/// Wire form of the cluster clock (kTagClock broadcast on restart).
[[nodiscard]] std::vector<float> pack_clock(double time, long steps) {
  std::vector<std::uint8_t> b;
  io::put_bytes(b, time);
  io::put_bytes(b, static_cast<std::int64_t>(steps));
  return pack_bytes(b);
}

[[nodiscard]] io::CheckpointClock unpack_clock(const std::vector<float>& msg) {
  const std::vector<std::uint8_t> b = unpack_bytes(msg);
  io::Cursor cur(b);
  io::CheckpointClock clock;
  clock.time = cur.get<double>();
  clock.steps = static_cast<long>(cur.get<std::int64_t>());
  return clock;
}

/// Wire form of one rank's collective-dump contribution (kTagDump):
/// the exscan offset, the encoder's level count, and the streams.
[[nodiscard]] std::vector<float> pack_rank_streams(const compression::RankStreams& part,
                                                   int levels) {
  std::vector<std::uint8_t> b;
  io::put_bytes(b, part.offset);
  io::put_bytes(b, static_cast<std::int32_t>(levels));
  io::put_bytes(b, static_cast<std::uint64_t>(part.streams.size()));
  for (const auto& s : part.streams) {
    io::put_bytes(b, static_cast<std::uint64_t>(s.block_ids.size()));
    io::put_bytes(b, static_cast<std::uint64_t>(s.data.size()));
    io::put_bytes(b, s.raw_bytes);
    // mpcf-lint: allow(reinterpret-cast): block-id array serialized as raw little-endian bytes
    const auto* ids = reinterpret_cast<const std::uint8_t*>(s.block_ids.data());
    b.insert(b.end(), ids, ids + s.block_ids.size() * sizeof(std::uint32_t));
    b.insert(b.end(), s.data.begin(), s.data.end());
  }
  return pack_bytes(b);
}

[[nodiscard]] compression::RankStreams unpack_rank_streams(int rank,
                                                           const std::vector<float>& msg,
                                                           int* levels) {
  const std::vector<std::uint8_t> b = unpack_bytes(msg);
  io::Cursor cur(b);
  compression::RankStreams part;
  part.rank = rank;
  part.offset = cur.get<std::uint64_t>();
  *levels = cur.get<std::int32_t>();
  const std::uint64_t nstreams = cur.get<std::uint64_t>();
  part.streams.resize(nstreams);
  for (auto& s : part.streams) {
    const std::uint64_t nids = cur.get<std::uint64_t>();
    const std::uint64_t ndata = cur.get<std::uint64_t>();
    s.raw_bytes = cur.get<std::uint64_t>();
    s.block_ids.resize(nids);
    cur.read(s.block_ids.data(), nids * sizeof(std::uint32_t));
    s.data.resize(ndata);
    cur.read(s.data.data(), ndata);
  }
  return part;
}

}  // namespace

ClusterSimulation::ClusterSimulation(int gbx, int gby, int gbz, int bs,
                                     CartTopology topo, Simulation::Params params)
    : ClusterSimulation(gbx, gby, gbz, bs, topo, params, nullptr) {}

ClusterSimulation::ClusterSimulation(int gbx, int gby, int gbz, int bs,
                                     CartTopology topo, Simulation::Params params,
                                     std::shared_ptr<Transport> transport)
    : topo_(topo), comm_(or_in_memory(std::move(transport), topo.size())), bs_(bs),
      gbx_(gbx), gby_(gby), gbz_(gbz), global_bc_(params.bc) {
  require(comm_.size() == topo.size(),
          "ClusterSimulation: transport rank count does not match the topology");
  require(gbx % topo.rx == 0 && gby % topo.ry == 0 && gbz % topo.rz == 0,
          "ClusterSimulation: block grid must divide evenly across ranks");
  for (int a = 0; a < 3; ++a)
    require(global_bc_.face[a][0] != BCType::kPeriodic ||
                global_bc_.face[a][1] == BCType::kPeriodic,
            "ClusterSimulation: periodic BCs must be two-sided");

  local_ = comm_.local_ranks();
  require(!local_.empty(), "ClusterSimulation: transport drives no local rank");

  const int lbx = gbx / topo.rx, lby = gby / topo.ry, lbz = gbz / topo.rz;
  const double rank_extent = params.extent * lbx / gbx;

  sims_.resize(topo.size());
  boxes_.resize(topo.size());
  interior_.resize(topo.size());
  halo_.resize(topo.size());
  halo_slabs_.resize(topo.size());

  // Geometry exists for every rank (gather/scatter address remote boxes);
  // node-layer state only for the local ones.
  for (int r = 0; r < topo.size(); ++r) {
    int cx, cy, cz;
    topo.coords(r, cx, cy, cz);
    boxes_[r] = RankBox{cx * lbx * bs, cy * lby * bs, cz * lbz * bs,
                        lbx * bs, lby * bs, lbz * bs};
  }

  for (const int r : local_) {
    int cx, cy, cz;
    topo.coords(r, cx, cy, cz);

    // Rank-local BCs: global BCs survive only on faces that lie on the
    // global boundary; interior faces are absorbing. The lab reads the ghosts
    // beyond every face with a neighbour from that face's halo slab, so the
    // rank BC serves only faces without one (and the edge and corner ghosts
    // no axis-aligned sweep reads).
    Simulation::Params rp = params;
    rp.extent = rank_extent;
    const int coords[3] = {cx, cy, cz};
    const int extents[3] = {topo.rx, topo.ry, topo.rz};
    for (int a = 0; a < 3; ++a) {
      if (coords[a] != 0) rp.bc.face[a][0] = BCType::kAbsorbing;
      if (coords[a] != extents[a] - 1) rp.bc.face[a][1] = BCType::kAbsorbing;
    }
    sims_[r] = std::make_unique<Simulation>(lbx, lby, lbz, bs, rp);
    sims_[r]->set_halo(&halo_slabs_[r]);

    // Halo/interior split of the local blocks.
    const bool periodic[3] = {global_bc_.face[0][0] == BCType::kPeriodic,
                              global_bc_.face[1][0] == BCType::kPeriodic,
                              global_bc_.face[2][0] == BCType::kPeriodic};
    const Grid& g = sims_[r]->grid();
    for (int i = 0; i < g.block_count(); ++i) {
      int bxc, byc, bzc;
      g.indexer().coords(i, bxc, byc, bzc);
      const int bcoord[3] = {bxc, byc, bzc};
      const int bext[3] = {lbx, lby, lbz};
      bool is_halo_block = false;
      for (int a = 0; a < 3 && !is_halo_block; ++a) {
        if (bcoord[a] == 0 && topo_.neighbor(r, a, 0, periodic[a]) >= 0)
          is_halo_block = true;
        if (bcoord[a] == bext[a] - 1 && topo_.neighbor(r, a, 1, periodic[a]) >= 0)
          is_halo_block = true;
      }
      (is_halo_block ? halo_[r] : interior_[r]).push_back(i);
    }
  }
}

Simulation& ClusterSimulation::rank_sim(int r) {
  require(r >= 0 && r < topo_.size() && sims_[r] != nullptr,
          "ClusterSimulation::rank_sim: rank " + std::to_string(r) +
              " is not local to this process");
  return *sims_[r];
}

const Simulation& ClusterSimulation::rank_sim(int r) const {
  require(r >= 0 && r < topo_.size() && sims_[r] != nullptr,
          "ClusterSimulation::rank_sim: rank " + std::to_string(r) +
              " is not local to this process");
  return *sims_[r];
}

void ClusterSimulation::pack_rank_sends(int r) {
  perf::TraceSpan span(tracer_, perf::TracePhase::kExchange, r);
  const bool periodic[3] = {global_bc_.face[0][0] == BCType::kPeriodic,
                            global_bc_.face[1][0] == BCType::kPeriodic,
                            global_bc_.face[2][0] == BCType::kPeriodic};
  const Grid& g = sims_[r]->grid();
  const int n[3] = {boxes_[r].nx, boxes_[r].ny, boxes_[r].nz};
  for (int a = 0; a < 3; ++a)
    for (int s = 0; s < 2; ++s) {
      const int nr = topo_.neighbor(r, a, s, periodic[a]);
      if (nr < 0) continue;
      // Pack this rank's boundary layers on side s of axis a.
      int dims[3] = {n[0], n[1], n[2]};
      dims[a] = kGhosts;
      std::vector<float> msg(static_cast<std::size_t>(dims[0]) * dims[1] * dims[2] *
                             kNumQuantities);
      std::size_t o = 0;
      for (int k = 0; k < dims[2]; ++k)
        for (int j = 0; j < dims[1]; ++j)
          for (int i = 0; i < dims[0]; ++i) {
            int lc[3] = {i, j, k};
            lc[a] = s == 0 ? lc[a] : n[a] - kGhosts + lc[a];
            const Cell& cell = g.cell(lc[0], lc[1], lc[2]);
            for (int q = 0; q < kNumQuantities; ++q) msg[o++] = cell.q(q);
          }
      // The receiver sees this data on its side (1-s) of axis a, in the
      // current stage's epoch.
      comm_.send(r, nr, halo_tag(a, 1 - s, epoch_), std::move(msg));
    }
}

void ClusterSimulation::post_halo_sends() {
  // All local sends, in rank order (non-blocking in the paper; enqueued here).
  for (const int r : local_) pack_rank_sends(r);
}

void ClusterSimulation::unpack_halo_slab(int r, int axis, int side,
                                         const std::vector<float>& msg) {
  const int n[3] = {boxes_[r].nx, boxes_[r].ny, boxes_[r].nz};
  int dims[3] = {n[0], n[1], n[2]};
  dims[axis] = kGhosts;
  auto& slab = halo_slabs_[r][axis * 2 + side];
  slab.resize(static_cast<std::size_t>(dims[0]) * dims[1] * dims[2]);
  require(msg.size() == slab.size() * kNumQuantities,
          "exchange_halos: message size mismatch");
  std::size_t o = 0;
  for (auto& cell : slab)
    for (int q = 0; q < kNumQuantities; ++q) cell.q(q) = msg[o++];
}

void ClusterSimulation::drain_halos(int r) {
  struct Face {
    int axis, side, nr;
  };
  const bool periodic[3] = {global_bc_.face[0][0] == BCType::kPeriodic,
                            global_bc_.face[1][0] == BCType::kPeriodic,
                            global_bc_.face[2][0] == BCType::kPeriodic};
  std::vector<Face> pending;
  for (int a = 0; a < 3; ++a)
    for (int s = 0; s < 2; ++s) {
      const int nr = topo_.neighbor(r, a, s, periodic[a]);
      if (nr >= 0) pending.push_back(Face{a, s, nr});
    }

  // Arrival-order drain: atomically pop whichever face already has its slab
  // (try_recv — a probe/recv pair would race against concurrent drains of
  // the same flow), and block — visibly, as a kWait span — only when nothing
  // is deliverable. The blocking recv carries the transport timeout, so a
  // lost message is a diagnosed TransportError, never a silent hang.
  std::vector<float> msg;
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t i = 0; i < pending.size();) {
      const Face f = pending[i];
      if (comm_.try_recv(f.nr, r, halo_tag(f.axis, f.side, epoch_), msg)) {
        unpack_halo_slab(r, f.axis, f.side, msg);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
      } else {
        ++i;
      }
    }
    if (!progressed && !pending.empty()) {
      const Face f = pending.front();
      perf::TraceSpan span(tracer_, perf::TracePhase::kWait, r);
      unpack_halo_slab(r, f.axis, f.side,
                       comm_.recv(f.nr, r, halo_tag(f.axis, f.side, epoch_)));
      pending.erase(pending.begin());
    }
  }
}

void ClusterSimulation::exchange_halos() {
  Timer timer;
  ++epoch_;
  post_halo_sends();
  for (const int r : local_) {
    perf::TraceSpan span(tracer_, perf::TracePhase::kExchange, r);
    drain_halos(r);
  }
  const double sec = timer.seconds();
  comm_time_ += sec;
  comm_work_time_ += sec;
  comm_.add_stall_time(sec);
}

double ClusterSimulation::compute_dt() {
  std::vector<double> vmax;
  vmax.reserve(local_.size());
  for (const int r : local_) {
    perf::TraceSpan span(tracer_, perf::TracePhase::kReduce, r);
    const double dt_r = sims_[r]->compute_dt();
    vmax.push_back(sims_[r]->params().cfl * sims_[r]->grid().h() / dt_r);
  }
  const double gmax = comm_.allreduce_max(vmax);
  return front_sim().params().cfl * front_sim().grid().h() / gmax;
}

void ClusterSimulation::ensure_stage_graph(bool with_comm) {
  if (stage_sched_ && graph_with_comm_ == with_comm) return;
  plan_ranks_ = local_;
  plan_is_halo_.clear();
  std::vector<StepScheduler::ClusterPlan> plans;
  plans.reserve(local_.size());
  for (const int r : local_) {
    std::vector<char> is_halo(sims_[r]->grid().block_count(), 0);
    for (const int b : halo_[r]) is_halo[b] = 1;
    plan_is_halo_.push_back(std::move(is_halo));
    StepScheduler::ClusterPlan p;
    p.topo = &sims_[r]->step_topology();
    p.halo_blocks = halo_[r];
    // The sent face slabs are kGhosts cell layers deep, so (every valid
    // block size is >= kGhosts) the packs read exactly the halo blocks' cells.
    p.pack_reads = halo_[r];
    plans.push_back(std::move(p));
  }
  if (!stage_sched_) stage_sched_ = std::make_unique<StepScheduler>();
  stage_sched_->build_cluster_graph(plans, with_comm);
  graph_with_comm_ = with_comm;
}

void ClusterSimulation::advance_stage(int stage, double dt) {
  const double a = LsRk3::a[stage];
  const double b_dt = LsRk3::b[stage] * dt;
  const bool final_stage = stage == LsRk3::kStages - 1;
  if (overlap_) {
    ++epoch_;  // pack/drain tasks run inside the graph under this epoch
  } else {
    exchange_halos();  // exchange-first plan: comm up front, graph comm-free
  }

  StepScheduler::Hooks hooks;
  hooks.lab = [this](int, int plan, int block, int tid) {
    const int r = plan_ranks_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kLab, r);
    sims_[r]->assemble_lab(block, tid);
  };
  hooks.rhs = [this, a](int, int plan, int block, int tid) {
    const int r = plan_ranks_[static_cast<std::size_t>(plan)];
    // Two same-interval spans: the block's membership (interior vs halo,
    // what bench_overlap and the Cluster tracer tests aggregate) plus the
    // kRhs phase, whose total is the stage's pure RHS time.
    const bool halo = plan_is_halo_[static_cast<std::size_t>(plan)][block] != 0;
    perf::TraceSpan membership(
        tracer_, halo ? perf::TracePhase::kHalo : perf::TracePhase::kInterior, r);
    perf::TraceSpan span(tracer_, perf::TracePhase::kRhs, r);
    sims_[r]->rhs_from_lab(a, block, tid);
  };
  hooks.update = [this, b_dt, final_stage](int, int plan, int block, int) {
    const int r = plan_ranks_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kUpdate, r);
    sims_[r]->update_one(b_dt, block);
    // Every consumer lab (and the pack, if any) has read the block: clamp.
    if (final_stage) (void)sims_[r]->clamp_one(block);
  };
  if (final_stage)
    hooks.sos = [this](int plan, int block, double& acc) {
      sims_[plan_ranks_[static_cast<std::size_t>(plan)]]->accumulate_block_speed(block, acc);
    };
  hooks.pack = [this](int plan) {
    pack_rank_sends(plan_ranks_[static_cast<std::size_t>(plan)]);  // traced kExchange
  };
  hooks.drain = [this](int plan) {
    const int r = plan_ranks_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kHalo, r);
    drain_halos(r);
  };

  std::vector<double> vmax;
  std::vector<StepScheduler::PlanTimes> times;
  Timer region;
  stage_sched_->run(hooks, omp_get_max_threads(), &vmax, &times);
  const double wall = region.seconds();

  // The step loop never blocked on in-graph comm (comm_time_ untouched on
  // the overlap plan), the in-region pack/drain thread-seconds go to
  // comm_work_time_, and the region wall clock is split across the rank
  // profiles in proportion to their in-region thread-seconds so profile
  // totals keep their meaning.
  double comm_secs = 0, total = 0;
  for (const StepScheduler::PlanTimes& t : times) {
    comm_secs += t.pack + t.drain;
    total += t.lab + t.rhs + t.up + t.sos + t.pack + t.drain;
  }
  comm_work_time_ += comm_secs;
  for (std::size_t p = 0; p < plan_ranks_.size(); ++p) {
    const StepScheduler::PlanTimes& t = times[p];
    StepProfile& prof = sims_[plan_ranks_[p]]->profile();
    prof.lab += t.lab;
    if (total > 0) {
      prof.rhs += wall * (t.lab + t.rhs) / total;
      prof.up += wall * t.up / total;
      prof.dt += wall * t.sos / total;
    }
  }
  if (final_stage)
    for (std::size_t p = 0; p < plan_ranks_.size(); ++p)
      sims_[plan_ranks_[p]]->cache_step_vmax(vmax[p]);
}

void ClusterSimulation::advance(double dt) {
  for (const int r : local_) sims_[r]->ensure_thread_workspaces();
  ensure_stage_graph(overlap_);
  for (int s = 0; s < LsRk3::kStages; ++s) advance_stage(s, dt);
  time_ += dt;
  ++steps_;
}

double ClusterSimulation::step() {
  const double dt = compute_dt();
  advance(dt);
  return dt;
}

namespace {

/// Copies a rank box between a global grid and a dense float message
/// (x-fastest, kNumQuantities per cell — the kTagGather/kTagScatter wire
/// form).
void box_to_msg(const Grid& g, int ox, int oy, int oz, int nx, int ny, int nz,
                std::vector<float>& msg) {
  msg.resize(static_cast<std::size_t>(nx) * ny * nz * kNumQuantities);
  std::size_t o = 0;
  for (int iz = 0; iz < nz; ++iz)
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix) {
        const Cell& c = g.cell(ox + ix, oy + iy, oz + iz);
        for (int q = 0; q < kNumQuantities; ++q) msg[o++] = c.q(q);
      }
}

void msg_to_box(Grid& g, int ox, int oy, int oz, int nx, int ny, int nz,
                const std::vector<float>& msg) {
  require(msg.size() == static_cast<std::size_t>(nx) * ny * nz * kNumQuantities,
          "ClusterSimulation: rank box message size mismatch");
  std::size_t o = 0;
  for (int iz = 0; iz < nz; ++iz)
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix) {
        Cell& c = g.cell(ox + ix, oy + iy, oz + iz);
        for (int q = 0; q < kNumQuantities; ++q) c.q(q) = msg[o++];
      }
}

}  // namespace

void ClusterSimulation::gather(Grid& global) const {
  require(global.cells_x() == gbx_ * bs_ && global.cells_y() == gby_ * bs_ &&
              global.cells_z() == gbz_ * bs_,
          "gather: global grid shape mismatch");
  for (const int r : local_) {
    const RankBox& box = boxes_[r];
    const Grid& g = sims_[r]->grid();
    for (int iz = 0; iz < box.nz; ++iz)
      for (int iy = 0; iy < box.ny; ++iy)
        for (int ix = 0; ix < box.nx; ++ix)
          global.cell(box.ox + ix, box.oy + iy, box.oz + iz) = g.cell(ix, iy, iz);
  }
  if (static_cast<int>(local_.size()) == topo_.size()) return;

  // Multi-process: remote boxes converge on rank 0 through the transport.
  if (comm_.is_local(0)) {
    std::vector<float> msg;
    for (int r = 0; r < topo_.size(); ++r) {
      if (comm_.is_local(r)) continue;
      msg = comm_.recv(r, 0, kTagGather);
      const RankBox& box = boxes_[r];
      msg_to_box(global, box.ox, box.oy, box.oz, box.nx, box.ny, box.nz, msg);
    }
  } else {
    std::vector<float> msg;
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      box_to_msg(sims_[r]->grid(), 0, 0, 0, box.nx, box.ny, box.nz, msg);
      comm_.send(r, 0, kTagGather, msg);
    }
  }
}

void ClusterSimulation::scatter(const Grid& global) {
  if (comm_.is_local(0)) {
    require(global.cells_x() == gbx_ * bs_ && global.cells_y() == gby_ * bs_ &&
                global.cells_z() == gbz_ * bs_,
            "scatter: global grid shape mismatch");
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      Grid& g = sims_[r]->grid();
      for (int iz = 0; iz < box.nz; ++iz)
        for (int iy = 0; iy < box.ny; ++iy)
          for (int ix = 0; ix < box.nx; ++ix)
            g.cell(ix, iy, iz) = global.cell(box.ox + ix, box.oy + iy, box.oz + iz);
    }
    std::vector<float> msg;
    for (int r = 0; r < topo_.size(); ++r) {
      if (comm_.is_local(r)) continue;
      const RankBox& box = boxes_[r];
      box_to_msg(global, box.ox, box.oy, box.oz, box.nx, box.ny, box.nz, msg);
      comm_.send(0, r, kTagScatter, msg);
    }
  } else {
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      const std::vector<float> msg = comm_.recv(0, r, kTagScatter);
      msg_to_box(sims_[r]->grid(), 0, 0, 0, box.nx, box.ny, box.nz, msg);
    }
  }
  // Scatter replaced the state any folded step vmax was computed from.
  for (const int r : local_) sims_[r]->invalidate_speed_cache();
}

std::uint64_t ClusterSimulation::save_checkpoint(const std::string& path) const {
  const double extent = front_sim().grid().h() * gbx_ * bs_;
  Grid global(gbx_, gby_, gbz_, bs_, extent);
  gather(global);
  std::uint64_t bytes = 0;
  if (comm_.is_local(0)) bytes = io::save_grid_checkpoint(path, global, time_, steps_);
  if (static_cast<int>(local_.size()) == topo_.size()) return bytes;
  // Multi-process: the reduction both publishes root's byte count and acts
  // as the barrier that makes the committed file visible before any rank
  // returns.
  std::vector<double> contrib(local_.size(), 0.0);
  for (std::size_t i = 0; i < local_.size(); ++i)
    if (local_[i] == 0) contrib[i] = static_cast<double>(bytes);
  return static_cast<std::uint64_t>(comm_.allreduce_max(contrib));
}

void ClusterSimulation::load_checkpoint(const std::string& path) {
  const double extent = front_sim().grid().h() * gbx_ * bs_;
  Grid global(gbx_, gby_, gbz_, bs_, extent);
  io::CheckpointClock clock;
  const bool in_process = static_cast<int>(local_.size()) == topo_.size();
  if (comm_.is_local(0)) {
    clock = io::load_grid_checkpoint(path, global);
    if (!in_process)
      for (int r = 0; r < topo_.size(); ++r)
        if (!comm_.is_local(r))
          comm_.send(0, r, kTagClock, pack_clock(clock.time, clock.steps));
  } else {
    clock = unpack_clock(comm_.recv(0, local_.front(), kTagClock));
  }
  scatter(global);
  for (const int r : local_) sims_[r]->restore_clock(clock.time, clock.steps);
  time_ = clock.time;
  steps_ = clock.steps;
  // epoch_ deliberately survives: restarting to an earlier step must never
  // regress halo tags (the MPCF_CHECKED monotonicity guard would trip, and
  // an in-flight late message could alias a re-run stage).
}

std::string ClusterSimulation::save_checkpoint_rotating(io::CheckpointRotator& rot) {
  perf::TraceSpan span(tracer_, perf::TracePhase::kCheckpoint, 0);
  return rot.save(steps_,
                  [this](const std::string& path) { save_checkpoint(path); });
}

std::string ClusterSimulation::load_latest_valid_checkpoint(
    io::CheckpointRotator& rot, std::vector<std::string>* skipped) {
  // One kCheckpoint span per attempt: corrupt files the recovery scan had
  // to skip show up as extra (short) spans in the trace.
  return rot.load_latest_valid(
      [this](const std::string& path) {
        perf::TraceSpan span(tracer_, perf::TracePhase::kCheckpoint, 0);
        load_checkpoint(path);
      },
      skipped);
}

Diagnostics ClusterSimulation::diagnostics(double G_vapor, double G_liquid) const {
  std::vector<Diagnostics> per;
  per.reserve(local_.size());
  for (const int r : local_) per.push_back(sims_[r]->diagnostics(G_vapor, G_liquid));

  Diagnostics total;
  if (static_cast<int>(local_.size()) == topo_.size()) {
    for (const Diagnostics& d : per) {
      total.max_p_field = std::max(total.max_p_field, d.max_p_field);
      total.max_p_wall = std::max(total.max_p_wall, d.max_p_wall);
      total.kinetic_energy += d.kinetic_energy;
      total.total_energy += d.total_energy;
      total.mass += d.mass;
      total.vapor_volume += d.vapor_volume;
    }
  } else {
    // Multi-process: component-wise collectives; the rank-order sum keeps
    // the result bitwise-identical to the in-process accumulation.
    const auto field = [&](double Diagnostics::* m) {
      std::vector<double> v(per.size());
      for (std::size_t i = 0; i < per.size(); ++i) v[i] = per[i].*m;
      return v;
    };
    total.max_p_field = comm_.allreduce_max(field(&Diagnostics::max_p_field));
    total.max_p_wall = comm_.allreduce_max(field(&Diagnostics::max_p_wall));
    total.kinetic_energy = comm_.allreduce_sum(field(&Diagnostics::kinetic_energy));
    total.total_energy = comm_.allreduce_sum(field(&Diagnostics::total_energy));
    total.mass = comm_.allreduce_sum(field(&Diagnostics::mass));
    total.vapor_volume = comm_.allreduce_sum(field(&Diagnostics::vapor_volume));
  }
  total.equivalent_radius = std::cbrt(3.0 * total.vapor_volume / (4.0 * M_PI));
  return total;
}

compression::CompressedQuantity ClusterSimulation::compress_collective(
    const compression::CompressionParams& params,
    std::vector<compression::WorkerTimes>* times) {
  compression::CompressedQuantity global;
  global.bx = gbx_;
  global.by = gby_;
  global.bz = gbz_;
  global.block_size = bs_;
  global.eps = params.eps;
  global.derived_pressure = params.derive_pressure;
  global.quantity = params.quantity;
  // The header must name the entropy stage the streams were actually
  // encoded with — leaving the default here mislabels any non-zlib dump.
  global.coder = params.coder;

  const BlockIndexer gindex(gbx_, gby_, gbz_);
  std::vector<compression::RankStreams> parts;
  parts.reserve(local_.size());
  std::vector<std::uint64_t> local_bytes;
  local_bytes.reserve(local_.size());
  if (times) times->clear();

  for (const int r : local_) {
    perf::TraceSpan span(tracer_, perf::TracePhase::kDump, r);
    // Each rank compresses through the pipelined stage graph; its chunked
    // streams keep block-id order, so the remap below and the offset-ordered
    // assembly preserve the deterministic file layout.
    compression::PipelineStats rank_stats;
    auto cq = compression::compress_quantity_pipelined(sims_[r]->grid(), params,
                                                       times ? &rank_stats : nullptr);
    global.levels = cq.levels;
    int cx, cy, cz;
    topo_.coords(r, cx, cy, cz);
    const int obx = cx * (gbx_ / topo_.rx), oby = cy * (gby_ / topo_.ry),
              obz = cz * (gbz_ / topo_.rz);
    const BlockIndexer lindex(gbx_ / topo_.rx, gby_ / topo_.ry, gbz_ / topo_.rz);
    std::uint64_t bytes = 0;
    for (auto& stream : cq.streams) {
      for (auto& id : stream.block_ids) {
        int lx, ly, lz;
        lindex.coords(static_cast<int>(id), lx, ly, lz);
        id = static_cast<std::uint32_t>(gindex.linear(obx + lx, oby + ly, obz + lz));
      }
      bytes += stream.data.size();
    }
    parts.push_back(compression::RankStreams{r, 0, std::move(cq.streams)});
    local_bytes.push_back(bytes);
    if (times)
      times->insert(times->end(), rank_stats.worker_times.begin(),
                    rank_stats.worker_times.end());
  }

  // The collective write orders rank blobs by the exclusive prefix sum of
  // their encoded sizes (the MPI_Exscan of the paper): the scanned offsets
  // — not rank completion order — decide where each blob lands.
  const std::vector<std::uint64_t> offsets = comm_.exscan(local_bytes);
  for (std::size_t i = 0; i < parts.size(); ++i) parts[i].offset = offsets[i];

  if (static_cast<int>(local_.size()) == topo_.size()) {
    compression::assemble_collective(global, std::move(parts));
    return global;
  }

  // Multi-process: streams converge on rank 0 in arrival order; the scanned
  // offsets restore the file order during assembly.
  if (comm_.is_local(0)) {
    std::vector<float> msg;
    for (int r = 0; r < topo_.size(); ++r) {
      if (comm_.is_local(r)) continue;
      msg = comm_.recv(r, 0, kTagDump);
      int levels = 0;
      parts.push_back(unpack_rank_streams(r, msg, &levels));
      global.levels = levels;
    }
    compression::assemble_collective(global, std::move(parts));
  } else {
    for (const auto& part : parts)
      comm_.send(part.rank, 0, kTagDump, pack_rank_streams(part, global.levels));
  }
  return global;
}

std::uint64_t ClusterSimulation::dump_collective(
    const std::string& path, const compression::CompressionParams& params,
    std::vector<compression::WorkerTimes>* times) {
  const compression::CompressedQuantity global = compress_collective(params, times);
  // Only the process holding the assembled streams writes; the two-phase
  // aggregating writer turns the offset-ordered blobs into large aligned
  // writes (the collective dump of paper Section 6, single file per
  // quantity).
  if (!comm_.is_local(0)) return 0;
  return io::write_compressed(path, global);
}

StepProfile ClusterSimulation::profile() const {
  StepProfile total;
  for (const int r : local_) {
    const StepProfile& p = sims_[r]->profile();
    total.rhs += p.rhs;
    total.lab += p.lab;
    total.dt += p.dt;
    total.up += p.up;
    total.io += p.io;
    total.sos_sweeps += p.sos_sweeps;
  }
  total.steps = steps_;
  return total;
}

}  // namespace mpcf::cluster
