#include "core/simulation.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string_view>

#include "common/check.h"
#include "compression/pipeline.h"
#include "eos/stiffened_gas.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"
#include "kernels/sos.h"
#include "kernels/update.h"

namespace mpcf {

Simulation::Simulation(int bx, int by, int bz, int bs)
    : Simulation(bx, by, bz, bs, Params{}) {}

Simulation::Simulation(int bx, int by, int bz, int bs, Params params)
    : grid_(bx, by, bz, bs, params.extent), params_(params) {
  require(kernels::valid_block_size(bs),
          "Simulation: block size " + std::to_string(bs) + " is not a positive multiple of 4");
  ensure_thread_workspaces();
}

void Simulation::ensure_thread_workspaces() {
  // Sized lazily (not once at construction) so a thread count raised via
  // omp_set_num_threads() after construction still gets dedicated buffers.
  const int nthreads = omp_get_max_threads();
  const int have = static_cast<int>(labs_.size());
  if (nthreads <= have) return;
  labs_.resize(nthreads);
  ws_.resize(nthreads);
  for (int t = have; t < nthreads; ++t) {
    labs_[t].resize(grid_.block_size());
    ws_[t].resize(grid_.block_size());
  }
}

double Simulation::compute_dt() {
  Timer timer;
  double vmax = 0;
  if (folded_vmax_valid_) {
    // advance already folded this reduction into its final-stage updates;
    // consume the cached maximum instead of sweeping the grid again.
    // One-shot: any later mutation of the state must go through a fresh
    // sweep.
    vmax = folded_vmax_;
    folded_vmax_valid_ = false;
  } else {
#pragma omp parallel for schedule(static) reduction(max : vmax)
    for (int i = 0; i < grid_.block_count(); ++i) accumulate_block_speed(i, vmax);
    ++profile_.sos_sweeps;
  }
  profile_.dt += timer.seconds();
  require(vmax > 0, "compute_dt: zero maximum characteristic velocity");
  return params_.cfl * grid_.h() / vmax;
}

void Simulation::assemble_lab(int block_id, int tid) {
  require(tid >= 0 && tid < static_cast<int>(labs_.size()),
          "Simulation: more threads than per-thread labs");
  BlockLab& lab = labs_[tid];
  int bx, by, bz;
  grid_.indexer().coords(block_id, bx, by, bz);
  // Bulk assembly: ghosts fold through the BCs per axis entry; on a cluster
  // rank the fold tables route the ghosts beyond a neighbour to its slab.
  lab.load(grid_, bx, by, bz, params_.bc, halo_);
#if MPCF_CHECKED
  // The step graph's counters are seeded from BlockTopology::readset;
  // cross-validate that the lab's fold tables never referenced a block the
  // topology missed (a miss would mean an unsynchronized read).
  if (step_topo_) {
    thread_local std::vector<int> reads;
    lab.read_block_set(grid_.indexer(), reads);
    const auto rs = step_topo_->readset(block_id);
    MPCF_CHECK(std::includes(rs.begin(), rs.end(), reads.begin(), reads.end()),
               "Simulation: lab read a block outside its topology readset, block " +
                   std::to_string(block_id));
  }
#endif
}

void Simulation::rhs_from_lab(double a_coeff, int block_id, int tid) {
  kernels::rhs_block(labs_[tid], static_cast<Real>(grid_.h()),
                     static_cast<Real>(a_coeff), grid_.block(block_id), ws_[tid],
                     params_.impl, params_.weno_order, params_.width);
}

void Simulation::update_one(double b_dt, int block_id) {
  if (params_.impl != kernels::KernelImpl::kScalar)
    kernels::update_block_simd(grid_.block(block_id), static_cast<Real>(b_dt),
                               params_.width);
  else
    kernels::update_block(grid_.block(block_id), static_cast<Real>(b_dt));
}

void Simulation::accumulate_block_speed(int block_id, double& acc) const {
  const Block& b = grid_.block(block_id);
  acc = std::max(acc, params_.impl != kernels::KernelImpl::kScalar
                          ? kernels::block_max_speed_simd(b, params_.width)
                          : kernels::block_max_speed(b));
}

const BlockTopology& Simulation::step_topology() {
  if (!step_topo_)
    step_topo_ = std::make_unique<BlockTopology>(build_block_topology(
        grid_.indexer(), grid_.block_size(), kGhosts, params_.bc));
  return *step_topo_;
}

void Simulation::ensure_step_graph() {
  if (sched_) return;
  sched_ = std::make_unique<StepScheduler>();
  sched_->build_node_graph(step_topology(), LsRk3::kStages);
}

void Simulation::advance(double dt) {
  require(halo_ == nullptr,
          "Simulation::advance: a cluster rank is stepped by its ClusterSimulation");
  ensure_thread_workspaces();
  ensure_step_graph();

  StepScheduler::Hooks hooks;
  hooks.lab = [this](int, int, int block, int tid) { assemble_lab(block, tid); };
  hooks.rhs = [this](int stage, int, int block, int tid) {
    rhs_from_lab(LsRk3::a[stage], block, tid);
#if MPCF_CHECKED
    verify_block("rhs", stage, block);
#else
    (void)stage;
#endif
  };
  hooks.update = [this, dt](int stage, int, int block, int) {
    update_one(LsRk3::b[stage] * dt, block);
#if MPCF_CHECKED
    verify_block("update", stage, block);
#endif
    // Every consumer lab has copied the block and nothing reads it again
    // this step, so the guard clamps here, ahead of the SOS fold.
    if (stage == LsRk3::kStages - 1) (void)clamp_one(block);
  };
  hooks.sos = [this](int, int block, double& acc) { accumulate_block_speed(block, acc); };

  std::vector<double> vmax;
  std::vector<StepScheduler::PlanTimes> times;
  Timer region;
  sched_->run(hooks, omp_get_max_threads(), &vmax, &times);
  const double wall = region.seconds();

  // profile().lab keeps its thread-seconds meaning; the region wall clock is
  // split across the sweep categories in proportion to their thread-seconds,
  // so profile().total() still sums to elapsed step time.
  const StepScheduler::PlanTimes& t = times.front();
  profile_.lab += t.lab;
  const double work = t.lab + t.rhs + t.up + t.sos;
  if (work > 0) {
    profile_.rhs += wall * (t.lab + t.rhs) / work;
    profile_.up += wall * t.up / work;
    profile_.dt += wall * t.sos / work;
  }

  cache_step_vmax(vmax.front());
  time_ += dt;
  ++profile_.steps;
}

long Simulation::clamp_one(int block_id) {
  if (!(params_.rho_floor > 0 || params_.p_floor > 0)) return 0;
  const Real rfloor = static_cast<Real>(params_.rho_floor);
  const Real pfloor = static_cast<Real>(params_.p_floor);
  long clamped = 0;
  Block& b = grid_.block(block_id);
  Cell* cells = b.data();
  const std::size_t n = b.cells();
  for (std::size_t k = 0; k < n; ++k) {
    Cell& c = cells[k];
    bool touched = false;
    // Non-finite momenta poison the kinetic energy below; zero them.
    if (!std::isfinite(c.ru) || !std::isfinite(c.rv) || !std::isfinite(c.rw)) {
      c.ru = c.rv = c.rw = 0;
      touched = true;
    }
    if (!(c.rho > rfloor)) {
      c.rho = rfloor;
      touched = true;
    }
    if (!(c.G > 0)) {
      c.G = static_cast<Real>(materials::kVapor.Gamma());
      touched = true;
    }
    if (!(c.P >= 0)) {
      c.P = 0;
      touched = true;
    }
    const Real ke = 0.5f * (c.ru * c.ru + c.rv * c.rv + c.rw * c.rw) / c.rho;
    const Real p = (c.E - ke - c.P) / c.G;
    if (!(p > pfloor)) {  // catches NaN E as well
      c.E = c.G * pfloor + c.P + ke;
      touched = true;
    }
    if (touched) ++clamped;
  }
  if (clamped == 0) return 0;
  // order: relaxed — a pure event counter (blocks clamp concurrently); it is
  // read only outside the step, after the scheduler's region has joined.
  std::atomic_ref<long>(params_.clamped_cells).fetch_add(clamped, std::memory_order_relaxed);
  return clamped;
}

#if MPCF_CHECKED
void Simulation::verify_block(const char* phase, int stage, int b) const {
  const bool after_rhs = std::string_view(phase) == "rhs";
  const int bs = grid_.block_size();
  const Block& blk = grid_.block(b);
  // After RHS the invariant lives in the RK accumulator (finite fluxes);
  // after UPDATE it lives in the conserved state (finite + positive rho).
  const Cell* cells = after_rhs ? blk.tmp_data() : blk.data();
  const std::size_t n = blk.cells();
  for (std::size_t k = 0; k < n; ++k) {
      const Cell& c = cells[k];
      int bad_q = -1;
      for (int q = 0; q < kNumQuantities; ++q) {
        if (!std::isfinite(c.q(q))) {
          bad_q = q;
          break;
        }
      }
      if (bad_q < 0 && !after_rhs && !(c.rho > 0)) bad_q = Q_RHO;
      if (bad_q < 0) continue;

      const int ix = static_cast<int>(k) % bs;
      const int iy = (static_cast<int>(k) / bs) % bs;
      const int iz = static_cast<int>(k) / (bs * bs);
      std::string repro = "mpcf_repro_step" + std::to_string(profile_.steps) +
                          "_stage" + std::to_string(stage) + "_block" +
                          std::to_string(b) + ".bin";
      // Mini-state repro: enough to reload the offending block and re-run
      // the failing sweep in isolation (magic, provenance header, then the
      // block's conserved state and RK accumulator, raw).
      try {
        io::SafeFile f(repro);
        f.write("MPCFRPR1", 8);
        for (std::int32_t v : {b, bs, stage, after_rhs ? 0 : 1,
                               static_cast<std::int32_t>(bad_q)})
          f.put(v);
        f.put(static_cast<std::int64_t>(profile_.steps));
        f.put(time_);
        f.write(blk.data(), n * sizeof(Cell));
        f.write(blk.tmp_data(), n * sizeof(Cell));
        f.commit();
      } catch (const IoError&) {
        repro = "<repro dump failed>";
      }
      check::fail(__FILE__, __LINE__, after_rhs ? "finite(tmp)" : "finite(u) && rho>0",
                  "post-" + std::string(phase) + " state invalid: step " +
                      std::to_string(profile_.steps) + ", RK stage " +
                      std::to_string(stage) + ", block " + std::to_string(b) +
                      ", cell (" + std::to_string(ix) + "," + std::to_string(iy) +
                      "," + std::to_string(iz) + "), quantity " +
                      std::to_string(bad_q) + " = " +
                      std::to_string(c.q(bad_q)) + ", repro " + repro);
  }
}
#endif  // MPCF_CHECKED

double Simulation::step() {
  const double dt = compute_dt();
  advance(dt);
  return dt;
}

double Simulation::dump(const std::string& prefix, float eps_p, float eps_G) {
  Timer timer;
  compression::CompressionParams pg;
  pg.quantity = Q_G;
  pg.eps = eps_G;
  compression::PipelineStats sg;
  compression::dump_quantity_pipelined(grid_, pg, prefix + "_G.cq", &sg);

  compression::CompressionParams pp;
  pp.derive_pressure = true;
  pp.eps = eps_p;
  compression::PipelineStats sp;
  compression::dump_quantity_pipelined(grid_, pp, prefix + "_p.cq", &sp);
  profile_.io += timer.seconds();

  const double raw = static_cast<double>(sg.uncompressed_bytes) +
                     static_cast<double>(sp.uncompressed_bytes);
  const double comp = static_cast<double>(sg.compressed_bytes) +
                      static_cast<double>(sp.compressed_bytes);
  return comp > 0 ? raw / comp : 0.0;
}

double Simulation::flops_per_step() const {
  const int bs = grid_.block_size();
  const double nb = grid_.block_count();
  return nb * (kernels::sos_flops(bs) +
               LsRk3::kStages * (kernels::rhs_flops(bs) + kernels::update_flops(bs)));
}

}  // namespace mpcf
