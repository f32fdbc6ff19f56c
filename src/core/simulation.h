// Node-layer simulation driver (paper Section 6): owns one rank's grid,
// schedules block work across threads through the dependency graph of
// core/step_scheduler (one block as the unit of work, per-thread ghost
// buffers, no grid-wide barrier inside a step) and advances the
// solution with the third-order low-storage TVD Runge-Kutta scheme
// (Williamson, ref [80]) at CFL 0.3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/diagnostics.h"
#include "core/profile.h"
#include "core/step_scheduler.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "grid/lab.h"
#include "kernels/rhs.h"

namespace mpcf {

/// Williamson low-storage RK3 coefficients.
struct LsRk3 {
  static constexpr int kStages = 3;
  static constexpr double a[kStages] = {0.0, -5.0 / 9.0, -153.0 / 128.0};
  static constexpr double b[kStages] = {1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0};
};

class Simulation {
 public:
  struct Params {
    double cfl = 0.3;
    double extent = 1.0;  ///< domain x-extent [m]
    BoundaryConditions bc = BoundaryConditions::all(BCType::kAbsorbing);
    kernels::KernelImpl impl = kernels::KernelImpl::kSimdFused;
    /// Vector width of the kSimd*/kSimdFused kernels: kAuto picks the widest
    /// backend the build + host support (env MPCF_SIMD_WIDTH overrides).
    simd::Width width = simd::Width::kAuto;
    int weno_order = 5;  ///< 5 = production WENO5; 3 = low-order ablation
    /// Positivity guard, applied inside each final-stage update: floors for
    /// density and pressure keep marginally-resolved collapses (few cells
    /// per radius) from going NaN. The paper runs at 50+ points per radius
    /// and does not need this; at reproduction scale we do. Set floors <= 0
    /// to disable.
    double rho_floor = 1e-3;
    double p_floor = 1.0;
    /// Cells clamped so far (counted by clamp_one; diagnostic only).
    long clamped_cells = 0;
  };

  /// Throws PreconditionError unless kernels::valid_block_size(bs): the RHS
  /// workspace's vector rows need a multiple of 4, and the step graph's
  /// block topology needs a block's ghosts to come from its face neighbours.
  Simulation(int bx, int by, int bz, int bs, Params params);
  Simulation(int bx, int by, int bz, int bs);  // default Params

  [[nodiscard]] Grid& grid() noexcept { return grid_; }
  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] double time() const noexcept { return time_; }
  [[nodiscard]] long step_count() const noexcept { return profile_.steps; }

  /// Restores the simulation clock (used by checkpoint restart). Also drops
  /// any folded step vmax: restart state invalidates it.
  void restore_clock(double time, long steps) noexcept {
    time_ = time;
    profile_.steps = steps;
    invalidate_speed_cache();
  }

  /// DT kernel: global reduction of the maximum characteristic velocity.
  [[nodiscard]] double compute_dt();

  /// Advances one step of the given size: the three RK stages run as one
  /// dependency-scheduled block graph (DESIGN.md §14); each block's
  /// final-stage update also applies the positivity guard and folds the next
  /// step's SOS reduction. A cluster rank (halo slabs set) is stepped by its
  /// ClusterSimulation instead.
  void advance(double dt);

  /// compute_dt + advance; returns the dt taken.
  double step();

  /// Points the lab assembly at a cluster rank's received face slabs
  /// (non-owning; the ClusterSimulation keeps them alive and refills them
  /// each stage). Ghosts beyond a face with a non-empty slab read it; all
  /// others fold through params().bc.
  void set_halo(const HaloSlabs* halo) noexcept { halo_ = halo; }

  /// Grows the per-thread lab/workspace arrays to omp_get_max_threads().
  /// Called by advance (serial context), so raising the OpenMP thread count
  /// after construction is safe; callers that drive the per-block hooks
  /// below from their own parallel regions call it first. Must not be
  /// called concurrently with block evaluations.
  void ensure_thread_workspaces();

  // --- Per-block step hooks (StepScheduler hooks; also driven by the
  // --- cluster layer's stage graphs). At most omp_get_max_threads()
  // --- distinct threads, ensure_thread_workspaces() from serial context first.

  /// Assembles the ghost lab of `block_id` into thread `tid`'s lab buffer.
  void assemble_lab(int block_id, int tid);
  /// Evaluates the RHS of `block_id` from the lab thread `tid` just
  /// assembled (accumulator tmp <- a*tmp + RHS).
  void rhs_from_lab(double a_coeff, int block_id, int tid);
  /// RK update of one block: data += b_dt * tmp.
  void update_one(double b_dt, int block_id);
  /// Positivity guard of one block (after its final-stage update, before
  /// its SOS fold): clamps its cells to the floors, adds the count to
  /// params().clamped_cells atomically and returns it; returns 0 without
  /// touching the block when both floors are <= 0.
  long clamp_one(int block_id);
  /// Folds `block_id`'s max characteristic speed into `acc`; compute_dt's
  /// fresh sweep makes the same call per block (max is order-independent,
  /// so a folded accumulation is bitwise-equal to the sweep's reduction).
  void accumulate_block_speed(int block_id, double& acc) const;
  /// Publishes a folded step vmax for the next compute_dt (one-shot cache;
  /// set by advance, consumed and cleared by compute_dt). Exposed for the
  /// cluster layer's stage driver.
  void cache_step_vmax(double vmax) noexcept {
    folded_vmax_ = vmax;
    folded_vmax_valid_ = true;
  }
  /// Drops the folded vmax; callers that mutate grid cells between an
  /// advance and the next compute_dt must call this (scatter and restarts
  /// do it automatically).
  void invalidate_speed_cache() noexcept { folded_vmax_valid_ = false; }

  /// Block readset/consumer tables of this grid under its BCs, built lazily
  /// (shared by the node step graph and the cluster layer's stage graphs).
  [[nodiscard]] const BlockTopology& step_topology();

#if MPCF_CHECKED
  /// Scans one block's post-hook state — the RK accumulator after its RHS
  /// ("rhs"), the conserved state after its UPDATE ("update") — for
  /// non-finite values and non-positive density. The first offending cell
  /// is dumped as a mini-state repro file (block data + tmp, raw) and
  /// reported via CheckError with full provenance: phase, RK stage, step,
  /// block, cell, quantity.
  void verify_block(const char* phase, int stage, int block_id) const;
#endif

  /// Compressed data dump of pressure and Gamma (the paper's production
  /// dump set) to `<prefix>_p.cq` / `<prefix>_G.cq`; time is accounted to
  /// profile().io. Thresholds are absolute (pressure spans ~1e7 Pa, Gamma
  /// ~2.3). Returns the combined compression rate.
  double dump(const std::string& prefix, float eps_p = 1e5f, float eps_G = 2.3e-3f);

  [[nodiscard]] Diagnostics diagnostics(double G_vapor, double G_liquid) const {
    return compute_diagnostics(grid_, params_.bc, G_vapor, G_liquid);
  }

  [[nodiscard]] StepProfile& profile() noexcept { return profile_; }
  [[nodiscard]] const StepProfile& profile() const noexcept { return profile_; }

  /// Analytic FLOPs performed by one full step (for GFLOP/s reporting).
  [[nodiscard]] double flops_per_step() const;

 private:
  /// Lazily builds the node-layer step graph.
  void ensure_step_graph();

  Grid grid_;
  Params params_;
  double time_ = 0;
  std::vector<BlockLab> labs_;              // one per thread
  std::vector<kernels::RhsWorkspace> ws_;   // one per thread
  const HaloSlabs* halo_ = nullptr;  ///< cluster rank's face slabs, or null
  StepProfile profile_;
  std::unique_ptr<BlockTopology> step_topo_;  // lazily built
  std::unique_ptr<StepScheduler> sched_;      // node-layer step graph
  double folded_vmax_ = 0;          ///< one-shot folded SOS result
  bool folded_vmax_valid_ = false;  ///< consumed by the next compute_dt
};

}  // namespace mpcf
