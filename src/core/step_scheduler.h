// Per-block step pipeline (DESIGN.md §14): the block-granular
// dependency-driven task scheduler behind every step, node and cluster. Its
// conformance oracle is the staged RK3 of tests/reference_stepper.h.
//
// One kLabRhs task assembles a block's ghost lab and immediately evaluates
// its RHS on the same thread (cache-hot); one kUpdate task applies the RK
// update. Tasks become runnable when per-task atomic dependency counters
// reach zero — a block may be a full RK stage ahead of a slow neighbour, and
// no grid-wide barrier exists inside a step. The counter seeding makes the
// execution *bitwise identical* to staged sweeps: a block's lab waits
// for exactly the previous-stage updates of its readset (the blocks its
// assembly reads, BlockTopology), and a block's update waits for every
// consumer lab to have copied its data (fired eagerly after the lab portion
// of a kLabRhs task, before the RHS runs) plus the block's own RHS. Since
// per-block lab/RHS/update arithmetic is deterministic in the lab contents,
// any interleaving respecting those constraints reproduces the staged
// sweeps' result bit for bit. The final stage's update tasks fold the next
// step's SOS max-speed reduction (order-independent max) after the update
// hook, which also applies the positivity guard there, deleting the
// standalone seventh grid sweep from the steady-state step.
//
// Two graph shapes share the executor: the node-layer graph spans all RK
// stages of one step; the cluster-layer graph covers one stage across all
// local ranks and adds halo pack/drain tasks feeding the same counters
// (pack before any boundary-block update, halo-block labs after the drain).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "grid/sfc.h"

namespace mpcf {

class StepScheduler {
 public:
  /// Work callbacks; `tid` is the executing worker's dense thread id (stable
  /// for the lab -> rhs pair of one task, so per-thread labs carry over).
  struct Hooks {
    std::function<void(int stage, int plan, int block, int tid)> lab;
    std::function<void(int stage, int plan, int block, int tid)> rhs;
    std::function<void(int stage, int plan, int block, int tid)> update;
    /// Folds `block`'s max characteristic speed into `acc`; called after the
    /// update hook of each block in the graph's final stage. Optional: a
    /// cluster stage graph sets it only for the last RK stage.
    std::function<void(int plan, int block, double& acc)> sos;
    std::function<void(int plan)> pack;   ///< cluster graphs only
    std::function<void(int plan)> drain;  ///< cluster graphs only
  };

  /// Thread-seconds per hook category, accumulated per plan. The sum over
  /// categories is in-region work time; callers split the region wall clock
  /// proportionally to keep profile totals coherent.
  struct PlanTimes {
    double lab = 0, rhs = 0, up = 0, sos = 0, pack = 0, drain = 0;
  };

  /// One local rank's slice of a cluster stage graph.
  struct ClusterPlan {
    const BlockTopology* topo = nullptr;  ///< rank-local block topology
    std::vector<int> halo_blocks;  ///< labs gated on this plan's drain
    std::vector<int> pack_reads;   ///< blocks whose cells the pack sends
  };

  /// Node-layer graph: `stages` RK stages over one topology, cross-stage
  /// dependencies seeded as described above. run() executes one full step.
  void build_node_graph(const BlockTopology& topo, int stages);

  /// Cluster-layer graph: one RK stage over the given plans. With
  /// `with_comm`, per-plan pack/drain tasks carry the halo exchange inside
  /// the graph (packs seed first and gate the updates of the blocks they
  /// read; every drain waits on every local pack — all sends posted before
  /// any blocking receive, so two ranks can never sit in each other's
  /// blocking recv with their packs still queued — and gates the plan's
  /// halo-block labs). Without it the caller
  /// exchanges halos before each run() and no comm tasks exist.
  void build_cluster_graph(const std::vector<ClusterPlan>& plans, bool with_comm);

  [[nodiscard]] int task_count() const noexcept { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] int plan_count() const noexcept { return plan_count_; }

  /// Executes the current graph on `nthreads` workers (an OpenMP parallel
  /// region; per-thread work deques with chunked block->thread affinity,
  /// work-stealing from the front of a victim's deque). `vmax_per_plan`
  /// (may be null) receives the per-plan maxima folded by `hooks.sos` (0
  /// when it is unset). `times` (may be null) receives per-plan
  /// thread-seconds. The first hook exception aborts the run and is
  /// rethrown here after the region drains.
  void run(const Hooks& hooks, int nthreads, std::vector<double>* vmax_per_plan,
           std::vector<PlanTimes>* times);

 private:
  struct Task {
    enum class Kind : std::uint8_t { kLabRhs, kUpdate, kPack, kDrain };
    Kind kind = Kind::kLabRhs;
    std::uint8_t stage = 0;
    std::uint16_t plan = 0;
    int block = -1;        ///< -1 for pack/drain
    int init_pending = 0;  ///< dependency count seeded at each run
    int mid_begin = 0, mid_end = 0;    ///< counters fired after the lab part
    int succ_begin = 0, succ_end = 0;  ///< counters fired at task completion
    float owner_frac = 0;  ///< stable position in [0,1) -> owning thread
  };

  /// Flattens per-task successor lists into the CSR arrays, allocates the
  /// counter storage, and records the seed tasks (init_pending == 0) in id
  /// order — block seeds first, pack seeds last, so owners LIFO-pop their
  /// pack first and sends post early.
  void finalize(std::vector<std::vector<int>>& mid, std::vector<std::vector<int>>& succ);

  std::vector<Task> tasks_;
  std::vector<int> mid_ids_, succ_ids_;
  std::vector<int> seeds_;
  std::unique_ptr<std::atomic<int>[]> pending_;
  int plan_count_ = 0;
  int sos_stage_ = 0;  ///< the graph's final stage: its updates fold SOS
  std::atomic<int> remaining_{0};
  std::atomic<bool> abort_{false};
};

}  // namespace mpcf
