// Cluster-layer simulation (paper Section 6): the global domain is split
// into cartesian subdomains, one per rank. Each rank runs a node-layer
// Simulation on its subgrid; ghost information crosses rank boundaries as
// six face-slab messages of three cell layers per Runge-Kutta stage, which
// land in the rank's HaloSlabs and reach its labs through the same fold
// tables as every other ghost (BlockLab::load). Blocks are split into halo
// and interior sets, and each RK stage runs the paper's overlap pipeline as
// one dependency graph (core/step_scheduler) across all local ranks: pack
// tasks post the halo sends, interior blocks compute while messages are "in
// flight", a drain task receives the halos and releases the halo blocks.
// Every phase emits tracing spans (perf::Tracer) for per-rank aggregates and
// chrome://tracing export.
//
// Rank locality: the simulation drives exactly the ranks its transport
// declares local (Transport::local_ranks). On the default in-memory
// transport that is every rank — the historical all-in-one-process mode.
// Under tools/mpcf-run each process holds ONE rank over the shared-memory
// transport, and all cross-rank traffic (halos, gather/scatter, checkpoint,
// collective dump, DT reduction) moves through the transport; no code path
// touches a sibling rank's grid directly.
#pragma once

#include <memory>
#include <vector>

#include "cluster/sim_comm.h"
#include "cluster/topology.h"
#include "compression/compressor.h"
#include "core/simulation.h"
#include "io/retention.h"
#include "perf/trace.h"

namespace mpcf::cluster {

class ClusterSimulation {
 public:
  /// Global grid of gbx*gby*gbz blocks of bs^3 cells, decomposed across a
  /// topo.rx*topo.ry*topo.rz rank topology (block counts must divide evenly;
  /// each rank's Simulation checks bs). Runs every rank in-process over the
  /// in-memory transport.
  ClusterSimulation(int gbx, int gby, int gbz, int bs, CartTopology topo,
                    Simulation::Params params);

  /// Same decomposition over an explicit transport; the simulation drives
  /// only transport->local_ranks() (one rank per process under mpcf-run).
  ClusterSimulation(int gbx, int gby, int gbz, int bs, CartTopology topo,
                    Simulation::Params params, std::shared_ptr<Transport> transport);

  [[nodiscard]] int rank_count() const noexcept { return topo_.size(); }
  /// The node-layer simulation of a LOCAL rank (throws for remote ranks:
  /// their state lives in another process).
  [[nodiscard]] Simulation& rank_sim(int r);
  [[nodiscard]] const Simulation& rank_sim(int r) const;
  /// Ranks driven by this process, ascending.
  [[nodiscard]] const std::vector<int>& local_ranks() const noexcept { return local_; }
  [[nodiscard]] bool is_local(int r) const noexcept { return comm_.is_local(r); }
  [[nodiscard]] const CartTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] SimComm& comm() noexcept { return comm_; }
  [[nodiscard]] double time() const noexcept { return time_; }

  /// Halo tag epoch: bumped once per RK stage exchange so a fast rank's
  /// sends can never alias a neighbour's undrained previous stage. Advances
  /// in lockstep on all ranks; deliberately NOT part of a checkpoint (a
  /// restart must not regress it).
  [[nodiscard]] long halo_epoch() const noexcept { return epoch_; }

  /// Selects the plan of the stage graph. On (default): pack and drain run
  /// as tasks inside the graph, overlapped with block work. Off: a blocking
  /// exchange_halos precedes each stage and the graph holds block tasks
  /// only. Both plans are bitwise-identical in their results; overlap off
  /// exists for the stall benches and as a debugging fallback.
  void set_overlap(bool on) noexcept { overlap_ = on; }
  [[nodiscard]] bool overlap() const noexcept { return overlap_; }

  /// Phase tracer: disabled by default; enable to collect per-phase spans
  /// and export chrome://tracing JSON.
  [[nodiscard]] perf::Tracer& tracer() noexcept { return tracer_; }

  /// Global DT reduction: per-rank SOS maxima combined by an allreduce.
  [[nodiscard]] double compute_dt();

  /// One step: per RK stage one stage graph over all local ranks (plan per
  /// set_overlap); the final stage's updates also apply each rank's
  /// positivity guard and fold the next step's SOS reduction.
  void advance(double dt);
  double step();

  /// Copies the distributed state into a single global grid (shape must be
  /// gbx x gby x gbz blocks of the same block size). Multi-process: remote
  /// boxes are shipped to rank 0, so only the process owning rank 0 ends up
  /// with the complete grid; other processes fill just their own boxes.
  void gather(Grid& global) const;

  /// Inverse of gather: distributes a global grid across the rank subgrids.
  /// Multi-process: the process owning rank 0 reads `global` and ships each
  /// remote rank its box; other processes ignore their `global` argument.
  void scatter(const Grid& global);

  /// Checkpoints the gathered global state + cluster clock into one
  /// atomic, CRC-protected file (same format as the node layer; a cluster
  /// checkpoint restores into any topology of the same global shape).
  /// Multi-process: rank 0's process writes the file; the call is
  /// collective and every process returns the written byte count.
  std::uint64_t save_checkpoint(const std::string& path) const;

  /// Restores a checkpoint written by save_checkpoint (or the node layer's
  /// save_checkpoint of an identically shaped grid): scatters the state and
  /// restores every rank clock. Throws PreconditionError on any mismatch,
  /// truncation, or CRC failure. Multi-process: rank 0's process reads the
  /// file and broadcasts state + clock.
  void load_checkpoint(const std::string& path);

  /// Rotating retention: saves through `rot` at the current step count and
  /// prunes old files (keep-last-K). The save is traced as a kCheckpoint
  /// span. Returns the path written.
  std::string save_checkpoint_rotating(io::CheckpointRotator& rot);

  /// Auto-recovery: scans `rot` newest -> oldest and restores the first
  /// valid checkpoint, skipping corrupt/truncated files (reported through
  /// `skipped` and as one kCheckpoint trace span per attempt). Returns the
  /// recovered path, or "" when no valid checkpoint exists.
  std::string load_latest_valid_checkpoint(io::CheckpointRotator& rot,
                                           std::vector<std::string>* skipped = nullptr);

  /// Reduction of the per-rank diagnostics (collective in multi-process
  /// mode; every process returns the same global values).
  [[nodiscard]] Diagnostics diagnostics(double G_vapor, double G_liquid) const;

  /// Compresses one quantity across all ranks into a single dump whose
  /// streams carry global block ids; the streams land in the order given by
  /// the exclusive prefix sum of the per-rank encoded sizes — NOT rank
  /// completion order (collective dump, paper Section 6). Multi-process:
  /// remote ranks ship their streams to rank 0, whose process returns the
  /// assembled dump; other processes return only the header (no streams).
  [[nodiscard]] compression::CompressedQuantity compress_collective(
      const compression::CompressionParams& params,
      std::vector<compression::WorkerTimes>* times = nullptr);

  /// Collective dump straight to disk: compress_collective, then the
  /// two-phase aggregating `.cq` writer. Only the process holding rank 0
  /// writes; returns the bytes it wrote (0 elsewhere).
  std::uint64_t dump_collective(const std::string& path,
                                const compression::CompressionParams& params,
                                std::vector<compression::WorkerTimes>* times = nullptr);

  /// Aggregated kernel times across this process's local ranks.
  [[nodiscard]] StepProfile profile() const;
  /// Exposed communication stall: wall-clock the step loop blocks on halo
  /// exchange with no compute runnable. Overlap off: the full
  /// pack/send/recv/unpack of every RK stage (exchange_halos before each
  /// stage graph). Overlap on: zero by construction — packs and drains are
  /// tasks of the stage graph, always coexisting with runnable block tasks
  /// (see comm_work_time() for where the communication work went).
  [[nodiscard]] double comm_time() const noexcept { return comm_time_; }
  /// Thread-seconds spent doing communication work (pack/send/recv/unpack)
  /// under either plan: equals comm_time() with overlap off, and the
  /// in-graph pack+drain task seconds with overlap on.
  [[nodiscard]] double comm_work_time() const noexcept { return comm_work_time_; }

  [[nodiscard]] const std::vector<int>& interior_blocks(int r) const {
    return interior_[r];
  }
  [[nodiscard]] const std::vector<int>& halo_blocks(int r) const { return halo_[r]; }

  /// One full sequential halo exchange (pack+send+drain for the local ranks;
  /// normally driven by advance — exposed for tests and the communication
  /// benches). Collective: every process must call it the same number of
  /// times (each call is one epoch).
  void exchange_halos();

  /// The face slabs a LOCAL rank `r` last received (exposed for tests); its
  /// Simulation's lab assembly reads them (Simulation::set_halo).
  [[nodiscard]] const HaloSlabs& halo_slabs(int r) const { return halo_slabs_[r]; }

 private:
  struct RankBox {
    int ox, oy, oz;  ///< origin in global cells
    int nx, ny, nz;  ///< extent in cells
  };

  /// Packs and sends one local rank's six face slabs (the paper's Isend
  /// phase) under the current epoch's tags.
  void pack_rank_sends(int r);
  /// Packs and sends every local rank's six face slabs, in rank order.
  void post_halo_sends();
  /// Receives and unpacks the six face slabs of one local rank. Drains via
  /// atomic try_recv in whatever order messages arrive (no fixed-face
  /// blocking order), falling back to a blocking recv — traced as a kWait
  /// span — only when nothing is deliverable.
  void drain_halos(int r);
  void unpack_halo_slab(int r, int axis, int side, const std::vector<float>& msg);
  /// One RK stage (DESIGN.md §14): one dependency-counted graph of
  /// lab->RHS and update tasks across all local ranks, with pack/drain
  /// tasks feeding the same counters when overlap is on. On the final RK
  /// stage each update also clamps its block (Simulation::clamp_one) and
  /// folds its SOS, so the next compute_dt skips its sweep.
  void advance_stage(int stage, double dt);
  /// (Re)builds the cluster stage graph when the overlap mode changed.
  void ensure_stage_graph(bool with_comm);
  [[nodiscard]] const Simulation& front_sim() const { return *sims_[local_.front()]; }

  CartTopology topo_;
  mutable SimComm comm_;  ///< mutable: const collectives (gather, save) send
  int bs_;
  int gbx_, gby_, gbz_;
  BoundaryConditions global_bc_;
  std::vector<int> local_;  ///< comm_.local_ranks(), cached
  std::vector<std::unique_ptr<Simulation>> sims_;  ///< null for remote ranks
  std::vector<RankBox> boxes_;
  std::vector<std::vector<int>> interior_, halo_;  ///< filled for local ranks
  /// Per rank, the kGhosts-layer cell slabs beyond its six faces, written by
  /// unpack_halo_slab and read by that rank's lab assembly.
  std::vector<HaloSlabs> halo_slabs_;
  perf::Tracer tracer_;
  std::unique_ptr<StepScheduler> stage_sched_;  ///< cluster stage graph
  std::vector<int> plan_ranks_;                 ///< scheduler plan -> rank id
  std::vector<std::vector<char>> plan_is_halo_;  ///< per plan: block -> halo?
  bool graph_with_comm_ = false;  ///< mode the cached graph was built for
  bool overlap_ = true;
  double time_ = 0;
  double comm_time_ = 0;
  double comm_work_time_ = 0;
  long steps_ = 0;
  long epoch_ = 0;  ///< halo tag epoch (one per RK stage exchange)
};

}  // namespace mpcf::cluster
