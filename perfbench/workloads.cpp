// The three workloads of the benchmark of record. Each one sets up (several
// times; the median is `setup_s`), runs its closed step loop — steps back to
// back, the next one issued when the previous returns — checks every
// operation outside the timed region and reports the end-to-end metrics.
// cloud_output dumps every 10 steps and checkpoints every 20 inside the
// loop, and restarts at the end of each pass. The other two have no output
// cadence; between the steps of their loop, outside its timing, they dump,
// checkpoint and restart a set-up state of their own shape, so every
// workload reports the output metrics at its own size and layout. With
// tracing on, a run also records spans around every call into the program
// and reports the per-layer metrics (layers.json maps each one to the
// end-to-end metric and workload it should move).
//
// Run length: a run does a fixed amount of work sized so that it takes
// about --seconds on the reference host (4-core Xeon at 2.1 GHz, AVX-512),
// so the same --seconds always means the same steps and a parent and a
// change are timed on identical work.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "checks.h"
#include "cluster/cluster_simulation.h"
#include "compression/pipeline.h"
#include "host.h"
#include "io/retention.h"
#include "perf/oi_model.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sc = mpcf::scenario;
using mpcf::Grid;
using mpcf::Simulation;
using mpcf::cluster::ClusterSimulation;
using mpcf::compression::CompressionParams;

constexpr int kSetups = 3;        ///< set-ups per run; setup_s is their median
/// Checkpoint saves and restarts of the set-up state (cloud_step,
/// cluster_halo; twice as many dumps), restarts per cloud_output pass.
constexpr int kOutputReps = 5;
constexpr int kPassSeconds = 10;  ///< cloud_output: one 200-step pass ~ this long
/// Steps per second of --seconds (reference host, 4 threads).
constexpr double kCloudStepRate = 4.0;
constexpr double kClusterHaloRate = 8.0;
/// Bubble seed of the state cloud_step and cluster_halo write in their
/// output operations: the scenario default, which is the seed of the
/// checked-in cloud_collapse.cfg. Dump ratio and output times then compare
/// the output code across runs, not the bubble draw of --seed (the 128^3
/// set-up state's dump ratio spans 35-51 over ten seeds).
const unsigned long kOutputSeed = mpcf::CloudParams{}.seed;
/// cluster_halo and the cluster probe of the other workloads: 2x2x1 ranks.
const mpcf::cluster::CartTopology kRanks(2, 2, 1);

long fixed_steps(double seconds, double rate) {
  return std::max(20L, std::lround(seconds * rate));
}

bool due(long step, long every) { return every > 0 && step % every == 0; }

std::string tag(long n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06ld", n);
  return buf;
}

/// The dump thresholds mpcf-sim uses when a config sets none.
CompressionParams gamma_params() {
  CompressionParams p;
  p.quantity = mpcf::Q_G;
  p.eps = sc::RunSettings{}.dump_eps_G;
  return p;
}
CompressionParams pressure_params() {
  CompressionParams p;
  p.derive_pressure = true;
  p.eps = sc::RunSettings{}.dump_eps_p;
  return p;
}

/// cloud_collapse at a given shape and bubble seed (scenario defaults
/// otherwise).
mpcf::Config scenario_config(const char* name, int blocks, int bs, unsigned long seed) {
  const std::string b = std::to_string(blocks);
  return mpcf::Config::parse_string(
      "[scenario]\nname = cloud_collapse\n[simulation]\nblocks = " + b + " " + b + " " + b +
          "\nblock_size = " + std::to_string(bs) + "\n[cloud]\nseed = " + std::to_string(seed) +
          "\n",
      name);
}

/// Everything the output operations of a run measured.
struct Outputs {
  Samples dump, save, restart, restore;  ///< seconds per operation
  double raw_bytes = 0, file_bytes = 0;  ///< dumped fields vs dump files
  Samples save_bytes;
  // PipelineStats of traced node dumps (per p+Gamma dump).
  Samples fwt_s, encode_s, write_s, dump_bytes, imbalance;
  double fwt_total_s = 0, pipe_raw = 0, pipe_comp = 0;  ///< sums over dumps
};

/// Loop accounting shared by the workloads.
struct Loop {
  Samples step;                        ///< compute_dt + advance wall, every step
  Samples step_traced, step_untraced;  ///< the same, split for the overhead
  double seconds = 0;                  ///< timed loop wall: steps + in-loop outputs
  long steps = 0;
  long clamped = 0;
  long sos_sweeps = 0;
};

/// Set-up of a node scenario: make_scenario (cloud + initial condition)
/// plus the lazy per-thread workspaces and block topology the first step
/// would otherwise build.
sc::ScenarioInstance build_node(Bench& b, const mpcf::Config& cfg, Samples& setup,
                                Samples& build) {
  const double t0 = now_s();
  Scope s(b.trace, "scenario.make_scenario");
  sc::ScenarioInstance inst = sc::make_scenario(cfg);
  build.add(s.close());
  inst.sim->ensure_thread_workspaces();
  (void)inst.sim->step_topology();
  setup.add(now_s() - t0);
  return inst;
}

/// Traced runs record spans on odd steps only; even steps time the same
/// calls untraced, and the gap between the two medians is the tracing
/// overhead.
bool trace_this_step(const Bench& b, long step) { return b.trace.enabled() && step % 2 == 1; }

/// Post-step checks of one or more rank grids against the initial mass.
void check_step(Bench& b, const std::vector<const Grid*>& grids, double mass0,
                long clamped_this_step, long step) {
  StateScan total;
  long cells = 0;
  for (const Grid* g : grids) {
    const StateScan s = scan_state(*g);
    total.mass += s.mass;
    total.finite = total.finite && s.finite;
    cells += static_cast<long>(g->cell_count());
  }
  b.ledger.record("step", std::to_string(step),
                  step_failures(total, mass0, clamped_this_step, cells));
}

double initial_mass(const std::vector<const Grid*>& grids) {
  double m = 0;
  for (const Grid* g : grids) m += scan_state(*g).mass;
  return m;
}

double file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// Decode checks of a p+Gamma dump pair against the grid it was taken from.
std::vector<std::string> dump_pair_failures(const std::string& prefix, const Grid& ref) {
  std::vector<std::string> fails;
  for (std::string& f : dump_failures(prefix + "_G.cq", ref, gamma_params()))
    fails.push_back("G " + f);
  for (std::string& f : dump_failures(prefix + "_p.cq", ref, pressure_params()))
    fails.push_back("p " + f);
  return fails;
}

/// Folds the PipelineStats of one p+Gamma dump (its two pipelined dumps)
/// into the dump-layer samples.
void add_pipeline_stats(Bench& b, const mpcf::compression::PipelineStats (&st)[2],
                        Outputs& out) {
  double dec = 0, enc = 0, write = 0, bytes = 0;
  std::vector<double> per_worker;
  for (const auto& q : st) {
    per_worker.resize(std::max(per_worker.size(), q.worker_times.size()));
    for (std::size_t w = 0; w < q.worker_times.size(); ++w) {
      dec += q.worker_times[w].dec;
      enc += q.worker_times[w].enc;
      per_worker[w] += q.worker_times[w].dec + q.worker_times[w].enc;
    }
    write += q.write_seconds;
    bytes += static_cast<double>(q.bytes_written);
    out.pipe_raw += static_cast<double>(q.uncompressed_bytes);
    out.pipe_comp += static_cast<double>(q.compressed_bytes);
  }
  b.trace.count("wavelet.fwt_s", dec);
  b.trace.count("compression.encode_s", enc);
  b.trace.count("io.dump_write_s", write);
  b.trace.count("io.dump_bytes", bytes);
  out.fwt_s.add(dec);
  out.encode_s.add(enc);
  out.write_s.add(write);
  out.dump_bytes.add(bytes);
  out.imbalance.add(mpcf::imbalance(per_worker));
  out.fwt_total_s += dec;
}

/// Two pipelined dumps, Gamma then p, as Simulation::dump does them.
void pipelined_dump(Bench& b, const Grid& g, const std::string& prefix, Outputs& out) {
  const CompressionParams params[2] = {gamma_params(), pressure_params()};
  const char* suffix[2] = {"_G.cq", "_p.cq"};
  mpcf::compression::PipelineStats st[2];
  for (int q = 0; q < 2; ++q) {
    Scope d(b.trace, "compression.dump_quantity_pipelined");
    mpcf::compression::dump_quantity_pipelined(g, params[q], prefix + suffix[q], &st[q]);
  }
  add_pipeline_stats(b, st, out);
}

/// One p+Gamma dump of a node simulation. Untraced it is Simulation::dump,
/// what mpcf-sim calls; traced it is the same two pipelined dumps called
/// directly so their PipelineStats split the time into wavelet, encode and
/// write. The decode check runs outside the timing.
double node_dump(Bench& b, Simulation& sim, const std::string& prefix, const std::string& where,
                 Outputs& out) {
  const CompressionParams pg = gamma_params(), pp = pressure_params();
  Scope s(b.trace, "output.dump");
  if (b.trace.enabled()) {
    pipelined_dump(b, sim.grid(), prefix, out);
  } else {
    (void)sim.dump(prefix, pp.eps, pg.eps);
  }
  const double sec = s.close();
  out.dump.add(sec);
  out.raw_bytes += 2.0 * static_cast<double>(sim.grid().cell_count()) * sizeof(float);
  out.file_bytes += file_size(prefix + "_G.cq") + file_size(prefix + "_p.cq");

  Scope c(b.trace, "check.dump");
  b.ledger.record("dump", where, dump_pair_failures(prefix, sim.grid()), true);
  fs::remove(prefix + "_G.cq");
  fs::remove(prefix + "_p.cq");
  return sec;
}

/// One rotating checkpoint save; a throw is a failed save.
double node_save(Bench& b, mpcf::io::CheckpointRotator& rot, const Simulation& sim,
                 const std::string& where, Outputs& out) {
  std::string path;
  std::vector<std::string> fails;
  Scope s(b.trace, "io.checkpoint_save");
  try {
    path = rot.save(sim);
  } catch (const std::exception& e) {
    fails.push_back(std::string("save: ") + e.what());
  }
  const double sec = s.close();
  out.save.add(sec);
  if (!path.empty()) out.save_bytes.add(file_size(path));
  b.ledger.record("checkpoint_save", where, fails);
  return sec;
}

/// What a restore must reproduce bitwise.
struct Saved {
  std::vector<mpcf::Cell> cells;
  double time = 0;
  long steps = 0;
};

/// One restart: build the scenario afresh and restore the newest valid
/// checkpoint into it; the restored state must equal the saved one bitwise.
void node_restart(Bench& b, const mpcf::Config& cfg, const mpcf::io::CheckpointRotator& rot,
                  const Saved& saved, const std::string& where, Outputs& out) {
  std::vector<std::string> fails;
  Scope s(b.trace, "output.restart");
  sc::ScenarioInstance inst;
  {
    Scope m(b.trace, "scenario.make_scenario");
    inst = sc::make_scenario(cfg);
  }
  bool ok = false;
  {
    Scope r(b.trace, "io.load_latest_valid");
    try {
      ok = rot.load_latest_valid(*inst.sim);
    } catch (const std::exception& e) {
      fails.push_back(std::string("restore: ") + e.what());
    }
    out.restore.add(r.close());
  }
  out.restart.add(s.close());
  if (!ok && fails.empty()) fails.emplace_back("restore: no valid checkpoint");
  if (ok) {
    const long diff = first_difference(inst.sim->grid(), saved.cells);
    if (diff >= 0) fails.push_back("bitwise: restored cell " + std::to_string(diff) + " differs");
    if (inst.sim->time() != saved.time || inst.sim->step_count() != saved.steps)
      fails.emplace_back("bitwise: restored clock differs");
  }
  b.ledger.record("restore", where, fails, true);
}

long clamped_total(const Simulation& sim) { return sim.params().clamped_cells; }
long clamped_total(const ClusterSimulation& cs) {
  long n = 0;
  for (const int r : cs.local_ranks()) n += cs.rank_sim(r).params().clamped_cells;
  return n;
}

/// One step inside the timed loop: compute_dt + advance of a node or cluster
/// simulation, spanned as `<layer>.compute_dt` / `<layer>.advance`. Returns
/// the dt taken; the cells it clamped are added to the loop and returned
/// through `clamped`.
template <class Sim>
double timed_step(Bench& b, Sim& sim, const std::string& layer, Loop& loop, long& clamped) {
  const bool traced = trace_this_step(b, loop.steps + 1);
  b.trace.pause(b.trace.enabled() && !traced);
  const long clamped0 = clamped_total(sim);
  double dt = 0, sec = 0;
  {
    Scope st(b.trace, "loop.step");
    {
      Scope s(b.trace, layer + ".compute_dt");
      dt = sim.compute_dt();
    }
    {
      Scope s(b.trace, layer + ".advance");
      sim.advance(dt);
    }
    sec = st.close();
  }
  b.trace.pause(false);
  ++loop.steps;
  loop.step.add(sec);
  (traced ? loop.step_traced : loop.step_untraced).add(sec);
  loop.seconds += sec;
  clamped = clamped_total(sim) - clamped0;
  loop.clamped += clamped;
  b.trace.count("core.clamped_cells", static_cast<double>(clamped));
  return dt;
}

// --- Per-layer reports (traced runs) ---------------------------------------

/// One-thread passes of the per-block step hooks (lab -> RHS -> update ->
/// SOS) over a freshly built instance of the workload's grid, stepped past
/// the first steps (on the 64^3 config their near-zero momenta make
/// denormal arithmetic ~6x slower than steady state): per-kernel self
/// times, GF/s, roofline share and the scheduling efficiency of the
/// threaded `advance` against them.
void hook_pass(Bench& b, const mpcf::Config& cfg, const HostModel& host,
               double advance_median_s) {
  constexpr int kWarmSteps = 5, kPasses = 3;
  sc::ScenarioInstance inst = sc::make_scenario(cfg);
  Simulation& sim = *inst.sim;
  for (int i = 0; i < kWarmSteps; ++i) (void)sim.step();
  sim.ensure_thread_workspaces();
  const Grid& g = sim.grid();
  const int bs = g.block_size();
  const double dt = sim.compute_dt();
  Samples lab_interior, lab, rhs, up, sos;
  double vmax = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int bz = 0; bz < g.blocks_z(); ++bz)
      for (int by = 0; by < g.blocks_y(); ++by)
        for (int bx = 0; bx < g.blocks_x(); ++bx) {
          const int id = g.indexer().linear(bx, by, bz);
          double t = 0;
          {
            Scope s(b.trace, "grid.assemble_lab");
            sim.assemble_lab(id, 0);
            t = s.close();
          }
          lab.add(t);
          const bool interior = bx > 0 && by > 0 && bz > 0 && bx < g.blocks_x() - 1 &&
                                by < g.blocks_y() - 1 && bz < g.blocks_z() - 1;
          if (interior) lab_interior.add(t);
          {
            Scope s(b.trace, "kernels.rhs_from_lab");
            sim.rhs_from_lab(mpcf::LsRk3::a[0], id, 0);
            rhs.add(s.close());
          }
          {
            Scope s(b.trace, "kernels.update_one");
            sim.update_one(mpcf::LsRk3::b[0] * dt, id);
            up.add(s.close());
          }
          {
            Scope s(b.trace, "kernels.accumulate_block_speed");
            sim.accumulate_block_speed(id, vmax);
            sos.add(s.close());
          }
        }
  }
  const auto traffic = mpcf::perf::rhs_traffic(bs);
  const double rhs_gflops = mpcf::kernels::rhs_flops(bs) / rhs.median() / 1e9;
  const double roof =
      std::min(host.peak_gflops_1core, traffic.oi_reordered() * host.bw_gbs_1thread);
  b.metric("grid.lab_us", (lab_interior.empty() ? lab : lab_interior).median() * 1e6);
  b.metric("kernels.rhs_us", rhs.median() * 1e6);
  b.metric("kernels.rhs_gflops", rhs_gflops);
  b.metric("kernels.rhs_flops_per_byte", traffic.oi_reordered());
  b.metric("kernels.rhs_roof_frac", rhs_gflops / roof);
  b.metric("kernels.update_us", up.median() * 1e6);
  b.metric("kernels.update_gflops", mpcf::kernels::update_flops(bs) / up.median() / 1e9);
  b.metric("kernels.sos_us", sos.median() * 1e6);
  b.metric("kernels.sos_gflops", mpcf::kernels::sos_flops(bs) / sos.median() / 1e9);
  // One threaded step = 3 RK stages of lab+RHS+update plus one SOS sweep
  // over every block, each at its median one-thread time.
  const double one_thread_step =
      g.block_count() * (3.0 * (lab.median() + rhs.median() + up.median()) + sos.median());
  b.metric("core.sched_eff", one_thread_step / (b.threads * advance_median_s));
  b.info("kernels.flops_per_byte_source", "computed: perf::rhs_traffic (reordered)");
  b.info("kernels.roof_gflops_1core", roof);
  b.info("kernels.hook_blocks", static_cast<double>(g.block_count()));
  b.info("kernels.one_thread_step_s", one_thread_step);
}

/// Communication counters of a span of cluster steps.
struct CommDelta {
  double messages = 0, bytes = 0, recv_s = 0, work_s = 0;
  long steps = 0;
};

CommDelta comm_since(ClusterSimulation& cs, double work0, long steps) {
  const auto st = cs.comm().stats();
  return {static_cast<double>(st.messages), static_cast<double>(st.bytes), st.recv_seconds,
          cs.comm_work_time() - work0, steps};
}

/// Cluster-layer metrics: per-step message/byte counts and waits over the
/// given steps, then standalone exchanges and halo-block labs.
void report_cluster(Bench& b, ClusterSimulation& cs, const CommDelta& d,
                    const Samples& scatter) {
  const double n = static_cast<double>(std::max(1L, d.steps));
  b.metric("cluster.scatter_s", scatter.median());
  b.metric("cluster.halo_msgs_per_step", d.messages / n);
  b.metric("cluster.halo_bytes_per_step", d.bytes / n);
  b.metric("cluster.recv_wait_ms", d.recv_s / n * 1e3);
  b.metric("cluster.comm_work_ms", d.work_s / n * 1e3);
  Samples exch, halo_lab;
  for (int i = 0; i < 3; ++i) {
    Scope s(b.trace, "cluster.exchange_halos");
    cs.exchange_halos();
    exch.add(s.close());
  }
  for (const int r : cs.local_ranks()) {
    Simulation& rs = cs.rank_sim(r);
    rs.ensure_thread_workspaces();
    for (const int blk : cs.halo_blocks(r)) {
      Scope s(b.trace, "grid.assemble_lab_halo");
      rs.assemble_lab(blk, 0);
      halo_lab.add(s.close());
    }
  }
  b.metric("cluster.exchange_ms", exch.median() * 1e3);
  b.metric("grid.lab_halo_us", halo_lab.median() * 1e6);
}

/// Cluster probe for the node workloads: the same grid scattered over
/// 2x2x1 in-process ranks, two steps, then report_cluster.
void cluster_probe(Bench& b, const Simulation& sim) {
  const Grid& g = sim.grid();
  ClusterSimulation cs(g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size(), kRanks,
                       sim.params());
  Samples scatter;
  {
    Scope s(b.trace, "cluster.scatter");
    cs.scatter(g);
    scatter.add(s.close());
  }
  cs.comm().reset_stats();
  const double work0 = cs.comm_work_time();
  for (int i = 0; i < 2; ++i) {
    Scope s(b.trace, "cluster.step");
    cs.advance(cs.compute_dt());
  }
  report_cluster(b, cs, comm_since(cs, work0, 2), scatter);
}

/// Dump-pipeline metrics from traced dumps (wavelet, compression, io).
void report_pipeline(Bench& b, const Outputs& out) {
  b.metric("wavelet.fwt_ms", out.fwt_s.median() * 1e3);
  b.metric("wavelet.fwt_gbs", out.pipe_raw / out.fwt_total_s / 1e9);
  b.metric("compression.encode_ms", out.encode_s.median() * 1e3);
  b.metric("compression.ratio", out.pipe_raw / out.pipe_comp);
  b.metric("compression.worker_imbalance", out.imbalance.median());
  b.metric("io.dump_write_ms", out.write_s.median() * 1e3);
  b.metric("io.dump_bytes", out.dump_bytes.median());
  b.info("wavelet.time_basis", "worker thread-seconds (dec) per p+Gamma dump");
}

/// Stated tolerance of the span accounting: within a traced step, the
/// time no child span covers stays below this share of the step.
constexpr double kUnattributedTolerance = 0.01;

/// Core-layer and trace metrics of the timed loop.
void report_core(Bench& b, const Loop& loop, const Samples& build, const char* dt_span,
                 const char* advance_span) {
  b.metric("scenario.build_s", build.median());
  b.metric("core.step_ms", b.trace.duration_samples(advance_span).median() * 1e3);
  b.metric("core.dt_ms", b.trace.duration_samples(dt_span).median() * 1e3);
  b.metric("core.sos_sweeps", static_cast<double>(loop.sos_sweeps));
  b.metric("core.clamped_cells", static_cast<double>(loop.clamped));
  const std::vector<double> self = b.trace.self_seconds();
  double worst = 0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const SpanTrace::Span& s = b.trace.spans()[i];
    if (s.name == "loop.step") worst = std::max(worst, self[i] / (s.t1 - s.t0));
  }
  b.metric("trace.unattributed_frac", worst);
  b.info("trace.unattributed_tolerance", kUnattributedTolerance);
  b.info("trace.unattributed_within_tolerance", worst <= kUnattributedTolerance ? "yes" : "no");
  b.metric("trace.overhead_frac",
           loop.step_traced.median() / loop.step_untraced.median() - 1.0);
  b.info("trace.steps_traced", static_cast<double>(loop.step_traced.size()));
  b.info("trace.steps_untraced", static_cast<double>(loop.step_untraced.size()));
}

/// io-layer checkpoint metrics.
void report_checkpoint(Bench& b, const Outputs& out) {
  b.metric("io.checkpoint_write_ms", out.save.median() * 1e3);
  b.metric("io.checkpoint_bytes", out.save_bytes.median());
  b.metric("io.restore_ms", out.restore.median() * 1e3);
}

// --- End-to-end report -----------------------------------------------------

void report_end_to_end(Bench& b, const Loop& loop, const Outputs& out, const Samples& setup,
                       double cells) {
  b.metric("grind_ns", loop.seconds / (cells * static_cast<double>(loop.steps)) * 1e9);
  b.timing("step_ms_p50", loop.step, 1e3);
  b.tail("step_ms_tail", loop.step, 1e3);
  b.timing("dump_ms_p50", out.dump, 1e3);
  b.metric("dump_ratio", out.raw_bytes / out.file_bytes);
  b.timing("restart_s", out.restart, 1.0);
  b.timing("setup_s", setup, 1.0);
  b.info("loop.steps", static_cast<double>(loop.steps));
  b.info("loop.seconds", loop.seconds);
  b.info("cells", cells);
  b.info("dump.count", static_cast<double>(out.dump.size()));
}

/// Output operations of a workload without an output cadence: p+Gamma
/// dumps, rotating checkpoint saves and restarts into a freshly built
/// scenario, on the set-up state of `cfg`, so neither the run length nor
/// the blow-up can change what is written. The operations are spread evenly
/// between the steps of the timed loop (outside its timing): a noisy
/// neighbour that slows the host for a few seconds then moves a few
/// samples, not the median.
class SetUpStateOutputs {
 public:
  SetUpStateOutputs(Bench& b, const mpcf::Config& cfg, long loop_steps)
      : b_(b),
        cfg_(cfg),
        inst_(sc::make_scenario(cfg)),
        rot_(b.path("ckp"), "ckp", kOutputReps),
        saved_{snapshot(inst_.sim->grid()), inst_.sim->time(), inst_.sim->step_count()},
        loop_steps_(loop_steps) {}

  /// Runs the operations due once `step` loop steps are done.
  void after_step(long step) {
    while (next_ < kOps && step * (kOps + 1) >= (next_ + 1) * loop_steps_) run(next_++);
  }
  /// Runs whatever is left (a loop cut short) and returns the samples.
  Outputs finish() {
    while (next_ < kOps) run(next_++);
    return std::move(out_);
  }

 private:
  /// Pairs of (dump, save) then (dump, restart): restarts need a save.
  static constexpr int kOps = 4 * kOutputReps;

  void run(int k) {
    Scope o(b_.trace, "output.set_up_state");
    const int i = k / 2;
    const std::string where = "set-up state " + std::to_string(i);
    if (k % 2 == 0)
      node_dump(b_, *inst_.sim, b_.path("dump_" + tag(i)), where, out_);
    else if (i < kOutputReps)
      node_save(b_, rot_, *inst_.sim, where, out_);
    else
      node_restart(b_, cfg_, rot_, saved_, where, out_);
  }

  Bench& b_;
  const mpcf::Config cfg_;
  sc::ScenarioInstance inst_;
  mpcf::io::CheckpointRotator rot_;
  const Saved saved_;
  const long loop_steps_;
  int next_ = 0;
  Outputs out_;
};

// --- Workloads ---------------------------------------------------------------

/// Per-layer report shared by the node workloads (traced runs).
void report_node_layers(Bench& b, const mpcf::Config& cfg, const Simulation& sim,
                        const Loop& loop, const Samples& build, const Outputs& out) {
  report_core(b, loop, build, "core.compute_dt", "core.advance");
  report_pipeline(b, out);
  report_checkpoint(b, out);
  cluster_probe(b, sim);
  const HostModel host = measure_host(b);
  hook_pass(b, cfg, host, b.trace.duration_samples("core.advance").median());
}

/// cloud_step: 4x4x4 blocks of 32^3 (128^3 cells), no in-loop output.
void cloud_step(Bench& b) {
  const mpcf::Config cfg = scenario_config("cloud_step", 4, 32, b.opt.seed);
  Samples setup, build;
  sc::ScenarioInstance inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.sim.reset();
    inst = build_node(b, cfg, setup, build);
  }
  Simulation& sim = *inst.sim;
  const std::vector<const Grid*> grids{&sim.grid()};
  const double mass0 = initial_mass(grids);
  const long sweeps0 = sim.profile().sos_sweeps;
  Loop loop;
  const long steps = fixed_steps(b.opt.seconds, kCloudStepRate);
  SetUpStateOutputs outputs(b, scenario_config("cloud_step", 4, 32, kOutputSeed), steps);
  while (loop.steps < steps) {
    long clamped = 0;
    timed_step(b, sim, "core", loop, clamped);
    {
      Scope c(b.trace, "check.step");
      check_step(b, grids, mass0, clamped, loop.steps);
    }
    outputs.after_step(loop.steps);
  }
  loop.sos_sweeps = sim.profile().sos_sweeps - sweeps0;
  const Outputs out = outputs.finish();

  report_end_to_end(b, loop, out, setup, static_cast<double>(sim.grid().cell_count()));
  if (b.trace.enabled()) report_node_layers(b, cfg, sim, loop, build, out);
}

/// cloud_output: the checked-in cloud_collapse.cfg (64^3, 8^3 blocks, 200
/// steps) as mpcf-sim runs it, plus a p/Gamma dump every 10 steps and a
/// rotating checkpoint every 20, ending with restarts. Its bubble seed is
/// the config's own (42): the workload is that file exactly.
void cloud_output(Bench& b) {
  mpcf::Config cfg = mpcf::Config::parse_file(b.opt.config);
  cfg.set("run", "dump_every", "10");
  cfg.set("run", "checkpoint_every", "20");
  const long passes = std::max(1L, std::lround(b.opt.seconds / kPassSeconds));
  Samples setup, build;
  Outputs out;
  Loop loop;
  sc::ScenarioInstance inst;
  for (long pass = 0; pass < passes; ++pass) {
    for (int i = 0; i < (pass == 0 ? kSetups : 1); ++i) {
      inst.sim.reset();
      inst = build_node(b, cfg, setup, build);
    }
    const sc::RunSettings rs = sc::read_run_settings(cfg, inst.stop);
    cfg.reject_unknown();
    Simulation& sim = *inst.sim;
    const std::vector<const Grid*> grids{&sim.grid()};
    const double mass0 = initial_mass(grids);
    const long sweeps0 = sim.profile().sos_sweeps;
    const long clamped0 = loop.clamped;
    mpcf::io::CheckpointRotator rot(b.path("ckp_" + std::to_string(pass)), "ckp",
                                    rs.checkpoint_keep);
    Saved saved;
    while (!rs.stop.reached(sim.step_count(), sim.time())) {
      long clamped = 0;
      timed_step(b, sim, "core", loop, clamped);
      const long step = sim.step_count();
      {
        Scope c(b.trace, "check.step");
        check_step(b, grids, mass0, clamped, step);
      }
      if (due(step, rs.diag_every) || rs.stop.reached(step, sim.time())) {
        Scope d(b.trace, "core.diagnostics");
        (void)sim.diagnostics(inst.G_vapor, inst.G_liquid);
        loop.seconds += d.close();
      }
      if (due(step, rs.dump_every))
        loop.seconds += node_dump(b, sim, b.path("dump_" + tag(step)),
                                  "step " + std::to_string(step), out);
      if (due(step, rs.checkpoint_every)) {
        saved = {snapshot(sim.grid()), sim.time(), step};
        loop.seconds += node_save(b, rot, sim, "step " + std::to_string(step), out);
      }
    }
    loop.sos_sweeps += sim.profile().sos_sweeps - sweeps0;
    b.info("pass" + std::to_string(pass) + ".clamped_cells",
           static_cast<double>(loop.clamped - clamped0));
    for (int i = 0; i < kOutputReps; ++i)
      node_restart(b, cfg, rot, saved, "pass " + std::to_string(pass), out);
  }
  b.info("passes", static_cast<double>(passes));
  report_end_to_end(b, loop, out, setup, static_cast<double>(inst.sim->grid().cell_count()));
  if (b.trace.enabled()) report_node_layers(b, cfg, *inst.sim, loop, build, out);
}

/// cluster_halo: 6x6x6 blocks of 16^3 (96^3 cells) built by make_scenario,
/// scattered over 2x2x1 in-process ranks (in-memory transport, default
/// schedule). Checked against a node Simulation stepped from the same grid.
void cluster_halo(Bench& b) {
  constexpr int kBlocks = 6, kBs = 16;
  const mpcf::Config cfg = scenario_config("cluster_halo", kBlocks, kBs, b.opt.seed);
  Samples setup, build, scatter;
  sc::ScenarioInstance inst;
  std::unique_ptr<ClusterSimulation> cs;
  for (int i = 0; i < kSetups; ++i) {
    cs.reset();
    inst.sim.reset();
    const double t0 = now_s();
    {
      Scope s(b.trace, "scenario.make_scenario");
      inst = sc::make_scenario(cfg);
      build.add(s.close());
    }
    cs = std::make_unique<ClusterSimulation>(kBlocks, kBlocks, kBlocks, kBs, kRanks,
                                             inst.sim->params());
    Scope s(b.trace, "cluster.scatter");
    cs->scatter(inst.sim->grid());
    scatter.add(s.close());
    setup.add(now_s() - t0);
  }
  std::vector<const Grid*> grids;
  for (const int r : cs->local_ranks()) grids.push_back(&cs->rank_sim(r).grid());
  const double mass0 = initial_mass(grids);
  const long sweeps0 = cs->profile().sos_sweeps;
  cs->comm().reset_stats();
  const double work0 = cs->comm_work_time();
  Loop loop;
  std::vector<double> dts;
  const long steps = fixed_steps(b.opt.seconds, kClusterHaloRate);
  // Output metrics through the node paths their definitions name.
  SetUpStateOutputs outputs(b, scenario_config("cluster_halo", kBlocks, kBs, kOutputSeed),
                            steps);
  while (loop.steps < steps) {
    long clamped = 0;
    dts.push_back(timed_step(b, *cs, "cluster", loop, clamped));
    {
      Scope c(b.trace, "check.step");
      check_step(b, grids, mass0, clamped, loop.steps);
    }
    outputs.after_step(loop.steps);
  }
  const Outputs out = outputs.finish();
  loop.sos_sweeps = cs->profile().sos_sweeps - sweeps0;
  const CommDelta comm = comm_since(*cs, work0, loop.steps);

  // Rank-count determinism, outside the timed region: a node Simulation
  // stepped from the grid that was scattered must match bitwise.
  Grid gathered(kBlocks, kBlocks, kBlocks, kBs, inst.sim->params().extent);
  {
    Scope c(b.trace, "check.rank_determinism");
    std::vector<std::string> fails;
    Simulation& node = *inst.sim;
    for (std::size_t i = 0; i < dts.size() && fails.empty(); ++i) {
      const double dt = node.compute_dt();
      if (dt != dts[i]) fails.push_back("dt: step " + std::to_string(i + 1) + " differs");
      node.advance(dt);
    }
    cs->gather(gathered);
    const long diff = first_difference(gathered, snapshot(node.grid()));
    if (fails.empty() && diff >= 0)
      fails.push_back("bitwise: gathered cell " + std::to_string(diff) + " differs");
    b.ledger.record("rank_determinism", "after " + std::to_string(loop.steps) + " steps",
                    fails, true);
  }

  report_end_to_end(b, loop, out, setup, static_cast<double>(gathered.cell_count()));
  if (b.trace.enabled()) {
    report_core(b, loop, build, "cluster.compute_dt", "cluster.advance");
    report_pipeline(b, out);
    report_checkpoint(b, out);
    report_cluster(b, *cs, comm, scatter);
    const HostModel host = measure_host(b);
    hook_pass(b, cfg, host, b.trace.duration_samples("cluster.advance").median());
  }
}

}  // namespace

void run_workload(Bench& b) {
  b.threads = omp_get_max_threads();
  if (b.opt.workload == "cloud_step")
    cloud_step(b);
  else if (b.opt.workload == "cloud_output")
    cloud_output(b);
  else if (b.opt.workload == "cluster_halo")
    cluster_halo(b);
  else
    throw mpcf::PreconditionError("unknown workload '" + b.opt.workload +
                                  "' (cloud_step | cloud_output | cluster_halo)");
}

}  // namespace perfbench
