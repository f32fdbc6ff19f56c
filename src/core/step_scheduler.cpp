#include "core/step_scheduler.h"

#include <omp.h>

#include <algorithm>
#include <deque>
#include <thread>

#include "common/check.h"
#include "common/thread_safety.h"
#include "core/profile.h"

namespace mpcf {

void StepScheduler::build_node_graph(const BlockTopology& topo, int stages) {
  require(stages >= 1 && stages <= 255, "StepScheduler: invalid stage count");
  const int nb = topo.count;
  require(nb > 0, "StepScheduler: empty block topology");

  plan_count_ = 1;
  sos_stage_ = stages - 1;
  const int n = 2 * stages * nb;
  tasks_.assign(n, Task{});
  // Task ids: per stage s, labs at (2s)*nb + b, updates at (2s+1)*nb + b.
  const auto lid = [nb](int s, int b) { return 2 * s * nb + b; };
  const auto uid = [nb](int s, int b) { return (2 * s + 1) * nb + b; };

  std::vector<std::vector<int>> mid(n), succ(n);
  for (int s = 0; s < stages; ++s) {
    for (int b = 0; b < nb; ++b) {
      // L(b,s): runnable at stage 0; later stages wait for the
      // previous-stage update of every block the lab assembly reads.
      Task& l = tasks_[lid(s, b)];
      l.kind = Task::Kind::kLabRhs;
      l.stage = static_cast<std::uint8_t>(s);
      l.block = b;
      l.init_pending = s == 0 ? 0 : static_cast<int>(topo.readset(b).size());
      l.owner_frac = (static_cast<float>(b) + 0.5f) / static_cast<float>(nb);
      // Once the lab holds its private copy, the source blocks may update —
      // fired mid-task, before the RHS runs (the RHS reads only the lab).
      for (const int m : topo.readset(b)) mid[lid(s, b)].push_back(uid(s, m));
      succ[lid(s, b)].push_back(uid(s, b));

      // U(b,s): one release per consumer lab + one for the block's own RHS
      // (the update consumes the accumulator that RHS wrote).
      Task& u = tasks_[uid(s, b)];
      u.kind = Task::Kind::kUpdate;
      u.stage = static_cast<std::uint8_t>(s);
      u.block = b;
      u.init_pending = static_cast<int>(topo.consumers(b).size()) + 1;
      u.owner_frac = l.owner_frac;
      if (s + 1 < stages)
        for (const int c : topo.consumers(b)) succ[uid(s, b)].push_back(lid(s + 1, c));
    }
  }
  finalize(mid, succ);
}

void StepScheduler::build_cluster_graph(const std::vector<ClusterPlan>& plans,
                                        bool with_comm) {
  const int np = static_cast<int>(plans.size());
  require(np >= 1 && np <= 65535, "StepScheduler: invalid plan count");

  plan_count_ = np;
  sos_stage_ = 0;  // single-stage graph; the caller sets hooks.sos on the final RK stage
  std::vector<int> base(np);
  int cursor = 0, total_blocks = 0;
  for (int p = 0; p < np; ++p) {
    require(plans[p].topo != nullptr && plans[p].topo->count > 0,
            "StepScheduler: cluster plan without topology");
    base[p] = cursor;
    cursor += 2 * plans[p].topo->count;
    total_blocks += plans[p].topo->count;
  }
  const int pack_base = cursor;
  const int n = cursor + (with_comm ? 2 * np : 0);
  tasks_.assign(n, Task{});
  const auto lid = [&](int p, int b) { return base[p] + b; };
  const auto uid = [&](int p, int b) { return base[p] + plans[p].topo->count + b; };

  std::vector<std::vector<int>> mid(n), succ(n);
  int bpos = 0;
  for (int p = 0; p < np; ++p) {
    const BlockTopology& topo = *plans[p].topo;
    const int nb = topo.count;
    std::vector<char> is_halo(nb, 0), is_pack_read(nb, 0);
    for (const int b : plans[p].halo_blocks) is_halo[b] = 1;
    for (const int b : plans[p].pack_reads) is_pack_read[b] = 1;

    for (int b = 0; b < nb; ++b) {
      const float frac =
          (static_cast<float>(bpos + b) + 0.5f) / static_cast<float>(total_blocks);
      // L(b): halo-block labs read the drained slabs, so they gate on the
      // plan's drain; interior labs are stage seeds.
      Task& l = tasks_[lid(p, b)];
      l.kind = Task::Kind::kLabRhs;
      l.plan = static_cast<std::uint16_t>(p);
      l.block = b;
      l.init_pending = with_comm && is_halo[b] ? 1 : 0;
      l.owner_frac = frac;
      for (const int m : topo.readset(b)) mid[lid(p, b)].push_back(uid(p, m));
      succ[lid(p, b)].push_back(uid(p, b));

      // U(b): consumer labs + own RHS, plus the pack when it sends this
      // block's boundary cells (the pack reads the pre-update state).
      Task& u = tasks_[uid(p, b)];
      u.kind = Task::Kind::kUpdate;
      u.plan = l.plan;
      u.block = b;
      u.init_pending = static_cast<int>(topo.consumers(b).size()) + 1 +
                       (with_comm && is_pack_read[b] ? 1 : 0);
      u.owner_frac = frac;
    }

    if (with_comm) {
      const float mid_frac = (static_cast<float>(bpos) + 0.5f * static_cast<float>(nb)) /
                             static_cast<float>(total_blocks);
      Task& pk = tasks_[pack_base + p];
      pk.kind = Task::Kind::kPack;
      pk.plan = static_cast<std::uint16_t>(p);
      pk.init_pending = 0;
      pk.owner_frac = mid_frac;
      for (const int b : plans[p].pack_reads) succ[pack_base + p].push_back(uid(p, b));
      // Every drain waits on every local pack: all sends of this process are
      // posted before any blocking receive, so two single-thread processes
      // can never sit in each other's recv with their packs still queued.
      for (int q = 0; q < np; ++q) succ[pack_base + p].push_back(pack_base + np + q);

      Task& dr = tasks_[pack_base + np + p];
      dr.kind = Task::Kind::kDrain;
      dr.plan = pk.plan;
      dr.init_pending = np;
      dr.owner_frac = mid_frac;
      for (const int b : plans[p].halo_blocks)
        succ[pack_base + np + p].push_back(lid(p, b));
    }
    bpos += nb;
  }
  finalize(mid, succ);
}

void StepScheduler::finalize(std::vector<std::vector<int>>& mid,
                             std::vector<std::vector<int>>& succ) {
  const int n = static_cast<int>(tasks_.size());
  mid_ids_.clear();
  succ_ids_.clear();
  seeds_.clear();
  for (int t = 0; t < n; ++t) {
    Task& task = tasks_[t];
    task.mid_begin = static_cast<int>(mid_ids_.size());
    mid_ids_.insert(mid_ids_.end(), mid[t].begin(), mid[t].end());
    task.mid_end = static_cast<int>(mid_ids_.size());
    task.succ_begin = static_cast<int>(succ_ids_.size());
    succ_ids_.insert(succ_ids_.end(), succ[t].begin(), succ[t].end());
    task.succ_end = static_cast<int>(succ_ids_.size());
    if (task.init_pending == 0) seeds_.push_back(t);
  }
  require(!seeds_.empty(), "StepScheduler: graph has no runnable seed task");
  pending_ = std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(n));
}

void StepScheduler::run(const Hooks& hooks, int nthreads,
                        std::vector<double>* vmax_per_plan,
                        std::vector<PlanTimes>* times) {
  const int n = task_count();
  require(n > 0, "StepScheduler::run: no graph built");
  require(nthreads >= 1, "StepScheduler::run: thread count must be positive");
  const int np = plan_count_;

  for (int i = 0; i < n; ++i)
    // order: relaxed — workers don't exist yet; thread creation below is the
    // synchronization point that publishes these seeds.
    pending_[i].store(tasks_[i].init_pending, std::memory_order_relaxed);
  remaining_.store(n, std::memory_order_relaxed);  // order: pre-spawn, as above
  abort_.store(false, std::memory_order_relaxed);  // order: pre-spawn, as above
  std::exception_ptr first_error;  // written under error_mu (a local: no GUARDED_BY)
  Mutex error_mu;

  // Per-thread deques: owners pop their own back (LIFO, cache-hot), thieves
  // steal from a victim's front (FIFO, oldest work). Drain tasks enter at
  // the front so their owner pops them last — a blocking receive must never
  // starve runnable compute on a single thread.
  struct alignas(64) ThreadQ {
    Mutex mu;
    std::deque<int> q MPCF_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<ThreadQ>> qs(static_cast<std::size_t>(nthreads));
  for (auto& q : qs) q = std::make_unique<ThreadQ>();
  // Per-(thread, plan) accumulators; each worker writes only its own slice,
  // and at task granularity (>=µs), so cross-line sharing is irrelevant.
  std::vector<double> vm(static_cast<std::size_t>(nthreads) * np, 0.0);
  std::vector<PlanTimes> tt(static_cast<std::size_t>(nthreads) * np);

  const auto owner_of = [&](int t) {
    const int o = static_cast<int>(tasks_[t].owner_frac * static_cast<float>(nthreads));
    return std::min(nthreads - 1, std::max(0, o));
  };
  const auto enqueue = [&](int t) {
    ThreadQ& tq = *qs[static_cast<std::size_t>(owner_of(t))];
    const LockGuard lk(tq.mu);
    if (tasks_[t].kind == Task::Kind::kDrain)
      tq.q.push_front(t);
    else
      tq.q.push_back(t);
  };
  const auto fire = [&](int t) {
    // acq_rel RMW: the release-sequence chain across all predecessors gives
    // the task a happens-before edge to every write it depends on.
    const int old = pending_[t].fetch_sub(1, std::memory_order_acq_rel);
    MPCF_CHECK(old >= 1, "StepScheduler: dependency counter underflow");
    if (old == 1) enqueue(t);
  };

  const auto run_task = [&](int t, int tid) {
    const Task& task = tasks_[t];
    PlanTimes& pt = tt[static_cast<std::size_t>(tid) * np + task.plan];
    Timer tm;
    switch (task.kind) {
      case Task::Kind::kLabRhs:
        hooks.lab(task.stage, task.plan, task.block, tid);
        pt.lab += tm.seconds();
        // The lab holds its private copy: release the source blocks' updates
        // before the (long) RHS evaluation.
        for (int i = task.mid_begin; i < task.mid_end; ++i) fire(mid_ids_[i]);
        tm.restart();
        hooks.rhs(task.stage, task.plan, task.block, tid);
        pt.rhs += tm.seconds();
        break;
      case Task::Kind::kUpdate:
        hooks.update(task.stage, task.plan, task.block, tid);
        pt.up += tm.seconds();
        if (hooks.sos && task.stage == sos_stage_) {
          tm.restart();
          hooks.sos(task.plan, task.block, vm[static_cast<std::size_t>(tid) * np + task.plan]);
          pt.sos += tm.seconds();
        }
        break;
      case Task::Kind::kPack:
        hooks.pack(task.plan);
        pt.pack += tm.seconds();
        break;
      case Task::Kind::kDrain:
        hooks.drain(task.plan);
        pt.drain += tm.seconds();
        break;
    }
    for (int i = task.succ_begin; i < task.succ_end; ++i) fire(succ_ids_[i]);
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (const int s : seeds_) enqueue(s);

  const auto worker = [&](int tid) {
    // Exceptions must not escape the parallel region: the first one aborts
    // the run and is rethrown below (CheckError provenance survives).
    try {
      // order: relaxed — abort_ is a quit flag, not a data handoff; the
      // error itself travels through error_mu.
      while (!abort_.load(std::memory_order_relaxed)) {
        int t = -1;
        {
          ThreadQ& tq = *qs[static_cast<std::size_t>(tid)];
          const LockGuard lk(tq.mu);
          if (!tq.q.empty()) {
            t = tq.q.back();
            tq.q.pop_back();
          }
        }
        for (int k = 1; k < nthreads && t < 0; ++k) {
          ThreadQ& vq = *qs[static_cast<std::size_t>((tid + k) % nthreads)];
          const LockGuard lk(vq.mu);
          if (!vq.q.empty()) {
            t = vq.q.front();
            vq.q.pop_front();
          }
        }
        if (t < 0) {
          if (remaining_.load(std::memory_order_acquire) == 0) break;
          std::this_thread::yield();
          continue;
        }
        run_task(t, tid);
      }
    } catch (...) {
      {
        const LockGuard lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // order: relaxed — same quit flag; first_error was published under
      // error_mu above.
      abort_.store(true, std::memory_order_relaxed);
    }
  };

#pragma omp parallel num_threads(nthreads)
  worker(omp_get_thread_num());

  if (first_error) std::rethrow_exception(first_error);
#if MPCF_CHECKED
  // Counter seeding must exactly match the graph's in-edges: after a clean
  // run every counter has been driven to precisely zero.
  for (int i = 0; i < n; ++i)
    // order: relaxed — workers are joined (omp barrier); this is a
    // single-threaded post-mortem read.
    MPCF_CHECK(pending_[i].load(std::memory_order_relaxed) == 0,
               "StepScheduler: dependency counter nonzero after completed run");
#endif

  if (vmax_per_plan) {
    vmax_per_plan->assign(static_cast<std::size_t>(np), 0.0);
    for (int tid = 0; tid < nthreads; ++tid)
      for (int p = 0; p < np; ++p)
        (*vmax_per_plan)[static_cast<std::size_t>(p)] =
            std::max((*vmax_per_plan)[static_cast<std::size_t>(p)],
                     vm[static_cast<std::size_t>(tid) * np + p]);
  }
  if (times) {
    times->assign(static_cast<std::size_t>(np), PlanTimes{});
    for (int tid = 0; tid < nthreads; ++tid)
      for (int p = 0; p < np; ++p) {
        const PlanTimes& s = tt[static_cast<std::size_t>(tid) * np + p];
        PlanTimes& d = (*times)[static_cast<std::size_t>(p)];
        d.lab += s.lab;
        d.rhs += s.rhs;
        d.up += s.up;
        d.sos += s.sos;
        d.pack += s.pack;
        d.drain += s.drain;
      }
  }
}

}  // namespace mpcf
