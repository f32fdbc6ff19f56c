// Wall-clock accounting per compute kernel, mirroring the paper's Fig. 7
// time-distribution breakdown and the imbalance metric of Table 4:
// (t_max - t_min) / t_avg across workers.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace mpcf {

/// Accumulated wall-clock seconds per simulation stage.
struct StepProfile {
  double rhs = 0;   ///< RHS evaluation (incl. ghost reconstruction)
  double lab = 0;   ///< ghost-lab assembly (subset of rhs; thread-seconds)
  double dt = 0;    ///< SOS reduction
  double up = 0;    ///< RK update
  double io = 0;    ///< compressed data dumps (FWT + encode + write)
  long steps = 0;   ///< number of completed steps
  /// Standalone SOS grid sweeps executed by compute_dt. The step graph folds
  /// the reduction into its final-stage updates, so in steady state this
  /// stays at the one step-0 sweep — the counter is how tests verify the
  /// seventh sweep is actually gone.
  long sos_sweeps = 0;

  [[nodiscard]] double total() const { return rhs + dt + up + io; }

  void reset() { *this = StepProfile{}; }
};

/// Simple monotonic timer.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Work-imbalance statistic across per-worker times (paper Table 4).
[[nodiscard]] inline double imbalance(const std::vector<double>& worker_times) {
  if (worker_times.empty()) return 0.0;
  const auto [mn, mx] = std::minmax_element(worker_times.begin(), worker_times.end());
  double sum = 0;
  for (double t : worker_times) sum += t;
  const double avg = sum / worker_times.size();
  return avg > 0 ? (*mx - *mn) / avg : 0.0;
}

}  // namespace mpcf
