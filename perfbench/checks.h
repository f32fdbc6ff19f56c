// Output checks of the benchmark of record. Each returns the names of the
// checks an operation failed (empty = passed) so the ledger can count it.
#pragma once

#include <string>
#include <vector>

#include "compression/compressor.h"
#include "grid/grid.h"

namespace perfbench {

/// Stated tolerance of the mass check: |mass - mass0| / mass0. Absorbing
/// faces let acoustic waves carry mass across the boundary, so the check
/// allows a drift well above what a healthy run shows (below 2e-4 over the
/// first 80 steps of cloud_collapse.cfg); the blow-up of that config drifts
/// 1.7% at step 88 and 9.8% at step 90.
inline constexpr double kMassTolerance = 1e-2;

struct StateScan {
  double mass = 0;       ///< integral of rho dV [kg]
  bool finite = true;    ///< every conserved quantity finite
};

/// Mass and finiteness of a grid's cells (OpenMP over blocks).
[[nodiscard]] StateScan scan_state(const mpcf::Grid& g);

/// Step checks: the state is finite, mass stays within kMassTolerance of
/// `mass0`, and the step did not clamp every one of `cells` cells.
[[nodiscard]] std::vector<std::string> step_failures(const StateScan& s, double mass0,
                                                     long clamped_this_step, long cells);

/// Decodes the dump at `path` and compares it with the quantity `params`
/// selects on `ref`: the L-inf error must stay within the error model of
/// the uniform-threshold wavelet decimation (see checks.cpp).
[[nodiscard]] std::vector<std::string> dump_failures(
    const std::string& path, const mpcf::Grid& ref,
    const mpcf::compression::CompressionParams& params);

/// Copy of every cell of `g` (block storage order) for bitwise comparison.
[[nodiscard]] std::vector<mpcf::Cell> snapshot(const mpcf::Grid& g);

/// Index of the first cell whose bytes differ from `snap`, or -1.
[[nodiscard]] long first_difference(const mpcf::Grid& g, const std::vector<mpcf::Cell>& snap);

}  // namespace perfbench
