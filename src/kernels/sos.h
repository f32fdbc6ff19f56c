// SOS / DT kernel (paper Fig. 1): per-block maximum characteristic velocity
// max(|u_d|) + c, reduced globally to obtain the time step dt = CFL*h/max.
// Reductions accumulate in double (mixed precision, paper Section 7).
#pragma once

#include "grid/block.h"
#include "simd/dispatch.h"

namespace mpcf::kernels {

/// Scalar reference implementation.
[[nodiscard]] double block_max_speed(const Block& block);

/// Vectorized implementation (QPX analogue); `width` pins the backend
/// (kAuto = runtime dispatch).
[[nodiscard]] double block_max_speed_simd(const Block& block,
                                          simd::Width width = simd::Width::kAuto);

/// Reduction-into-accumulator entry point for the step scheduler:
/// max-combines the block's maximum characteristic velocity into `acc`
/// (per-thread running max; thread accumulators max-combine at the join, so
/// the folded reduction is bitwise-equal to the standalone sweep — max is
/// order-independent). `simd` false pins the scalar reference path.
void block_max_speed_accumulate(const Block& block, bool simd, simd::Width width,
                                double& acc);

/// Analytic FLOP count of one block reduction (for GFLOP/s reporting).
[[nodiscard]] double sos_flops(int bs);

}  // namespace mpcf::kernels
