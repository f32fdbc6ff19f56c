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

/// Analytic FLOP count of one block reduction (for GFLOP/s reporting).
[[nodiscard]] double sos_flops(int bs);

}  // namespace mpcf::kernels
