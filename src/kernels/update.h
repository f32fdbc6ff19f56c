// UP kernel (paper Fig. 1): the low-storage Runge-Kutta state update
// u <- u + b*dt * du. Pure streaming axpy over the block storage — the
// paper's lowest operational-intensity kernel (0.2 FLOP/B, Table 3), which
// is why it stays at ~2% of peak regardless of vectorization (Table 7).
// Every width computes bitwise-identical results (the arithmetic is
// elementwise and width-invariant for an axpy), so the width never affects
// simulation output.
#pragma once

#include "grid/block.h"
#include "simd/dispatch.h"

namespace mpcf::kernels {

/// Scalar reference: data += bdt * tmp, all quantities, all cells.
void update_block(Block& block, Real bdt);

/// Vectorized implementation; `width` pins the backend, kAuto resolves
/// through simd::resolve_width like the RHS and SOS kernels.
void update_block_simd(Block& block, Real bdt, simd::Width width = simd::Width::kAuto);

/// Analytic FLOP count of one block update.
[[nodiscard]] double update_flops(int bs);

}  // namespace mpcf::kernels
