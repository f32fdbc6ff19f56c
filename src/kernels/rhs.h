// RHS kernel: evaluates the flux divergence of the governing equations for
// one block and accumulates it into the block's low-storage Runge-Kutta
// buffer:  tmp <- a * tmp + RHS(lab).
//
// The evaluation follows the paper's staged pipeline (Fig. 1, right):
//   CONV  conserved -> primitive on the ghost-extended lab,
//   WENO  face reconstruction of primitives (x/y/z directional sweeps),
//   HLLE  numerical flux at faces,
//   SUM   flux-difference accumulation (+ the Gamma/Pi divergence fix),
//   BACK  write-back into the block AoS tmp area.
//
// Three pipeline shapes share one expression tree:
//   kScalar    float instantiation (the paper's "C++" column, Table 7),
//   kSimd      staged: WENO faces stored to row buffers, HLLE second
//              pass (the "baseline" of Table 9),
//   kSimdFused micro-fused: WENO+HLLE+SUM per face in registers
//              (the "fused" column of Table 9).
// The vector shapes (kSimd/kSimdFused) additionally instantiate at a
// vector width — vec4 (SSE, the paper's QPX conversion) or vec8
// (AVX2+FMA, the Section 8.1 retarget) — selected at runtime by
// simd::dispatch_width() unless pinned.
#pragma once

#include "common/field3d.h"
#include "grid/block.h"
#include "grid/lab.h"
#include "simd/dispatch.h"

namespace mpcf::kernels {

enum class KernelImpl { kScalar, kSimd, kSimdFused };

/// Block sizes the RHS workspace, and so every simulation, accepts:
/// positive multiples of the 4-lane vector width. All of them are at least
/// kGhosts deep, so a block's ghosts come from its face neighbours only.
[[nodiscard]] constexpr bool valid_block_size(int bs) noexcept { return bs > 0 && bs % 4 == 0; }
static_assert(kGhosts <= 4, "the smallest valid block must cover the ghost depth");

/// Per-thread scratch for one block evaluation: ghost-extended primitive
/// arrays, flux-difference accumulators, and staged-WENO row buffers.
class RhsWorkspace {
 public:
  void resize(int bs, int ghosts = kGhosts);

  [[nodiscard]] int block_size() const noexcept { return bs_; }
  [[nodiscard]] int ghosts() const noexcept { return g_; }
  [[nodiscard]] int extent() const noexcept { return n_; }

  /// Primitive array q in {r,u,v,w,p,G,P} order; same ghost layout as a lab.
  [[nodiscard]] Real* prim(int q) noexcept { return prim_[q].data(); }
  [[nodiscard]] const Real* prim(int q) const noexcept { return prim_[q].data(); }
  /// Flux-difference accumulator for conserved component q.
  [[nodiscard]] Real* acc(int q) noexcept { return acc_[q].data(); }
  /// Accumulator of the face-velocity differences (Gamma/Pi correction).
  [[nodiscard]] Real* ustar() noexcept { return ustar_.data(); }
  /// Staged-WENO row buffer r in [0, 14): minus/plus faces of 7 quantities.
  [[nodiscard]] Real* row(int r) noexcept { return rows_[r].data(); }

  /// Offset of cell (ix,iy,iz), block-local, ghosts included (ix >= -g).
  [[nodiscard]] std::size_t offset(int ix, int iy, int iz) const noexcept {
    return (ix + g_) +
           static_cast<std::size_t>(n_) *
               ((iy + g_) + static_cast<std::size_t>(n_) * (iz + g_));
  }

  void zero_accumulators();

 private:
  int bs_ = 0, g_ = 0, n_ = 0;
  Field3D<Real> prim_[kNumQuantities];
  Field3D<Real> acc_[kNumQuantities];
  Field3D<Real> ustar_;
  AlignedBuffer<Real> rows_[2 * kNumQuantities];
};

/// CONV stage alone (exposed for tests and the stage-weight benchmarks).
/// `width` pins the vector width of the kSimd*/kSimdFused shapes (kAuto =
/// runtime dispatch); kScalar ignores it.
void convert_to_primitive(const BlockLab& lab, RhsWorkspace& ws, KernelImpl impl,
                          simd::Width width = simd::Width::kAuto);

/// Full RHS evaluation of one block: block.tmp <- a * block.tmp + RHS.
/// `h` is the cell spacing; `lab` must hold the block plus WENO ghosts.
/// `weno_order` selects the reconstruction (5 = production, 3 = ablation).
/// `width` pins the vector width (kAuto = runtime dispatch; ignored by
/// kScalar).
void rhs_block(const BlockLab& lab, Real h, Real a, Block& block, RhsWorkspace& ws,
               KernelImpl impl = KernelImpl::kSimdFused, int weno_order = 5,
               simd::Width width = simd::Width::kAuto);

/// Analytic FLOP count of one rhs_block call (for GFLOP/s reporting).
[[nodiscard]] double rhs_flops(int bs);

}  // namespace mpcf::kernels
