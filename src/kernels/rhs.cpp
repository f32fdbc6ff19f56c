#include "kernels/rhs.h"

#include <cstring>

#include "kernels/hlle.h"
#include "kernels/weno.h"
#include "simd/memory_ops.h"

namespace mpcf::kernels {

namespace {

/// Component mapping of a directional sweep: which velocity is face-normal.
struct DirMap {
  int un, ut1, ut2;  // prim/acc indices of normal and transverse velocities
};
constexpr DirMap kDirMap[3] = {{Q_RU, Q_RV, Q_RW}, {Q_RV, Q_RW, Q_RU}, {Q_RW, Q_RU, Q_RV}};

/// CONV: conserved -> primitive over the whole ghost-extended lab.
template <typename T>
void conv_impl(const BlockLab& lab, RhsWorkspace& ws) {
  using simd::fmadd;
  using simd::load_elems;
  using simd::store_elems;
  constexpr int L = simd::Lanes<T>::value;

  const int n = lab.extent();
  const std::size_t total = static_cast<std::size_t>(n) * n * n;
  const Real* rho = lab.q(Q_RHO);
  const Real* ru = lab.q(Q_RU);
  const Real* rv = lab.q(Q_RV);
  const Real* rw = lab.q(Q_RW);
  const Real* E = lab.q(Q_E);
  const Real* G = lab.q(Q_G);
  const Real* P = lab.q(Q_P);
  Real* out[kNumQuantities];
  for (int q = 0; q < kNumQuantities; ++q) out[q] = ws.prim(q);

  std::size_t i = 0;
  for (; i + L <= total; i += L) {
    const T r = load_elems<T>(rho + i);
    const T invr = T(1.0f) / r;
    const T u = load_elems<T>(ru + i) * invr;
    const T v = load_elems<T>(rv + i) * invr;
    const T w = load_elems<T>(rw + i) * invr;
    const T g = load_elems<T>(G + i);
    const T pi = load_elems<T>(P + i);
    const T ke = T(0.5f) * r * fmadd(u, u, fmadd(v, v, w * w));
    const T p = (load_elems<T>(E + i) - ke - pi) / g;
    store_elems(out[Q_RHO] + i, r);
    store_elems(out[Q_RU] + i, u);
    store_elems(out[Q_RV] + i, v);
    store_elems(out[Q_RW] + i, w);
    store_elems(out[Q_E] + i, p);
    store_elems(out[Q_G] + i, g);
    store_elems(out[Q_P] + i, pi);
  }
  if constexpr (L > 1) {
    for (; i < total; ++i) {
      const float r = rho[i], invr = 1.0f / r;
      const float u = ru[i] * invr, v = rv[i] * invr, w = rw[i] * invr;
      const float ke = 0.5f * r * (u * u + v * v + w * w);
      out[Q_RHO][i] = r;
      out[Q_RU][i] = u;
      out[Q_RV][i] = v;
      out[Q_RW][i] = w;
      out[Q_E][i] = (E[i] - ke - P[i]) / G[i];
      out[Q_G][i] = G[i];
      out[Q_P][i] = P[i];
    }
  }
}

/// One fused WENO+HLLE+SUM evaluation at vector position `at` of a sweep.
/// `s` is the stencil stride of the sweep direction. ORDER selects the
/// reconstruction (5 = production WENO5, 3 = the ablation's WENO3).
template <typename T, int ORDER = 5>
inline void faces_fused(RhsWorkspace& ws, const DirMap& dm, std::ptrdiff_t at,
                        std::ptrdiff_t s) {
  using simd::load_elems;

  FaceState<T> sm, sp;
  T* m[kNumQuantities] = {&sm.r, &sm.u, &sm.v, &sm.w, &sm.p, &sm.G, &sm.P};
  T* p[kNumQuantities] = {&sp.r, &sp.u, &sp.v, &sp.w, &sp.p, &sp.G, &sp.P};
  // Source order matching FaceState fields: density, normal velocity,
  // transverse velocities, pressure, Gamma, Pi.
  const int src[kNumQuantities] = {Q_RHO, dm.un, dm.ut1, dm.ut2, Q_E, Q_G, Q_P};
  for (int q = 0; q < kNumQuantities; ++q) {
    const Real* base = ws.prim(src[q]) + at;
    if constexpr (ORDER == 5) {
      const T w0 = load_elems<T>(base - 3 * s);
      const T w1 = load_elems<T>(base - 2 * s);
      const T w2 = load_elems<T>(base - 1 * s);
      const T w3 = load_elems<T>(base);
      const T w4 = load_elems<T>(base + 1 * s);
      const T w5 = load_elems<T>(base + 2 * s);
      *m[q] = weno5_minus(w0, w1, w2, w3, w4);
      *p[q] = weno5_plus(w1, w2, w3, w4, w5);
    } else {
      const T w1 = load_elems<T>(base - 2 * s);
      const T w2 = load_elems<T>(base - 1 * s);
      const T w3 = load_elems<T>(base);
      const T w4 = load_elems<T>(base + 1 * s);
      *m[q] = weno3_minus(w1, w2, w3);
      *p[q] = weno3_plus(w2, w3, w4);
    }
  }

  const Flux<T> f = hlle_flux(sm, sp);

  const T comp[kNumQuantities] = {f.rho, f.ru, f.rv, f.rw, f.E, f.G, f.P};
  const int dst[kNumQuantities] = {Q_RHO, dm.un, dm.ut1, dm.ut2, Q_E, Q_G, Q_P};
  for (int q = 0; q < kNumQuantities; ++q) {
    Real* a = ws.acc(dst[q]) + at;
    simd::sub_store(a - s, comp[q]);  // outflow of cell f-1
    simd::add_store(a, comp[q]);      // inflow of cell f
  }
  Real* us = ws.ustar() + at;
  simd::sub_store(us - s, f.ustar);
  simd::add_store(us, f.ustar);
}

/// Staged variant: WENO results round-trip through the row buffers (the
/// non-fused baseline of Table 9), then a second pass runs HLLE+SUM.
template <typename T>
inline void faces_staged_weno(RhsWorkspace& ws, const DirMap& dm, std::ptrdiff_t at,
                              std::ptrdiff_t s, int bidx) {
  using simd::load_elems;
  const int src[kNumQuantities] = {Q_RHO, dm.un, dm.ut1, dm.ut2, Q_E, Q_G, Q_P};
  for (int q = 0; q < kNumQuantities; ++q) {
    const Real* base = ws.prim(src[q]) + at;
    const T w0 = load_elems<T>(base - 3 * s);
    const T w1 = load_elems<T>(base - 2 * s);
    const T w2 = load_elems<T>(base - 1 * s);
    const T w3 = load_elems<T>(base);
    const T w4 = load_elems<T>(base + 1 * s);
    const T w5 = load_elems<T>(base + 2 * s);
    simd::store_elems(ws.row(2 * q) + bidx, weno5_minus(w0, w1, w2, w3, w4));
    simd::store_elems(ws.row(2 * q + 1) + bidx, weno5_plus(w1, w2, w3, w4, w5));
  }
}

template <typename T>
inline void faces_staged_hlle(RhsWorkspace& ws, const DirMap& dm, std::ptrdiff_t at,
                              std::ptrdiff_t s, int bidx) {
  using simd::load_elems;
  FaceState<T> sm{load_elems<T>(ws.row(0) + bidx),  load_elems<T>(ws.row(2) + bidx),
                  load_elems<T>(ws.row(4) + bidx),  load_elems<T>(ws.row(6) + bidx),
                  load_elems<T>(ws.row(8) + bidx),  load_elems<T>(ws.row(10) + bidx),
                  load_elems<T>(ws.row(12) + bidx)};
  FaceState<T> sp{load_elems<T>(ws.row(1) + bidx),  load_elems<T>(ws.row(3) + bidx),
                  load_elems<T>(ws.row(5) + bidx),  load_elems<T>(ws.row(7) + bidx),
                  load_elems<T>(ws.row(9) + bidx),  load_elems<T>(ws.row(11) + bidx),
                  load_elems<T>(ws.row(13) + bidx)};
  const Flux<T> f = hlle_flux(sm, sp);
  const T comp[kNumQuantities] = {f.rho, f.ru, f.rv, f.rw, f.E, f.G, f.P};
  const int dst[kNumQuantities] = {Q_RHO, dm.un, dm.ut1, dm.ut2, Q_E, Q_G, Q_P};
  for (int q = 0; q < kNumQuantities; ++q) {
    Real* a = ws.acc(dst[q]) + at;
    simd::sub_store(a - s, comp[q]);
    simd::add_store(a, comp[q]);
  }
  Real* us = ws.ustar() + at;
  simd::sub_store(us - s, f.ustar);
  simd::add_store(us, f.ustar);
}

/// Directional sweep over all faces of the block. Vectorizes over the face
/// index for the x sweep and over x cells for the y/z sweeps.
template <typename T, int ORDER = 5>
void sweep(RhsWorkspace& ws, int dir, bool staged) {
  constexpr int L = simd::Lanes<T>::value;
  const int bs = ws.block_size();
  const int n = ws.extent();
  const std::ptrdiff_t stride[3] = {1, n, static_cast<std::ptrdiff_t>(n) * n};
  const std::ptrdiff_t s = stride[dir];
  const DirMap dm = kDirMap[dir];

  if (!staged) {
    if (dir == 0) {
      for (int iz = 0; iz < bs; ++iz)
        for (int iy = 0; iy < bs; ++iy) {
          const std::ptrdiff_t rowbase = ws.offset(0, iy, iz);
          int f = 0;
          for (; f + L <= bs + 1; f += L) faces_fused<T, ORDER>(ws, dm, rowbase + f, s);
          for (; f <= bs; ++f) faces_fused<float, ORDER>(ws, dm, rowbase + f, s);
        }
      return;
    }
    // y or z sweep: the outer "slice" coordinate is the remaining dimension;
    // dir==1: slices are z-planes; dir==2: slices are y-planes. The scalar
    // tail covers block sizes that are not a multiple of the vector width.
    for (int k = 0; k < bs; ++k) {
      const std::ptrdiff_t slicebase =
          (dir == 1) ? ws.offset(0, 0, k) : ws.offset(0, k, 0);
      for (int f = 0; f <= bs; ++f) {
        const std::ptrdiff_t facebase = slicebase + f * s;
        int ix = 0;
        for (; ix + L <= bs; ix += L) faces_fused<T, ORDER>(ws, dm, facebase + ix, s);
        for (; ix < bs; ++ix) faces_fused<float, ORDER>(ws, dm, facebase + ix, s);
      }
    }
    return;
  }

  // Staged (the Table 9 baseline): the WENO pass reconstructs every face of
  // the whole directional sweep into the block-wide face buffers, then the
  // HLLE pass reads them back — the memory round-trip micro-fusion removes.
  for (int pass = 0; pass < 2; ++pass) {
    if (dir == 0) {
      for (int iz = 0; iz < bs; ++iz)
        for (int iy = 0; iy < bs; ++iy) {
          const std::ptrdiff_t rowbase = ws.offset(0, iy, iz);
          const int bidx0 = (bs + 1) * (iy + bs * iz);
          int f = 0;
          for (; f + L <= bs + 1; f += L) {
            if (pass == 0)
              faces_staged_weno<T>(ws, dm, rowbase + f, s, bidx0 + f);
            else
              faces_staged_hlle<T>(ws, dm, rowbase + f, s, bidx0 + f);
          }
          for (; f <= bs; ++f) {
            if (pass == 0)
              faces_staged_weno<float>(ws, dm, rowbase + f, s, bidx0 + f);
            else
              faces_staged_hlle<float>(ws, dm, rowbase + f, s, bidx0 + f);
          }
        }
      continue;
    }
    for (int k = 0; k < bs; ++k) {
      const std::ptrdiff_t slicebase =
          (dir == 1) ? ws.offset(0, 0, k) : ws.offset(0, k, 0);
      for (int f = 0; f <= bs; ++f) {
        const std::ptrdiff_t facebase = slicebase + f * s;
        const int bidx0 = bs * (f + (bs + 1) * k);
        int ix = 0;
        for (; ix + L <= bs; ix += L) {
          if (pass == 0)
            faces_staged_weno<T>(ws, dm, facebase + ix, s, bidx0 + ix);
          else
            faces_staged_hlle<T>(ws, dm, facebase + ix, s, bidx0 + ix);
        }
        for (; ix < bs; ++ix) {
          if (pass == 0)
            faces_staged_weno<float>(ws, dm, facebase + ix, s, bidx0 + ix);
          else
            faces_staged_hlle<float>(ws, dm, facebase + ix, s, bidx0 + ix);
        }
      }
    }
  }
}

/// Instantiates the three directional sweeps at pipeline shape x width.
template <int ORDER>
void sweep_all(RhsWorkspace& ws, bool staged, simd::Width w) {
  switch (w) {
    case simd::Width::kScalar:
      for (int dir = 0; dir < 3; ++dir) sweep<float, ORDER>(ws, dir, staged);
      return;
    case simd::Width::kW8:
      for (int dir = 0; dir < 3; ++dir) sweep<simd::vec8, ORDER>(ws, dir, staged);
      return;
    default:
      for (int dir = 0; dir < 3; ++dir) sweep<simd::vec4, ORDER>(ws, dir, staged);
      return;
  }
}

/// BACK: RHS <- acc/h with the quasi-conservative Gamma/Pi fix, written into
/// the block's AoS tmp area as tmp <- a*tmp + RHS.
void back(RhsWorkspace& ws, Real h, Real a, Block& block) {
  const int bs = ws.block_size();
  const Real invh = Real(1) / h;
  for (int iz = 0; iz < bs; ++iz)
    for (int iy = 0; iy < bs; ++iy)
      for (int ix = 0; ix < bs; ++ix) {
        const std::size_t o = ws.offset(ix, iy, iz);
        Cell& t = block.tmp(ix, iy, iz);
        for (int q = 0; q < Q_G; ++q) t.q(q) = a * t.q(q) + ws.acc(q)[o] * invh;
        // d(phi)/dt = -div(phi u) + phi div(u); acc already holds -h*div.
        const Real du = ws.ustar()[o];
        t.G = a * t.G + (ws.acc(Q_G)[o] - ws.prim(Q_G)[o] * du) * invh;
        t.P = a * t.P + (ws.acc(Q_P)[o] - ws.prim(Q_P)[o] * du) * invh;
      }
}

}  // namespace

void RhsWorkspace::resize(int bs, int ghosts) {
  require(valid_block_size(bs), "RhsWorkspace: block size must be a positive multiple of 4");
  require(ghosts >= 3, "RhsWorkspace: WENO5 needs at least 3 ghosts");
  bs_ = bs;
  g_ = ghosts;
  n_ = bs + 2 * ghosts;
  for (auto& f : prim_) f.reset(n_, n_, n_);
  for (auto& f : acc_) f.reset(n_, n_, n_);
  ustar_.reset(n_, n_, n_);
  // Face buffers of the staged (non-fused) variant cover a whole directional
  // sweep: (bs+1) faces x bs^2 rows per quantity-side; padded for the widest
  // vector store.
  const std::size_t rowlen =
      static_cast<std::size_t>(bs + 1) * bs * bs + simd::kMaxLanes;
  for (auto& r : rows_) r.reset(rowlen);
}

void RhsWorkspace::zero_accumulators() {
  const std::size_t total = static_cast<std::size_t>(n_) * n_ * n_;
  for (auto& f : acc_) std::memset(f.data(), 0, total * sizeof(Real));
  std::memset(ustar_.data(), 0, total * sizeof(Real));
}

void convert_to_primitive(const BlockLab& lab, RhsWorkspace& ws, KernelImpl impl,
                          simd::Width width) {
  require(lab.block_size() == ws.block_size() && lab.ghosts() == ws.ghosts(),
          "convert_to_primitive: lab/workspace shape mismatch");
  const simd::Width w =
      impl == KernelImpl::kScalar ? simd::Width::kScalar : simd::resolve_width(width);
  switch (w) {
    case simd::Width::kScalar:
      conv_impl<float>(lab, ws);
      break;
    case simd::Width::kW8:
      conv_impl<simd::vec8>(lab, ws);
      break;
    default:
      conv_impl<simd::vec4>(lab, ws);
      break;
  }
}

void rhs_block(const BlockLab& lab, Real h, Real a, Block& block, RhsWorkspace& ws,
               KernelImpl impl, int weno_order, simd::Width width) {
  require(block.size() == ws.block_size(), "rhs_block: block/workspace shape mismatch");
  require(weno_order == 3 || weno_order == 5, "rhs_block: WENO order must be 3 or 5");
  const simd::Width w =
      impl == KernelImpl::kScalar ? simd::Width::kScalar : simd::resolve_width(width);
  convert_to_primitive(lab, ws, impl, w);
  ws.zero_accumulators();
  const bool staged = impl == KernelImpl::kSimd;
  if (weno_order == 5) {
    sweep_all<5>(ws, staged, w);
  } else {
    // The ablation order: always fused (staging buffers are sized for the
    // production pipeline; the comparison of interest is accuracy/cost).
    sweep_all<3>(ws, /*staged=*/false, w);
  }
  back(ws, h, a, block);
}

double rhs_flops(int bs) {
  const double n = bs + 2.0 * kGhosts;
  const double conv = 14.0 * n * n * n;
  const double faces = 3.0 * (bs + 1.0) * bs * bs;
  const double per_face = 2.0 * kNumQuantities * kWenoFlops + kHlleFlops + 16.0;
  const double back_cost = 25.0 * bs * bs * static_cast<double>(bs);
  return conv + faces * per_face + back_cost;
}

}  // namespace mpcf::kernels
