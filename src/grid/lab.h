// BlockLab: a per-thread working copy of one block extended by the ghost
// layer required by the WENO5 stencil, converted from the AoS block storage
// into SoA arrays (paper Fig. 2: "AoS/SoA conversion during the evaluation of
// the RHS"). Each OpenMP thread owns one lab and reuses its memory across
// blocks (paper Section 6, node layer).
//
// Two assembly paths fill a lab:
//  - load(..., Fetch&&): the per-cell reference path — every ghost cell goes
//    through a fetch callback. Kept as the differential-testing oracle.
//  - load(..., bc [, halo]): bulk assembly — the interior transposes
//    row-by-row straight out of the source block, and ghost cells resolve
//    through per-axis fold tables computed once per load (BCs folded
//    per-axis-entry, not per-cell). A cluster rank passes its received
//    face slabs as `halo`: the fold tables then route the ghosts beyond a
//    neighbour's face to that slab, so one module decides where every ghost
//    cell comes from.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/config.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "simd/vec8.h"  // MPCF_SIMD_AVX2 + intrinsics for the AoS->SoA transpose

namespace mpcf {

/// The six face slabs of ghost cells a cluster rank receives from its
/// neighbours, indexed [axis*2+side]. Each slab is x-fastest over the grid's
/// cell extents with kGhosts layers along its face axis; layer 0 is the
/// farthest layer on the low side and the nearest on the high side. An empty
/// slab (no neighbour, or nothing received yet) leaves its face to the
/// local fold.
using HaloSlabs = std::array<std::vector<Cell>, 6>;

class BlockLab {
 public:
  BlockLab() = default;

  /// Allocates storage for a block of edge `bs` with `ghosts` ghost cells.
  void resize(int bs, int ghosts = kGhosts) {
    require(bs > 0 && ghosts >= 0, "BlockLab: bad extents");
    bs_ = bs;
    g_ = ghosts;
    n_ = bs + 2 * ghosts;
    const std::size_t per_q = static_cast<std::size_t>(n_) * n_ * n_;
    storage_.reset(per_q * kNumQuantities);
    per_q_ = per_q;
    // mpcf-lint: allow(kernel-alloc): one-time lab (re)allocation; load() reuses these tables per block
    for (auto& t : fold_) t.resize(n_);
    // mpcf-lint: allow(kernel-alloc): one-time lab (re)allocation; load() reuses the columns per block
    cols_.resize(2 * static_cast<std::size_t>(ghosts));
  }

  [[nodiscard]] int block_size() const noexcept { return bs_; }
  [[nodiscard]] int ghosts() const noexcept { return g_; }
  /// Extended edge length (bs + 2*ghosts).
  [[nodiscard]] int extent() const noexcept { return n_; }

  /// Quantity plane base pointer (SoA).
  [[nodiscard]] Real* q(int quantity) noexcept { return storage_.data() + quantity * per_q_; }
  [[nodiscard]] const Real* q(int quantity) const noexcept {
    return storage_.data() + quantity * per_q_;
  }

  /// Element access with block-local coordinates in [-ghosts, bs+ghosts).
  [[nodiscard]] Real& operator()(int quantity, int ix, int iy, int iz) MPCF_NOEXCEPT {
    MPCF_CHECK(quantity >= 0 && quantity < kNumQuantities,
               "BlockLab quantity " + std::to_string(quantity));
    return q(quantity)[offset(ix, iy, iz)];
  }
  [[nodiscard]] const Real& operator()(int quantity, int ix, int iy,
                                       int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(quantity >= 0 && quantity < kNumQuantities,
               "BlockLab quantity " + std::to_string(quantity));
    return q(quantity)[offset(ix, iy, iz)];
  }

  [[nodiscard]] std::size_t offset(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= -g_ && ix < bs_ + g_ && iy >= -g_ && iy < bs_ + g_ &&
                   iz >= -g_ && iz < bs_ + g_,
               "BlockLab cell (" + std::to_string(ix) + "," + std::to_string(iy) +
                   "," + std::to_string(iz) + ") outside [" + std::to_string(-g_) +
                   "," + std::to_string(bs_ + g_) + ")^3");
    return (ix + g_) +
           static_cast<std::size_t>(n_) *
               ((iy + g_) + static_cast<std::size_t>(n_) * (iz + g_));
  }

  /// Per-cell reference path: loads block (bx,by,bz) of `grid` plus ghosts.
  /// `fetch(ix,iy,iz) -> Cell` must resolve any global cell coordinate
  /// outside this block (other blocks, domain boundaries, or — in the
  /// cluster layer — halo buffers).
  template <typename Fetch>
    requires std::invocable<Fetch&, int, int, int>
  void load(const Grid& grid, int bx, int by, int bz, Fetch&& fetch) {
    const Block& block = grid.block(bx, by, bz);
    const int ox = bx * bs_, oy = by * bs_, oz = bz * bs_;
    for (int iz = -g_; iz < bs_ + g_; ++iz)
      for (int iy = -g_; iy < bs_ + g_; ++iy)
        for (int ix = -g_; ix < bs_ + g_; ++ix) {
          const bool interior = ix >= 0 && ix < bs_ && iy >= 0 && iy < bs_ &&
                                iz >= 0 && iz < bs_;
          const Cell c =
              interior ? block(ix, iy, iz) : fetch(ox + ix, oy + iy, oz + iz);
          const std::size_t o = offset(ix, iy, iz);
          Real* base = storage_.data();
          for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + o] = c.q(k);
        }
  }

  /// Bulk assembly: interior rows transpose straight from the source block;
  /// ghost cells resolve through per-axis fold tables (BCs folded once per
  /// axis entry). With `halo` (a cluster rank's received face slabs), a fold
  /// entry whose unfolded coordinate leaves the grid on a side with a
  /// non-empty slab is a halo entry; a lab cell with exactly one halo axis
  /// reads that face's slab at the other axes' folded cells and signs, and
  /// every other cell takes the local fold.
  void load(const Grid& grid, int bx, int by, int bz, const BoundaryConditions& bc,
            const HaloSlabs* halo = nullptr) {
    const Block& block = grid.block(bx, by, bz);
    const int origin[3] = {bx * bs_, by * bs_, bz * bs_};
    build_fold_tables(grid, origin, bc, halo);

    // Interior: row-by-row AoS -> SoA transpose, no index folding at all.
    for (int iz = 0; iz < bs_; ++iz)
      for (int iy = 0; iy < bs_; ++iy)
        copy_row_transposed(&block(0, iy, iz), offset(0, iy, iz), bs_, Real(1), Real(1));

    // X-edge ghosts of interior rows: the y/z folds are identity there, so
    // each column's source is constant over the whole face — sweep the rows
    // once with all per-column constants hoisted.
    const int bs = bs_;
    fill_x_edges(grid, by, bz, halo);

    // Remaining ghost shell: rows whose y/z coordinate is itself a ghost.
    // Their x-interior span [0, bs) never folds along x, so it is one
    // contiguous cell run of a single source block (or, with exactly one
    // halo axis among y/z, of that face's slab) and goes through the same
    // transposed copy as interior rows with the row's y/z momentum signs.
    for (int iz = -g_; iz < bs + g_; ++iz)
      for (int iy = -g_; iy < bs + g_; ++iy) {
        if (iy >= 0 && iy < bs && iz >= 0 && iz < bs) continue;  // handled above
        fill_ghost_span(grid, -g_, 0, iy, iz, halo);
        const Fold& fy = fold_[1][iy + g_];
        const Fold& fz = fold_[2][iz + g_];
        const Cell* src;
        if ((fy.face >= 0) != (fz.face >= 0))
          src = slab_cell(*halo, std::max(fy.face, fz.face), origin[0], fy.sc, fz.sc);
        else
          src = &grid.block(bx, fy.block, fz.block)(0, fy.cell, fz.cell);
        copy_row_transposed(src, offset(0, iy, iz), bs, fy.sign, fz.sign);
        fill_ghost_span(grid, bs, bs + g_, iy, iz, halo);
      }
  }

  /// Consumption hook for the step scheduler: the set of source blocks
  /// the last bulk load() may have read, linearized through `idx` and
  /// appended to `out` sorted ascending (out is cleared first). Computed as
  /// the product of the per-axis fold tables, so it is a conservative
  /// superset of the actual reads (a halo read still counts its locally
  /// folded block). Valid only after a bulk load; the per-cell
  /// oracle path does not build fold tables. The scheduler cross-validates
  /// this against BlockTopology::readset under MPCF_CHECKED.
  void read_block_set(const BlockIndexer& idx, std::vector<int>& out) const {
    out.clear();
    // Distinct per-axis source blocks, in fold-table order.
    // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
    std::vector<int> ax[3];
    for (int a = 0; a < 3; ++a) {
      for (int i = 0; i < n_; ++i) {
        const int b = fold_[a][i].block;
        bool seen = false;
        for (const int e : ax[a]) seen = seen || e == b;
        // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
        if (!seen) ax[a].push_back(b);
      }
    }
    for (const int bz : ax[2])
      for (const int by : ax[1])
        // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
        for (const int bx : ax[0]) out.push_back(idx.linear(bx, by, bz));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

 private:
  /// Fold table entry for one lab coordinate along one axis.
  struct Fold {
    int block;  ///< locally folded source block index along the axis
    int cell;   ///< locally folded source cell index within that block
    Real sign;  ///< momentum sign of the axis component
    int face;   ///< halo face (axis*2+side) beyond the grid, or -1
    int sc;     ///< slab coordinate: the layer for a halo entry, else the folded grid cell
  };

  /// Halo entries only arise on faces with a neighbour, whose rank BC is
  /// absorbing or periodic, so their local sign is 1 as well: a slab read
  /// uses the three entries' signs unchanged.
  void build_fold_tables(const Grid& grid, const int origin[3],
                         const BoundaryConditions& bc, const HaloSlabs* halo) {
    ncells_[0] = grid.cells_x();
    ncells_[1] = grid.cells_y();
    ncells_[2] = grid.cells_z();
    for (int a = 0; a < 3; ++a) {
      std::vector<Fold>& t = fold_[a];
      for (int i = -g_; i < bs_ + g_; ++i) {
        const int gcoord = origin[a] + i;
        const FoldedIndex f = fold_index(gcoord, ncells_[a], bc, a);
        Fold e{f.i / bs_, f.i % bs_, f.mom_sign, -1, f.i};
        const bool lo = gcoord < 0, hi = gcoord >= ncells_[a];
        if (halo != nullptr && (lo || hi) && !(*halo)[a * 2 + hi].empty()) {
          MPCF_CHECK(g_ <= kGhosts && (*halo)[a * 2 + hi].size() ==
                                          static_cast<std::size_t>(kGhosts) * ncells_[0] *
                                              ncells_[1] * ncells_[2] / ncells_[a],
                     "BlockLab: halo slab " + std::to_string(a * 2 + hi) +
                         " does not match the grid");
          e.face = a * 2 + hi;
          e.sc = lo ? gcoord + kGhosts : gcoord - ncells_[a];
        }
        t[i + g_] = e;
      }
    }
  }

  /// The cell of halo face `face` at slab coordinates (sx, sy, sz).
  [[nodiscard]] const Cell* slab_cell(const HaloSlabs& halo, int face, int sx, int sy,
                                      int sz) const noexcept {
    const int axis = face / 2;
    const std::size_t nx = axis == 0 ? kGhosts : ncells_[0];
    const std::size_t ny = axis == 1 ? kGhosts : ncells_[1];
    return halo[face].data() + (sx + nx * (sy + ny * sz));
  }

#if MPCF_SIMD_AVX2
  /// In-register 8x8 transpose of 8 AoS cell rows into the 7 quantity
  /// vectors (the transposed column 7 is garbage and is never produced).
  static void transpose8(__m256 r0, __m256 r1, __m256 r2, __m256 r3, __m256 r4,
                         __m256 r5, __m256 r6, __m256 r7,
                         __m256 qv[kNumQuantities]) noexcept {
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    qv[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    qv[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    qv[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    qv[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    qv[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    qv[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    qv[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  }
#endif

  /// Transposes `count` consecutive AoS source cells into the SoA quantity
  /// planes at destination offset `o`, scaling the y/z momentum by the row's
  /// fold signs. The workhorse of bulk assembly: interior rows and the
  /// unfolded x-span of ghost rows are contiguous cell runs in some source
  /// block and funnel through here.
  void copy_row_transposed(const Cell* src, std::size_t o, int count, Real sy, Real sz) {
    Real* const base = storage_.data();
    int c = 0;
#if MPCF_SIMD_AVX2
    // Groups of 8 cells: row i holds cell i's 7 quantities (the overlapping
    // unaligned load picks up the first float of cell i+1 in lane 7). Row 7
    // uses a masked 7-float load so a group ending on the last cell of a
    // block never reads past its storage.
    const __m256i mask7 = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, -1, 0);
    const __m256 vsy = _mm256_set1_ps(sy), vsz = _mm256_set1_ps(sz);
    const bool flip = sy != Real(1) || sz != Real(1);
    __m256 qv[kNumQuantities];
    for (; c + 8 <= count; c += 8) {
      const float* fp = &src[c].rho;
      transpose8(_mm256_loadu_ps(fp), _mm256_loadu_ps(fp + 7), _mm256_loadu_ps(fp + 14),
                 _mm256_loadu_ps(fp + 21), _mm256_loadu_ps(fp + 28),
                 _mm256_loadu_ps(fp + 35), _mm256_loadu_ps(fp + 42),
                 _mm256_maskload_ps(fp + 49, mask7), qv);
      if (flip) {
        qv[2] = _mm256_mul_ps(qv[2], vsy);  // rv
        qv[3] = _mm256_mul_ps(qv[3], vsz);  // rw
      }
      for (int k = 0; k < kNumQuantities; ++k)
        _mm256_storeu_ps(base + k * per_q_ + o + c, qv[k]);
    }
#endif
    for (; c < count; ++c) {
      Cell cell = src[c];
      cell.rv *= sy;
      cell.rw *= sz;
      const std::size_t oc = o + c;
      for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + oc] = cell.q(k);
    }
  }

  /// One x-ghost column of fill_x_edges: its source cell for lab row (0, 0)
  /// and the source strides per lab row and plane.
  struct Col {
    const Cell* src;
    std::size_t ys, zs;
    std::size_t doff;  ///< lab-row-relative destination offset
    Real sign;         ///< x-momentum sign
  };

  /// Fills the 2*g x-ghost columns of every interior row in one sweep. The
  /// y/z folds are identity on those rows, so each column's source (a block
  /// of the grid, or the x-face slab for a halo column), source x-cell, and
  /// momentum sign are constant over the whole face and resolve once; the
  /// row loop then copies 2*g cells per row while the destination cache
  /// lines are hot.
  void fill_x_edges(const Grid& grid, int by, int bz, const HaloSlabs* halo) {
    const int ncols = 2 * g_;
    const std::size_t bs = static_cast<std::size_t>(bs_);
    for (int j = 0; j < ncols; ++j) {
      const int ix = j < g_ ? j - g_ : bs_ + j - g_;
      const Fold& fx = fold_[0][ix + g_];
      Col& cl = cols_[j];
      cl.doff = static_cast<std::size_t>(j < g_ ? j : bs_ + j);
      cl.sign = fx.sign;
      if (fx.face >= 0) {
        cl.src = slab_cell(*halo, fx.face, fx.sc, fold_[1][g_].sc, fold_[2][g_].sc);
        cl.ys = kGhosts;
        cl.zs = kGhosts * static_cast<std::size_t>(ncells_[1]);
      } else {
        cl.src = grid.block(fx.block, by, bz).data() + fx.cell;
        cl.ys = bs;
        cl.zs = bs * bs;
      }
    }

    Real* const base = storage_.data();
    for (int iz = 0; iz < bs_; ++iz) {
      std::size_t o_row = offset(-g_, 0, iz);
      for (int iy = 0; iy < bs_; ++iy, o_row += n_) {
        for (int j = 0; j < ncols; ++j) {
          const Col& cl = cols_[j];
          Cell c = cl.src[iy * cl.ys + iz * cl.zs];
          c.ru *= cl.sign;
          const std::size_t o = o_row + cl.doff;
          for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + o] = c.q(k);
        }
      }
    }
  }

  /// Fills lab cells [x0, x1) of row (iy, iz); every cell in the span is a
  /// ghost. A cell with exactly one halo axis reads that face's slab; the
  /// others hoist the source-block lookup across runs of constant x-block.
  void fill_ghost_span(const Grid& grid, int x0, int x1, int iy, int iz,
                       const HaloSlabs* halo) {
    const Fold& fy = fold_[1][iy + g_];
    const Fold& fz = fold_[2][iz + g_];
    const int row_halos = (fy.face >= 0) + (fz.face >= 0);
    const int row_face = std::max(fy.face, fz.face);
    const std::size_t in_block_yz =
        static_cast<std::size_t>(bs_) * (fy.cell + static_cast<std::size_t>(bs_) * fz.cell);
    Real* const base = storage_.data();

    const Cell* block_cells = nullptr;
    int cached_bx = -1;
    const Fold* const fxs = fold_[0].data() + g_;
    std::size_t o = offset(x0, iy, iz);
    for (int ix = x0; ix < x1; ++ix, ++o) {
      const Fold& fx = fxs[ix];
      const Cell* src;
      if (row_halos + (fx.face >= 0) == 1) {
        src = slab_cell(*halo, std::max(fx.face, row_face), fx.sc, fy.sc, fz.sc);
      } else {
        if (fx.block != cached_bx) {
          cached_bx = fx.block;
          block_cells = grid.block(fx.block, fy.block, fz.block).data();
        }
        src = block_cells + fx.cell + in_block_yz;
      }
      Cell c = *src;
      c.ru *= fx.sign;
      c.rv *= fy.sign;
      c.rw *= fz.sign;
      for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + o] = c.q(k);
    }
  }

  int bs_ = 0, g_ = 0, n_ = 0;
  int ncells_[3] = {};  ///< cell extents of the grid of the last bulk load
  std::size_t per_q_ = 0;
  AlignedBuffer<Real> storage_;
  std::vector<Fold> fold_[3];  ///< per-axis fold tables, rebuilt per load
  std::vector<Col> cols_;      ///< fill_x_edges columns, rebuilt per load
};

}  // namespace mpcf
