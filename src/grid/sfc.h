// Space-filling-curve reindexing of grid blocks (paper Section 5: "grouping
// the computational elements into 3D blocks ... and reindexing the blocks
// with a space-filling curve"). Morton (Z-order) for power-of-two block
// grids, row-major fallback otherwise; both expose the same interface.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "grid/boundary.h"

namespace mpcf {

/// Interleaves the low 21 bits of x,y,z into a 63-bit Morton code.
[[nodiscard]] std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z);

/// Inverse of morton_encode.
void morton_decode(std::uint64_t code, std::uint32_t& x, std::uint32_t& y, std::uint32_t& z);

/// 3-D Hilbert curve over a 2^order cube: better neighbour locality than
/// Morton at the cost of a more expensive index computation (the paper's
/// outlook questions whether two-level Morton indexing provides adequate
/// locality on future machines; Hilbert is the natural alternative).
[[nodiscard]] std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                                           int order);
void hilbert_decode(std::uint64_t code, int order, std::uint32_t& x, std::uint32_t& y,
                    std::uint32_t& z);

/// Maps 3-D block coordinates to a linear storage index and back.
class BlockIndexer {
 public:
  enum class Curve { kMorton, kRowMajor, kHilbert };

  BlockIndexer() = default;
  BlockIndexer(int bx, int by, int bz);
  /// Forces a specific curve; kMorton/kHilbert require a power-of-two cube.
  BlockIndexer(int bx, int by, int bz, Curve curve);

  [[nodiscard]] int nx() const noexcept { return bx_; }
  [[nodiscard]] int ny() const noexcept { return by_; }
  [[nodiscard]] int nz() const noexcept { return bz_; }
  [[nodiscard]] int count() const noexcept { return bx_ * by_ * bz_; }
  [[nodiscard]] Curve curve() const noexcept { return curve_; }

  /// Linear index of block (ix,iy,iz); Morton order when the grid is a
  /// power-of-two cube, row-major otherwise.
  [[nodiscard]] int linear(int ix, int iy, int iz) const;

  /// Inverse: block coordinates of linear index.
  void coords(int linear_index, int& ix, int& iy, int& iz) const;

 private:
  int bx_ = 0, by_ = 0, bz_ = 0;
  Curve curve_ = Curve::kRowMajor;
};

/// Block-dependency topology of a grid under its boundary conditions: for
/// every block b, `readset(b)` is the set of source blocks b's ghost-lab
/// assembly may read, and `consumers(b)` is the transpose — the blocks whose
/// labs read b's data. The step scheduler seeds its per-stage
/// dependency counters from these sets (DESIGN.md §14).
///
/// The readset is derived from the same per-axis index folding BlockLab's
/// bulk assembly uses (fold_index over the ghost-extended coordinate range),
/// as the product of the three per-axis folded source-block sets — an exact
/// superset of every grid read the assembly performs (a cluster rank's halo
/// ghosts read a slab, not the grid, so they add no reads). Both
/// relations always contain b itself; neither is assumed symmetric (BC
/// folding breaks symmetry at domain faces), so the transpose is explicit.
struct BlockTopology {
  int count = 0;
  std::vector<int> read_offsets;  ///< CSR offsets into read_ids, size count+1
  std::vector<int> read_ids;      ///< ascending within each block's span
  std::vector<int> cons_offsets;  ///< CSR offsets into cons_ids, size count+1
  std::vector<int> cons_ids;      ///< ascending within each block's span

  [[nodiscard]] std::span<const int> readset(int b) const {
    return {read_ids.data() + read_offsets[b],
            static_cast<std::size_t>(read_offsets[b + 1] - read_offsets[b])};
  }
  [[nodiscard]] std::span<const int> consumers(int b) const {
    return {cons_ids.data() + cons_offsets[b],
            static_cast<std::size_t>(cons_offsets[b + 1] - cons_offsets[b])};
  }
};

/// Builds the readset/consumer tables for blocks of edge `block_size` with
/// `ghosts` ghost layers, indexed by `idx`, under boundary conditions `bc`.
[[nodiscard]] BlockTopology build_block_topology(const BlockIndexer& idx, int block_size,
                                                 int ghosts, const BoundaryConditions& bc);

}  // namespace mpcf
