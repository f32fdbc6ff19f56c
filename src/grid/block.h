// A grid block: bs^3 cells in AoS layout plus a temporary area used as the
// RHS accumulator of the low-storage Runge-Kutta scheme (paper Fig. 2).
#pragma once

#include <algorithm>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/error.h"
#include "grid/cell.h"

namespace mpcf {

class Block {
 public:
  Block() = default;
  /// Both areas start zeroed.
  explicit Block(int bs) : Block(bs, Unfilled{}) { zero(); }

  /// Exchanges the state and the accumulator areas (no copy).
  void swap_data_tmp() noexcept { std::swap(data_, tmp_); }

  [[nodiscard]] int size() const noexcept { return bs_; }
  [[nodiscard]] std::size_t cells() const noexcept { return data_.size(); }

  [[nodiscard]] Cell& operator()(int ix, int iy, int iz) MPCF_NOEXCEPT {
    return data_[index(ix, iy, iz)];
  }
  [[nodiscard]] const Cell& operator()(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    return data_[index(ix, iy, iz)];
  }

  /// RHS / low-storage RK accumulator cell.
  [[nodiscard]] Cell& tmp(int ix, int iy, int iz) MPCF_NOEXCEPT {
    return tmp_[index(ix, iy, iz)];
  }
  [[nodiscard]] const Cell& tmp(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    return tmp_[index(ix, iy, iz)];
  }

  [[nodiscard]] Cell* data() noexcept { return data_.data(); }
  [[nodiscard]] const Cell* data() const noexcept { return data_.data(); }
  [[nodiscard]] Cell* tmp_data() noexcept { return tmp_.data(); }
  [[nodiscard]] const Cell* tmp_data() const noexcept { return tmp_.data(); }

 private:
  friend class Grid;  // allocates unfilled, then zeroes its blocks in parallel
  struct Unfilled {};
  Block(int bs, Unfilled)
      : bs_(bs),
        data_(static_cast<std::size_t>(bs) * bs * bs),
        tmp_(static_cast<std::size_t>(bs) * bs * bs) {
    require(bs > 0, "Block: block size must be positive");
  }
  void zero() noexcept {
    std::fill(data_.begin(), data_.end(), Cell{});
    std::fill(tmp_.begin(), tmp_.end(), Cell{});
  }

  [[nodiscard]] std::size_t index(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= 0 && ix < bs_ && iy >= 0 && iy < bs_ && iz >= 0 && iz < bs_,
               "Block cell (" + std::to_string(ix) + "," + std::to_string(iy) + "," +
                   std::to_string(iz) + ") outside [0," + std::to_string(bs_) + ")^3");
    return ix + static_cast<std::size_t>(bs_) * (iy + static_cast<std::size_t>(bs_) * iz);
  }

  int bs_ = 0;
  AlignedBuffer<Cell> data_;
  AlignedBuffer<Cell> tmp_;
};

}  // namespace mpcf
