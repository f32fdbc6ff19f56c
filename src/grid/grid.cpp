#include "grid/grid.h"

namespace mpcf {

Grid::Grid(int bx, int by, int bz, int bs, double extent_x)
    : Grid(bx, by, bz, bs, extent_x, BlockIndexer(bx, by, bz).curve()) {}

Grid::Grid(int bx, int by, int bz, int bs, double extent_x, BlockIndexer::Curve curve)
    : indexer_(bx, by, bz, curve), bs_(bs),
      h_(extent_x / (static_cast<double>(bx) * bs)) {
  require(bs > 0, "Grid: block size must be positive");
  require(extent_x > 0.0, "Grid: domain extent must be positive");
  blocks_.reserve(indexer_.count());
  for (int i = 0; i < indexer_.count(); ++i) blocks_.push_back(Block(bs, Block::Unfilled{}));
  // First touch in parallel: the zero fill is what faults the pages in.
#pragma omp parallel for schedule(static)
  for (int i = 0; i < indexer_.count(); ++i) blocks_[i].zero();
}

}  // namespace mpcf
