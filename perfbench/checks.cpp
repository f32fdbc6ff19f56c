#include "checks.h"

#include <cmath>
#include <cstring>

#include "io/compressed_file.h"

namespace perfbench {

using mpcf::Cell;
using mpcf::Grid;

StateScan scan_state(const Grid& g) {
  double mass = 0;
  int finite = 1;
  const int nb = g.block_count();
#pragma omp parallel for schedule(static) reduction(+ : mass) reduction(&& : finite)
  for (int b = 0; b < nb; ++b) {
    const mpcf::Block& blk = g.block(b);
    const Cell* c = blk.data();
    double m = 0;
    bool ok = true;
    for (std::size_t i = 0; i < blk.cells(); ++i) {
      m += c[i].rho;
      for (int q = 0; q < mpcf::kNumQuantities; ++q) ok = ok && std::isfinite(c[i].q(q));
    }
    mass += m;
    finite = finite && ok;
  }
  const double h = g.h();
  return {mass * h * h * h, finite != 0};
}

std::vector<std::string> step_failures(const StateScan& s, double mass0,
                                       long clamped_this_step, long cells) {
  std::vector<std::string> out;
  if (!s.finite) out.emplace_back("finite: non-finite conserved quantity");
  const double drift = std::fabs(s.mass - mass0) / mass0;
  if (!(drift <= kMassTolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "mass: %.4e kg vs initial %.4e kg (drift %.3g > %.3g)",
                  s.mass, mass0, drift, kMassTolerance);
    out.emplace_back(buf);
  }
  if (clamped_this_step >= cells)
    out.emplace_back("clamp: all " + std::to_string(cells) + " cells clamped");
  return out;
}

namespace {

/// L-inf error model of uniform-threshold decimation, taken from the
/// wavelet module (interp_wavelet.cpp, decimate): a zeroed detail of shell
/// l is amplified by at most kShellAmp[l] through synthesis, up to
/// kOverlap synthesis functions overlap at a point, and every detail
/// below eps is zeroed at every level. Guaranteed mode divides eps by
/// exactly this sum; uniform mode (what dumps use) does not, so its error
/// budget is eps times the sum.
double uniform_error_factor(int levels) {
  static constexpr double kShellAmp[] = {1.0, 1.0, 10.5, 27.3, 42.2, 66.0};
  constexpr double kOverlap = 8.0;
  double sum = 0;
  for (int l = 1; l <= levels; ++l)
    sum += l < 6 ? kShellAmp[l] : kShellAmp[5] * std::pow(1.6, l - 5);
  return kOverlap * sum;
}

}  // namespace

std::vector<std::string> dump_failures(const std::string& path, const Grid& ref,
                                       const mpcf::compression::CompressionParams& params) {
  const mpcf::compression::CompressedQuantity cq = mpcf::io::read_compressed(path);
  const mpcf::Field3D<float> f = mpcf::compression::decompress_to_field(cq);
  const int bs = ref.block_size();
  if (f.nx() != ref.cells_x() || f.ny() != ref.cells_y() || f.nz() != ref.cells_z())
    return {"decode: decoded shape differs from the grid"};
  std::vector<float> cube(static_cast<std::size_t>(bs) * bs * bs);
  double err = 0;
  for (int bz = 0; bz < ref.blocks_z(); ++bz)
    for (int by = 0; by < ref.blocks_y(); ++by)
      for (int bx = 0; bx < ref.blocks_x(); ++bx) {
        mpcf::compression::gather_block_quantity(ref.block(bx, by, bz), bs, params,
                                                 cube.data());
        for (int k = 0; k < bs; ++k)
          for (int j = 0; j < bs; ++j)
            for (int i = 0; i < bs; ++i) {
              const double d = std::fabs(
                  static_cast<double>(f(bx * bs + i, by * bs + j, bz * bs + k)) -
                  cube[static_cast<std::size_t>(i + bs * (j + bs * k))]);
              if (!(d <= err)) err = std::isfinite(d) ? d : INFINITY;  // NaN fails too
            }
      }
  const double bound = static_cast<double>(params.eps) * uniform_error_factor(cq.levels);
  if (err <= bound) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "decode: L-inf error %.4g > bound %.4g (eps %.4g, %d levels)",
                err, bound, static_cast<double>(params.eps), cq.levels);
  return {buf};
}

std::vector<Cell> snapshot(const Grid& g) {
  std::vector<Cell> out;
  out.reserve(g.cell_count());
  for (int b = 0; b < g.block_count(); ++b) {
    const mpcf::Block& blk = g.block(b);
    out.insert(out.end(), blk.data(), blk.data() + blk.cells());
  }
  return out;
}

long first_difference(const Grid& g, const std::vector<Cell>& snap) {
  if (snap.size() != g.cell_count()) return 0;
  std::size_t off = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    const mpcf::Block& blk = g.block(b);
    for (std::size_t i = 0; i < blk.cells(); ++i, ++off)
      if (std::memcmp(&blk.data()[i], &snap[off], sizeof(Cell)) != 0)
        return static_cast<long>(off);
  }
  return -1;
}

}  // namespace perfbench
