#include "kernels/sos.h"

#include <algorithm>
#include <cmath>

#include "simd/memory_ops.h"
#include "simd/scalar_ops.h"

namespace mpcf::kernels {

namespace {

/// Shared expression tree: max over the block of max(|u|,|v|,|w|) + c.
template <typename T>
double max_speed_impl(const Block& block) {
  using simd::abs;
  using simd::load_elems;
  using simd::max;
  using simd::sqrt;
  constexpr int L = simd::Lanes<T>::value;

  const std::size_t total = block.cells();
  const float* base = &block.data()->rho;
  constexpr std::size_t S = kNumQuantities;  // AoS stride in floats

  double result = 0.0;
  std::size_t i = 0;
  // AoS gather: quantities of L consecutive cells are strided loads. The QPX
  // kernel performed the same AoS->SoA shuffling (paper Section 6, DLP).
  if constexpr (L > 1) {
    T vmax = T(0.0f);
    alignas(32) float lane[7][L];
    for (; i + L <= total; i += L) {
      const float* c = base + i * S;
      for (int l = 0; l < L; ++l)
        for (int q = 0; q < 7; ++q) lane[q][l] = c[l * S + q];
      const T r = load_elems<T>(lane[0]);
      const T ru = load_elems<T>(lane[1]);
      const T rv = load_elems<T>(lane[2]);
      const T rw = load_elems<T>(lane[3]);
      const T E = load_elems<T>(lane[4]);
      const T G = load_elems<T>(lane[5]);
      const T P = load_elems<T>(lane[6]);
      const T invr = T(1.0f) / r;
      const T ke = T(0.5f) * (ru * ru + rv * rv + rw * rw) * invr;
      const T p = (E - ke - P) / G;
      const T c2 = max((p * (G + T(1.0f)) + P) / (G * r), T(0.0f));
      const T umax = max(abs(ru), max(abs(rv), abs(rw))) * invr;
      vmax = max(vmax, umax + sqrt(c2));
    }
    result = static_cast<double>(simd::hmax(vmax));
  }
  for (; i < total; ++i) {
    const Cell& c = block.data()[i];
    const double invr = 1.0 / c.rho;
    const double ke = 0.5 * (double(c.ru) * c.ru + double(c.rv) * c.rv + double(c.rw) * c.rw) * invr;
    const double p = (c.E - ke - c.P) / c.G;
    const double c2 = std::max((p * (c.G + 1.0) + c.P) / (double(c.G) * c.rho), 0.0);
    const double umax = std::max({std::fabs(double(c.ru)), std::fabs(double(c.rv)),
                                  std::fabs(double(c.rw))}) * invr;
    result = std::max(result, umax + std::sqrt(c2));
  }
  return result;
}

}  // namespace

double block_max_speed(const Block& block) { return max_speed_impl<float>(block); }

double block_max_speed_simd(const Block& block, simd::Width width) {
  switch (simd::resolve_width(width)) {
    case simd::Width::kScalar:
      return max_speed_impl<float>(block);
    case simd::Width::kW8:
      return max_speed_impl<simd::vec8>(block);
    default:
      return max_speed_impl<simd::vec4>(block);
  }
}

double sos_flops(int bs) {
  // Counted from the expression tree above: ~19 arithmetic ops per cell.
  return 19.0 * bs * bs * static_cast<double>(bs);
}

}  // namespace mpcf::kernels
