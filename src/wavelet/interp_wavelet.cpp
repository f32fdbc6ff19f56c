#include "wavelet/interp_wavelet.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/aligned_buffer.h"
#include "simd/memory_ops.h"
#include "simd/vec4.h"

namespace mpcf::wavelet {

namespace {

/// Cubic (or reduced-order near short boundaries) Lagrange prediction of the
/// odd sample between coarse samples k and k+1, from coarse array s[0..M).
/// Templated so the four-row SIMD pass shares the exact expression tree.
template <typename T, typename Load>
inline T predict(Load s, int M, int k) {
  const float k116 = 1.0f / 16.0f, k916 = 9.0f / 16.0f;
  if (M >= 4) {
    if (k >= 1 && k <= M - 3)
      return T(k916) * (s(k) + s(k + 1)) - T(k116) * (s(k - 1) + s(k + 2));
    if (k == 0)
      return T(5 * k116) * s(0) + T(15 * k116) * s(1) - T(5 * k116) * s(2) +
             T(k116) * s(3);
    if (k == M - 2)
      return T(k116) * s(M - 4) - T(5 * k116) * s(M - 3) + T(15 * k116) * s(M - 2) +
             T(5 * k116) * s(M - 1);
    // k == M-1: one-sided extrapolation past the last coarse sample.
    return T(-5 * k116) * s(M - 4) + T(21 * k116) * s(M - 3) - T(35 * k116) * s(M - 2) +
           T(35 * k116) * s(M - 1);
  }
  if (M == 3) {
    if (k == 0) return T(0.375f) * s(0) + T(0.75f) * s(1) - T(0.125f) * s(2);
    if (k == 1) return T(-0.125f) * s(0) + T(0.75f) * s(1) + T(0.375f) * s(2);
    return T(0.375f) * s(0) - T(1.25f) * s(1) + T(1.875f) * s(2);
  }
  if (M == 2) {
    if (k == 0) return T(0.5f) * (s(0) + s(1));
    return T(1.5f) * s(1) - T(0.5f) * s(0);
  }
  return s(0);  // M == 1: constant prediction
}

/// Scalar row transform: a has unit stride.
void forward_row(float* a, int n, float* scratch) {
  const int M = n / 2;
  for (int k = 0; k < M; ++k) scratch[k] = a[2 * k];
  auto s = [&](int i) { return scratch[i]; };
  for (int k = 0; k < M; ++k)
    scratch[M + k] = a[2 * k + 1] - predict<float>(s, M, k);
  std::memcpy(a, scratch, static_cast<std::size_t>(n) * sizeof(float));
}

void inverse_row(float* a, int n, float* scratch) {
  const int M = n / 2;
  auto s = [&](int i) { return a[i]; };  // coarse is packed at the front
  for (int k = 0; k < M; ++k) {
    scratch[2 * k] = a[k];
    scratch[2 * k + 1] = a[M + k] + predict<float>(s, M, k);
  }
  std::memcpy(a, scratch, static_cast<std::size_t>(n) * sizeof(float));
}

#if MPCF_SIMD_AVX2
using WideLanes = simd::vec8;
#else
using WideLanes = simd::vec4;
#endif

/// Details of lanes [x, lanes) of one odd sample, T-wide at a time: the
/// even samples i of the axis start at even + i*ld2, the odd one at `odd`.
/// Returns the first lane left over (fewer than T's width remain).
template <typename T>
int detail_lanes(const float* even, std::ptrdiff_t ld2, const float* odd, int M, int k,
                 float* d, int x, int lanes) {
  constexpr int kW = simd::Lanes<T>::value;
  for (; x + kW <= lanes; x += kW) {
    const auto s = [&](int i) { return simd::load_elems<T>(even + i * ld2 + x); };
    simd::store_elems(d + x, simd::load_elems<T>(odd + x) - predict<T>(s, M, k));
  }
  return x;
}

/// dst[x, lanes) = src[x, lanes), T-wide at a time.
template <typename T>
int copy_lanes(float* dst, const float* src, int x, int lanes) {
  constexpr int kW = simd::Lanes<T>::value;
  for (; x + kW <= lanes; x += kW) simd::store_elems(dst + x, simd::load_elems<T>(src + x));
  return x;
}

/// Copies one run of `lanes` floats inline: runs are a few vectors long,
/// where a library memcpy call costs more than the copy.
inline void copy_run(float* dst, const float* src, int lanes) {
  int x = copy_lanes<WideLanes>(dst, src, 0, lanes);
  if constexpr (!std::is_same_v<WideLanes, simd::vec4>)
    x = copy_lanes<simd::vec4>(dst, src, x, lanes);
  copy_lanes<float>(dst, src, x, lanes);
}

/// Interior details d[k] (1 <= k <= M-3: the centered stencil) in T-wide
/// runs along the row, from the packed evens e and odds o. Returns the first
/// k left over.
template <typename T>
int interior_details(const float* e, const float* o, float* d, int M, int k) {
  constexpr int kW = simd::Lanes<T>::value;
  const auto s = [&](int i) { return simd::load_elems<T>(e + i); };
  for (; k + kW - 1 <= M - 3; k += kW)
    simd::store_elems(d + k, simd::load_elems<T>(o + k) - predict<T>(s, M, k));
  return k;
}

/// forward_row with the centered stencil vectorized along the row: evens
/// and odds are packed apart first, so consecutive details read consecutive
/// samples. `scratch` must hold 3n/2 floats.
void forward_row_lanes(float* a, int n, float* scratch) {
  const int M = n / 2;
  float* e = scratch;       // coarse, then details: the row's output
  float* d = scratch + M;
  float* o = scratch + n;
  for (int k = 0; k < M; ++k) {
    e[k] = a[2 * k];
    o[k] = a[2 * k + 1];
  }
  const auto s = [&](int i) { return e[i]; };
  int k = 0;
  if (M >= 4) {
    d[0] = o[0] - predict<float>(s, M, 0);
    k = interior_details<WideLanes>(e, o, d, M, 1);
    if constexpr (!std::is_same_v<WideLanes, simd::vec4>)
      k = interior_details<simd::vec4>(e, o, d, M, k);
    k = interior_details<float>(e, o, d, M, k);
  }
  for (; k < M; ++k) d[k] = o[k] - predict<float>(s, M, k);
  copy_run(a, scratch, n);
}

/// One forward level along a strided axis, vectorized across contiguous
/// lanes instead of transposing the axis into rows: sample j of the axis is
/// the run of `lanes` floats at base + j*ld. Leaves [coarse | detail] along
/// the axis in place; scratch holds (m/2)*lanes floats.
void lift_strided(float* base, std::ptrdiff_t ld, int m, int lanes, float* scratch) {
  const int M = m / 2;
  for (int k = 0; k < M; ++k) {
    const float* odd = base + (2 * k + 1) * ld;
    float* d = scratch + k * lanes;
    int x = detail_lanes<WideLanes>(base, 2 * ld, odd, M, k, d, 0, lanes);
    if constexpr (!std::is_same_v<WideLanes, simd::vec4>)
      x = detail_lanes<simd::vec4>(base, 2 * ld, odd, M, k, d, x, lanes);
    detail_lanes<float>(base, 2 * ld, odd, M, k, d, x, lanes);
  }
  // Coarse samples move to the front in ascending k: the write to sample k
  // never lands on an even sample 2k' > 2k that is still to be read.
  for (int k = 1; k < M; ++k) copy_run(base + k * ld, base + 2 * k * ld, lanes);
  for (int k = 0; k < M; ++k) copy_run(base + (M + k) * ld, scratch + k * lanes, lanes);
}

enum class Pass { kForward, kInverse };

/// Applies the 1-D transform along x to every row of the leading m^3
/// sub-cube of f.
void filter_rows(FieldView3D<float> f, int m, Pass pass) {
  const int n = f.nx();
  AlignedBuffer<float> scratch(static_cast<std::size_t>(m));
  float* base = f.data();
  for (int z = 0; z < m; ++z)
    for (int y = 0; y < m; ++y) {
      float* row = base + static_cast<std::ptrdiff_t>(n) * (y + static_cast<std::ptrdiff_t>(n) * z);
      if (pass == Pass::kInverse)
        inverse_row(row, m, scratch.data());
      else
        forward_row(row, m, scratch.data());
    }
}

void transpose_xy_sub(FieldView3D<float> f, int m) {
  for (int z = 0; z < m; ++z)
    for (int j = 0; j < m; ++j)
      for (int i = j + 1; i < m; ++i) std::swap(f(i, j, z), f(j, i, z));
}

void transpose_xz_sub(FieldView3D<float> f, int m) {
  for (int k = 0; k < m; ++k)
    for (int j = 0; j < m; ++j)
      for (int i = k + 1; i < m; ++i) std::swap(f(i, j, k), f(k, j, i));
}

void check_shape(const FieldView3D<float>& f, int levels) {
  require(f.nx() == f.ny() && f.ny() == f.nz(), "wavelet: cube required");
  require(levels >= 0 && levels <= max_levels(f.nx()),
          "wavelet: too many levels for this edge length");
}

}  // namespace

int max_levels(int n) {
  int l = 0;
  while (n >= 4 && n % 2 == 0) {
    n /= 2;
    ++l;
  }
  return l;
}

void forward_1d(float* data, int n, float* scratch) {
  require(n >= 2 && n % 2 == 0, "forward_1d: even length >= 2 required");
  forward_row(data, n, scratch);
}

void inverse_1d(float* data, int n, float* scratch) {
  require(n >= 2 && n % 2 == 0, "inverse_1d: even length >= 2 required");
  inverse_row(data, n, scratch);
}

void forward_3d(FieldView3D<float> f, int levels) {
  check_shape(f, levels);
  for (int l = 0; l < levels; ++l) {
    const int m = f.nx() >> l;
    filter_rows(f, m, Pass::kForward);
    transpose_xy_sub(f, m);
    filter_rows(f, m, Pass::kForward);
    transpose_xy_sub(f, m);
    transpose_xz_sub(f, m);
    filter_rows(f, m, Pass::kForward);
    transpose_xz_sub(f, m);
  }
}

void forward_3d_lanes(FieldView3D<float> f, int levels) {
  check_shape(f, levels);
  const int n = f.nx();
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(n) * n;
  float* base = f.data();
  // One (n/2)-sample run of details per lift, 3n/2 floats per row; kept per
  // thread because allocating it per call cost ~15% of an 8^3 transform.
  thread_local std::vector<float> scratch;
  scratch.resize(std::max(scratch.size(), static_cast<std::size_t>(plane) / 2 + n));
  for (int l = 0; l < levels; ++l) {
    const int m = n >> l;
    // x: each row in place.
    for (int z = 0; z < m; ++z)
      for (int y = 0; y < m; ++y) forward_row_lanes(base + n * y + plane * z, m, scratch.data());
    // y and z: along the axis, the x run of each sample as the lanes.
    for (int z = 0; z < m; ++z) lift_strided(base + plane * z, n, m, m, scratch.data());
    for (int y = 0; y < m; ++y) lift_strided(base + n * y, plane, m, m, scratch.data());
  }
}

void inverse_3d(FieldView3D<float> f, int levels) {
  check_shape(f, levels);
  for (int l = levels - 1; l >= 0; --l) {
    const int m = f.nx() >> l;
    transpose_xz_sub(f, m);
    filter_rows(f, m, Pass::kInverse);
    transpose_xz_sub(f, m);
    transpose_xy_sub(f, m);
    filter_rows(f, m, Pass::kInverse);
    transpose_xy_sub(f, m);
    filter_rows(f, m, Pass::kInverse);
  }
}

void transpose_xy(FieldView3D<float> f) { transpose_xy_sub(f, f.nx()); }
void transpose_xz(FieldView3D<float> f) { transpose_xz_sub(f, f.nx()); }

DecimationStats decimate(FieldView3D<float> f, int levels, float eps, ThresholdMode mode) {
  check_shape(f, levels);
  DecimationStats stats;
  const int n = f.nx();
  // Measured worst-case L-inf amplification of a single zeroed detail of
  // shell l through the full 3-D synthesis (dominated by the one-sided
  // boundary extrapolation stencils); see tests/test_wavelet.cpp. Entries
  // beyond level 5 extrapolate the observed growth.
  static constexpr float kShellAmp[] = {1.0f, 1.0f, 10.5f, 27.3f, 42.2f, 66.0f};
  const auto shell_amp = [](int l) {
    return l < 6 ? kShellAmp[l] : kShellAmp[5] * std::pow(1.6f, static_cast<float>(l - 5));
  };
  for (int l = 1; l <= levels; ++l) {
    // Detail shell of level l: indices with max coordinate in [n>>l, n>>(l-1)).
    const int s = n >> l;
    const int e = n >> (l - 1);
    // Guaranteed mode splits the error budget across levels and divides by
    // the per-shell amplification so the accumulated L-inf error stays
    // below eps; uniform mode reproduces the paper's reported thresholds.
    // Overlap factor: up to ~8 synthesis functions of one shell contribute
    // at a point (2 per dimension), measured on adversarial sign patterns.
    const float kOverlap = 8.0f;
    const float thresh = (mode == ThresholdMode::kUniform)
                             ? eps
                             : eps / (static_cast<float>(levels) * kOverlap * shell_amp(l));
    for (int k = 0; k < e; ++k)
      for (int j = 0; j < e; ++j)
        for (int i = 0; i < e; ++i) {
          if (i < s && j < s && k < s) continue;  // coarse corner of level l
          ++stats.total;
          float& v = f(i, j, k);
          if (std::fabs(v) < thresh) {
            v = 0.0f;
            ++stats.decimated;
          }
        }
  }
  return stats;
}

double fwt_flops(int n, int levels) {
  // Per level: 3 directional passes, each producing (m/2)*m^2 details at
  // ~8 flops (4 mul + 4 add/sub) per detail.
  double total = 0;
  for (int l = 0; l < levels; ++l) {
    const double m = static_cast<double>(n >> l);
    total += 3.0 * 8.0 * (m / 2.0) * m * m;
  }
  return total;
}

}  // namespace mpcf::wavelet
