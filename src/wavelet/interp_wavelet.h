// Fourth-order interpolating wavelet transform (Deslauriers-Dubuc 4-point
// predictor; Donoho ref [17], "on the interval" per Cohen-Daubechies-Vial
// ref [12]): the paper's compression transform (Section 5).
//
// Forward, one level, length n (even): even samples become the coarse
// approximation; each odd sample is replaced by its prediction residual
// (detail). The predictor is cubic Lagrange interpolation through the four
// nearest even samples, with one-sided stencils at the interval boundaries —
// no periodization, so each grid block is an independent dataset and all
// blocks transform in parallel.
//
// Output ordering is split-packed: [coarse (n/2) | details (n/2)], so level
// l+1 transforms the leading sub-array/sub-cube in place.
#pragma once

#include "common/field3d.h"

namespace mpcf::wavelet {

/// Maximum number of levels for a cube of edge n (transform down to edge 2).
[[nodiscard]] int max_levels(int n);

/// One-level forward transform of data[0..n) (n even, n >= 2) into
/// [coarse | detail]. `scratch` must hold n floats.
void forward_1d(float* data, int n, float* scratch);

/// Exact inverse of forward_1d.
void inverse_1d(float* data, int n, float* scratch);

/// Multi-level separable 3-D transform of an n^3 cube (in place, x fastest).
/// n must be divisible by 2^levels and the coarsest edge must be >= 2.
/// Directional filtering is always along contiguous x; the y and z passes
/// are realized through x-y slice transpositions and the x-z transposition
/// of the dataset (paper Section 6, FWT kernel) so every 1-D filter runs on
/// unit-stride data.
void forward_3d(FieldView3D<float> f, int levels);
void inverse_3d(FieldView3D<float> f, int levels);

/// Production forward transform: the same levels, passes and predictor
/// expressions as forward_3d, without transposes. The x pass filters each
/// row in place; the y and z passes filter along their axis in place,
/// vectorized across the contiguous x lanes of the sub-cube. Same
/// coefficient layout as forward_3d; values agree to float round-off.
void forward_3d_lanes(FieldView3D<float> f, int levels);

/// In-place transposition helpers of forward_3d/inverse_3d (exposed for
/// tests).
void transpose_xy(FieldView3D<float> f);
void transpose_xz(FieldView3D<float> f);

enum class ThresholdMode {
  kUniform,    ///< |d| < eps zeroed at every level (what the paper reports)
  kGuaranteed  ///< per-level scaled thresholds; L-inf error provably <= eps
};

struct DecimationStats {
  std::size_t total = 0;     ///< number of detail coefficients examined
  std::size_t decimated = 0; ///< number zeroed
};

/// Zeroes small detail coefficients of a transformed cube.
DecimationStats decimate(FieldView3D<float> f, int levels, float eps,
                         ThresholdMode mode = ThresholdMode::kUniform);

/// Analytic FLOP count of forward_3d on an n^3 cube (for GFLOP/s reporting).
[[nodiscard]] double fwt_flops(int n, int levels);

}  // namespace mpcf::wavelet
