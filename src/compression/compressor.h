// Wavelet-based data compression pipeline (paper Section 5, Fig. 3):
//
//   per block:   in-place forward wavelet transform  (FWT)
//                lossy decimation of small details   (DEC)
//   per chunk:   concatenation of the surviving coefficient cubes of a
//                fixed block range into one buffer, lossless encoding of
//                the whole stream by the selected codec (ENC; default: the
//                zero-run significance coder, then zlib)
//   per rank:    one global buffer of encoded streams, written collectively
//                (see cluster::write_compressed_collective)
//
// Dumps are performed for one quantity at a time (pressure and Gamma in the
// production runs) to cap the memory overhead at ~10% of the simulation
// footprint; parallel granularity is one chunk of blocks. The stages run in
// the pipelined stage graph of pipeline.h, the only compressor.
#pragma once

#include <cstdint>
#include <vector>

#include "compression/codec.h"
#include "core/profile.h"
#include "grid/grid.h"
#include "wavelet/interp_wavelet.h"

namespace mpcf::compression {

struct CompressionParams {
  float eps = 1e-2f;  ///< decimation threshold
  wavelet::ThresholdMode mode = wavelet::ThresholdMode::kUniform;
  int levels = -1;     ///< wavelet levels; -1 = maximum for the block size
  int zlib_level = 6;  ///< zlib effort (-1 default, 0 store, 1 fast .. 9 best)
  /// Entropy stage (see codec.h), per quantity. The significance coder
  /// strips the zero runs decimation leaves before deflate sees them:
  /// cheaper to encode and a higher ratio than deflate over the raw stream.
  Coder coder = Coder::kSparseZlib;
  /// Dumped quantities are either raw conserved components or derived
  /// pressure; the paper dumps p and Gamma.
  bool derive_pressure = false;  ///< if true, `quantity` is ignored: dump p
  int quantity = Q_G;
  /// Transform/encode workers requested from the OpenMP runtime (0 = one per
  /// available core; AsyncDumper caps this default so background dumps never
  /// oversubscribe the stepping solver — see async_dumper.h).
  int workers = 0;
};

/// Validates params at ingestion, before any deferred/background work: the
/// zlib level must be in {-1, 0..9} (an out-of-range level would otherwise
/// surface deep inside compress2 as an unexplained failure), the level count
/// must fit the block size, the coder must be registered, and the worker
/// count must be non-negative. Throws PreconditionError naming the offending
/// value.
void validate_compression_params(const CompressionParams& params, int block_size);

/// Per-worker wall-clock split of one dump (paper Table 4 / Fig. 7-right).
struct WorkerTimes {
  double dec = 0;  ///< FWT + decimation
  double enc = 0;  ///< entropy encoding
  double io = 0;   ///< file write (filled by the I/O layer)
};

/// One quantity, compressed: a set of streams, each an encoded blob of
/// concatenated decimated coefficient cubes plus the ids of the blocks it
/// contains (in stream order).
struct CompressedQuantity {
  int bx = 0, by = 0, bz = 0;  ///< grid shape in blocks
  int block_size = 0;
  int levels = 0;
  float eps = 0;
  bool derived_pressure = false;
  int quantity = 0;
  Coder coder = Coder::kZlib;

  struct Stream {
    std::vector<std::uint32_t> block_ids;
    std::vector<std::uint8_t> data;  ///< entropy-encoded coefficients
    std::uint64_t raw_bytes = 0;     ///< size before the entropy stage
  };
  std::vector<Stream> streams;

  [[nodiscard]] std::uint64_t uncompressed_bytes() const;
  [[nodiscard]] std::uint64_t compressed_bytes() const;
  /// The headline metric: uncompressed field bytes / encoded bytes.
  [[nodiscard]] double compression_rate() const;
};

/// Extracts one block's scalar quantity (or derived pressure) into a dense
/// bs^3 cube in x-fastest order. Shared by the live-grid front-end of the
/// pipeline and the async dumper's snapshot stage; the derived-pressure path
/// guards the kinetic-energy division against near-vacuum densities.
void gather_block_quantity(const Block& block, int bs, const CompressionParams& params,
                           float* cube);

/// Compresses one scalar quantity of the whole grid: a thin call into
/// compress_quantity_pipelined (pipeline.h). If `times` is given it is
/// replaced by the per-worker DEC/ENC times of the workers that ran.
[[nodiscard]] CompressedQuantity compress_quantity(const Grid& grid,
                                                   const CompressionParams& params,
                                                   std::vector<WorkerTimes>* times = nullptr);

/// Inverse pipeline: decodes, inverse-transforms and writes the quantity
/// back into `grid` (grid shape must match). Derived pressure cannot be
/// scattered back into conserved variables and is written into a Field3D.
void decompress_quantity(const CompressedQuantity& cq, Grid& grid);

/// Decompresses into a standalone cell-indexed scalar field (works for
/// derived quantities too).
[[nodiscard]] Field3D<float> decompress_to_field(const CompressedQuantity& cq);

/// One rank's contribution to a collective dump: its streams (already
/// carrying global block ids) plus the exclusive-prefix-sum offset of its
/// encoded bytes in the file (the MPI_Exscan of the paper's collective
/// write).
struct RankStreams {
  int rank = 0;
  std::uint64_t offset = 0;  ///< exscan of per-rank encoded byte counts
  std::vector<CompressedQuantity::Stream> streams;
};

/// Assembles rank contributions into `global.streams` ordered by their
/// scanned offsets — NOT by arrival order, which on a real transport is the
/// completion order of the ranks. Verifies the offsets tile the file
/// contiguously (no gap or overlap) and throws PreconditionError otherwise.
void assemble_collective(CompressedQuantity& global, std::vector<RankStreams> parts);

}  // namespace mpcf::compression
