#include "compression/pipeline.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/error.h"
#include "compression/codec.h"
#include "io/compressed_file.h"

namespace mpcf::compression {

namespace {

int resolve_workers(const CompressionParams& params) {
  return params.workers > 0 ? params.workers : omp_get_max_threads();
}

/// Inclusive-balanced contiguous split: chunk c covers
/// [c*n/k, (c+1)*n/k) — deterministic, gap-free, sizes differ by at most 1.
int chunk_begin(int blocks, int nchunks, int c) {
  return static_cast<int>(static_cast<std::int64_t>(blocks) * c / nchunks);
}

}  // namespace

int pipeline_chunk_count(int block_count, int workers) {
  if (block_count <= 0) return 0;
  return std::min(block_count, workers * 4);
}

CompressedQuantity compress_quantity_pipelined(const CubeSource& source, int bx, int by,
                                               int bz, int block_size,
                                               const CompressionParams& params,
                                               PipelineStats* stats) {
  validate_compression_params(params, block_size);
  const int bs = block_size;
  const int levels = params.levels < 0 ? wavelet::max_levels(bs) : params.levels;
  const int blocks = source.block_count();

  CompressedQuantity cq;
  cq.bx = bx;
  cq.by = by;
  cq.bz = bz;
  cq.block_size = bs;
  cq.levels = levels;
  cq.eps = params.eps;
  cq.derived_pressure = params.derive_pressure;
  cq.quantity = params.quantity;
  cq.coder = params.coder;

  const int requested = resolve_workers(params);
  const int nchunks = pipeline_chunk_count(blocks, requested);
  const int workers = std::min(requested, std::max(nchunks, 1));
  cq.streams.resize(nchunks);
  if (stats) {
    stats->workers = 0;
    stats->chunks = nchunks;
    stats->worker_times.clear();
  }
  if (nchunks == 0) return cq;

  const Codec& codec = codec_for(params.coder);
  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;

  // The stage graph: workers steal chunk *indices* off the shared counter
  // (dynamic load balance — encode cost is content-dependent), but each
  // chunk's output always lands in streams[c], so the file layout never
  // depends on the schedule or on how many workers the runtime grants.
  // Per-chunk failures are recorded and rethrown by lowest chunk id,
  // keeping even the error deterministic.
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(nchunks);
  std::vector<WorkerTimes> clocks(workers);
  int granted = 1;

  // libgomp's fork and join are not visible to ThreadSanitizer, so the
  // hand-off of shared state into and out of the team is also spelled out
  // on `joined`: the caller's release store before the fork pairs with each
  // worker's acquire load, and each worker's release increment after its
  // last access pairs with the caller's acquire load after the join.
  std::atomic<int> joined{0};
  // order: release — publishes the caller's set-up to the team.
  joined.store(0, std::memory_order_release);

#pragma omp parallel num_threads(workers) if (workers > 1)
  {
    // order: acquire — pairs with the caller's release store.
    (void)joined.load(std::memory_order_acquire);
    const int w = omp_get_thread_num();
#pragma omp single nowait
    granted = omp_get_num_threads();
    {
      std::vector<float> coeffs;
      Timer t;
      for (;;) {
        // order: relaxed — the counter only partitions chunk ids between
        // workers; the data hand-off goes through `joined`.
        const int c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        try {
          const int begin = chunk_begin(blocks, nchunks, c);
          const int end = chunk_begin(blocks, nchunks, c + 1);
          coeffs.resize(static_cast<std::size_t>(end - begin) * cube_floats);

          t.restart();
          for (int b = begin; b < end; ++b) {
            float* cube = coeffs.data() + static_cast<std::size_t>(b - begin) * cube_floats;
            source.fill(b, cube);
            FieldView3D<float> view(cube, bs, bs, bs);
            wavelet::forward_3d_lanes(view, levels);
            wavelet::decimate(view, levels, params.eps, params.mode);
          }
          clocks[w].dec += t.seconds();

          // One encode per chunk: detail coefficients of adjacent blocks
          // share ranges, so a concatenated stream compresses better than
          // per-block encoding (paper Section 5).
          t.restart();
          EncodedStream es = codec.encode(coeffs.data(), coeffs.size(), params.zlib_level);
          auto& stream = cq.streams[c];
          stream.raw_bytes = es.raw_bytes;
          stream.data = std::move(es.data);
          stream.block_ids.resize(static_cast<std::size_t>(end - begin));
          std::iota(stream.block_ids.begin(), stream.block_ids.end(),
                    static_cast<std::uint32_t>(begin));
          clocks[w].enc += t.seconds();
        } catch (...) {
          errors[c] = std::current_exception();
        }
      }
    }
    // order: release — publishes this worker's chunks, and the end of its
    // reads of the caller's frame, to the caller.
    joined.fetch_add(1, std::memory_order_release);
  }
  // order: acquire — pairs with every worker's release increment.
  (void)joined.load(std::memory_order_acquire);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  if (stats) {
    clocks.resize(granted);
    stats->workers = granted;
    stats->worker_times = std::move(clocks);
    stats->uncompressed_bytes = cq.uncompressed_bytes();
    stats->compressed_bytes = cq.compressed_bytes();
  }
  return cq;
}

CompressedQuantity compress_quantity_pipelined(const Grid& grid,
                                               const CompressionParams& params,
                                               PipelineStats* stats) {
  const GridCubeSource source(grid, params);
  return compress_quantity_pipelined(source, grid.blocks_x(), grid.blocks_y(),
                                     grid.blocks_z(), grid.block_size(), params, stats);
}

double dump_quantity_pipelined(const CubeSource& source, int bx, int by, int bz,
                               int block_size, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats) {
  const CompressedQuantity cq =
      compress_quantity_pipelined(source, bx, by, bz, block_size, params, stats);
  Timer t;
  const std::uint64_t bytes = io::write_compressed(path, cq);
  if (stats) {
    stats->write_seconds = t.seconds();
    stats->bytes_written = bytes;
  }
  return cq.compression_rate();
}

double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats) {
  const GridCubeSource source(grid, params);
  return dump_quantity_pipelined(source, grid.blocks_x(), grid.blocks_y(),
                                 grid.blocks_z(), grid.block_size(), params, path,
                                 stats);
}

}  // namespace mpcf::compression
