// Pipelined multi-threaded dump path (DESIGN.md §13) — the one compressor
// (compress_quantity is a thin call into it): a team of workers pulls fixed
// block-range chunks off a shared queue, runs FWT + decimation over each
// chunk's cubes and feeds the result straight into its own entropy-encode
// stage (no barrier between chunks — a worker encodes chunk A while another
// still transforms chunk B), draining into the two-phase aggregator of the
// `.cq` writer: directory offsets by exclusive prefix sum first, then the
// stream blobs coalesced into large aligned writes.
//
// Determinism: the chunk → block-range map is a pure function of
// (block_count, requested worker count), streams are emitted in chunk
// (= block-id) order, and workers steal *which chunk to process next*
// dynamically but never *where its output lands* — so for a fixed requested
// worker count and codec the emitted file is bitwise-stable run-to-run
// regardless of scheduling.
//
// The pipeline is front-end agnostic: a CubeSource hands it block cubes by
// id, so the same stage graph serves the live Grid (synchronous dumps) and
// the AsyncDumper's staging snapshot (background dumps). Workers are an
// OpenMP team (`parallel num_threads(workers)`), so a synchronous dump runs
// on the solver's own threads instead of competing with them for cores.
// Opened from the dumper's background std::thread the region is not nested:
// that thread becomes the master of a team of its own and gets the lanes it
// asks for. Only a dump called from inside an active parallel region gets a
// team of one (nested parallelism is off). Because the chunk map depends on
// the requested worker count alone, the file bytes are the same either way.
#pragma once

#include <string>
#include <vector>

#include "compression/compressor.h"

namespace mpcf::compression {

/// Front-end of the pipeline: hands out one quantity's block cubes by id.
/// `fill` is called concurrently from the worker pool and must be safe for
/// read-only access to the underlying state.
class CubeSource {
 public:
  virtual ~CubeSource() = default;
  [[nodiscard]] virtual int block_count() const = 0;
  /// Fills `cube` with the block's bs^3 floats in x-fastest order.
  virtual void fill(int block_id, float* cube) const = 0;
};

/// Adapts a live Grid to the pipeline (synchronous front-end).
class GridCubeSource final : public CubeSource {
 public:
  GridCubeSource(const Grid& grid, const CompressionParams& params)
      : grid_(grid), params_(params) {}
  [[nodiscard]] int block_count() const override { return grid_.block_count(); }
  void fill(int block_id, float* cube) const override {
    gather_block_quantity(grid_.block(block_id), grid_.block_size(), params_, cube);
  }

 private:
  const Grid& grid_;
  const CompressionParams& params_;
};

/// Instrumentation of one pipelined dump (Table 4 / Fig. 7-right analogue).
struct PipelineStats {
  int workers = 0;  ///< team size the OpenMP runtime granted (0: no chunks)
  int chunks = 0;   ///< streams emitted (= chunk count)
  /// Per-worker wall-clock split: dec = FWT+decimate, enc = entropy stage.
  std::vector<WorkerTimes> worker_times;
  double write_seconds = 0;           ///< aggregator write phase (dump only)
  std::uint64_t bytes_written = 0;    ///< file size (dump only)
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t compressed_bytes = 0;
};

/// Number of streams a pipelined dump emits: a pure function of
/// (block_count, requested workers) so the file layout is independent of the
/// schedule and of the team size actually granted —
/// enough chunks per worker that dynamic stealing load-balances the
/// content-dependent encode cost, capped at the block count.
[[nodiscard]] int pipeline_chunk_count(int block_count, int workers);

/// Compresses one quantity through the stage graph. Worker count comes from
/// params.workers (0 = one per core); the decoded output does not depend on
/// it (same per-block transform, same codec), only the stream partition
/// does.
[[nodiscard]] CompressedQuantity compress_quantity_pipelined(
    const CubeSource& source, int bx, int by, int bz, int block_size,
    const CompressionParams& params, PipelineStats* stats = nullptr);

/// Grid convenience front-end.
[[nodiscard]] CompressedQuantity compress_quantity_pipelined(
    const Grid& grid, const CompressionParams& params, PipelineStats* stats = nullptr);

/// Full pipelined dump: stage graph, then the two-phase aggregating writer.
/// Returns the compression rate; fills write/byte accounting into `stats`.
double dump_quantity_pipelined(const CubeSource& source, int bx, int by, int bz,
                               int block_size, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats = nullptr);

double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats = nullptr);

}  // namespace mpcf::compression
