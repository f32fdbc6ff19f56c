#include "compression/compressor.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "compression/codec.h"
#include "compression/pipeline.h"

namespace mpcf::compression {

void validate_compression_params(const CompressionParams& params, int block_size) {
  require(params.zlib_level == -1 || (params.zlib_level >= 0 && params.zlib_level <= 9),
          "CompressionParams: zlib_level " + std::to_string(params.zlib_level) +
              " outside the valid range {-1, 0..9}");
  require(params.levels <= wavelet::max_levels(block_size),
          "CompressionParams: " + std::to_string(params.levels) +
              " wavelet levels exceed the maximum for block size " +
              std::to_string(block_size));
  require(codec_known(static_cast<std::uint8_t>(params.coder)),
          "CompressionParams: unknown coder id " +
              std::to_string(static_cast<unsigned>(params.coder)));
  require(params.workers >= 0, "CompressionParams: negative worker count " +
                                   std::to_string(params.workers));
}

void gather_block_quantity(const Block& block, int bs, const CompressionParams& params,
                           float* cube) {
  std::size_t o = 0;
  for (int iz = 0; iz < bs; ++iz)
    for (int iy = 0; iy < bs; ++iy)
      for (int ix = 0; ix < bs; ++ix, ++o) {
        const Cell& c = block(ix, iy, iz);
        if (params.derive_pressure) {
          // Near-vacuum cells (e.g. freshly floored by the positivity guard)
          // must not turn the kinetic-energy division into inf/NaN
          // coefficients that poison the whole wavelet stream.
          const float rho = std::max(static_cast<float>(c.rho), 1e-20f);
          const float ke = 0.5f * (c.ru * c.ru + c.rv * c.rv + c.rw * c.rw) / rho;
          cube[o] = (c.E - ke - c.P) / c.G;
        } else {
          cube[o] = c.q(params.quantity);
        }
      }
}

std::uint64_t CompressedQuantity::uncompressed_bytes() const {
  std::uint64_t blocks = 0;
  for (const auto& s : streams) blocks += s.block_ids.size();
  return blocks * static_cast<std::uint64_t>(block_size) * block_size * block_size *
         sizeof(float);
}

std::uint64_t CompressedQuantity::compressed_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : streams) total += s.data.size();
  return total;
}

double CompressedQuantity::compression_rate() const {
  const std::uint64_t c = compressed_bytes();
  return c == 0 ? 0.0 : static_cast<double>(uncompressed_bytes()) / static_cast<double>(c);
}

CompressedQuantity compress_quantity(const Grid& grid, const CompressionParams& params,
                                     std::vector<WorkerTimes>* times) {
  PipelineStats stats;
  CompressedQuantity cq = compress_quantity_pipelined(grid, params, &stats);
  if (times) *times = std::move(stats.worker_times);
  return cq;
}

Field3D<float> decompress_to_field(const CompressedQuantity& cq) {
  const int bs = cq.block_size;
  Field3D<float> out(cq.bx * bs, cq.by * bs, cq.bz * bs);
  const BlockIndexer indexer(cq.bx, cq.by, cq.bz);
  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
  const std::size_t cube_bytes = cube_floats * sizeof(float);
  const Codec& codec = codec_for(cq.coder);

  // Every stream decodes through the codec plug, which validates the blob
  // against the expected coefficient count *before* handing anything back —
  // a truncated or corrupt stream fails here naming its index, it does not
  // silently yield zero-filled cubes.
  for (std::size_t si = 0; si < cq.streams.size(); ++si) {
    const auto& stream = cq.streams[si];
    if (stream.block_ids.empty()) continue;
    const std::size_t nfloats = stream.block_ids.size() * cube_floats;
    std::vector<float> coeffs(nfloats);
    codec.decode(stream.data.data(), stream.data.size(), stream.raw_bytes,
                 coeffs.data(), nfloats, si);
    Field3D<float> cube(bs, bs, bs);
    for (std::size_t b = 0; b < stream.block_ids.size(); ++b) {
      std::memcpy(cube.data(), coeffs.data() + b * cube_floats, cube_bytes);
      wavelet::inverse_3d(cube.view(), cq.levels);
      int bxc, byc, bzc;
      indexer.coords(static_cast<int>(stream.block_ids[b]), bxc, byc, bzc);
      for (int iz = 0; iz < bs; ++iz)
        for (int iy = 0; iy < bs; ++iy)
          for (int ix = 0; ix < bs; ++ix)
            out(bxc * bs + ix, byc * bs + iy, bzc * bs + iz) = cube(ix, iy, iz);
    }
  }
  return out;
}

void decompress_quantity(const CompressedQuantity& cq, Grid& grid) {
  require(!cq.derived_pressure,
          "decompress_quantity: derived pressure cannot be scattered back");
  require(grid.blocks_x() == cq.bx && grid.blocks_y() == cq.by &&
              grid.blocks_z() == cq.bz && grid.block_size() == cq.block_size,
          "decompress_quantity: grid shape mismatch");
  const Field3D<float> field = decompress_to_field(cq);
  const int nx = grid.cells_x(), ny = grid.cells_y(), nz = grid.cells_z();
  for (int iz = 0; iz < nz; ++iz)
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix)
        grid.cell(ix, iy, iz).q(cq.quantity) = field(ix, iy, iz);
}

void assemble_collective(CompressedQuantity& global, std::vector<RankStreams> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const RankStreams& a, const RankStreams& b) {
              return a.offset != b.offset ? a.offset < b.offset : a.rank < b.rank;
            });
  std::uint64_t expected = 0;
  for (auto& part : parts) {
    require(part.offset == expected,
            "assemble_collective: rank " + std::to_string(part.rank) +
                " landed at offset " + std::to_string(part.offset) +
                " but the scan places it at " + std::to_string(expected) +
                " (gap or overlap in the collective layout)");
    for (auto& stream : part.streams) {
      expected += stream.data.size();
      global.streams.push_back(std::move(stream));
    }
  }
}

}  // namespace mpcf::compression
