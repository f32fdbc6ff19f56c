#include "io/checkpoint.h"

#define ZLIB_CONST  // const next_in: chunks deflate straight from const block memory
#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "io/safe_file.h"

namespace mpcf::io {

namespace {

constexpr char kMagicV1[8] = {'M', 'P', 'C', 'F', 'C', 'K', 'P', '1'};
constexpr char kMagicV2[8] = {'M', 'P', 'C', 'F', 'C', 'K', 'P', '2'};
constexpr char kMagicV3[8] = {'M', 'P', 'C', 'F', 'C', 'K', 'P', '3'};
constexpr std::size_t kFixedHeader = 72;  ///< magic, header CRC, v2-shaped fields
constexpr int kLevel = 6;
/// v3 chunks group consecutive blocks up to at least this many raw bytes.
constexpr std::size_t kChunkRawBytes = 256 * 1024;

/// One v3 chunk-table entry, as on disk.
struct ChunkEntry {
  std::uint32_t comp_bytes;
  std::uint32_t crc;
};
static_assert(sizeof(ChunkEntry) == 8);

/// Relative extent comparison that is exact for identical values, symmetric,
/// and not vacuously false when the reference extent is zero or the stored
/// value carries a negative perturbation (`< 1e-12 * extent` was both).
bool extent_matches(double stored, double expected) {
  const double scale = std::max(std::fabs(stored), std::fabs(expected));
  return std::fabs(stored - expected) <= 1e-12 * scale;
}

std::size_t block_bytes(const Grid& g) {
  return static_cast<std::size_t>(g.block_size()) * g.block_size() * g.block_size() *
         sizeof(Cell);
}

/// Header checks shared by every version: the stored shape, extent and raw
/// size must be the grid's.
void check_shape(const Grid& g, const std::int32_t dims[4], double extent,
                 std::uint64_t raw_bytes) {
  require(dims[0] == g.blocks_x() && dims[1] == g.blocks_y() &&
              dims[2] == g.blocks_z() && dims[3] == g.block_size(),
          "load_checkpoint: grid shape mismatch");
  require(extent_matches(extent, g.h() * g.cells_x()),
          "load_checkpoint: domain extent mismatch");
  require(raw_bytes == g.cell_count() * sizeof(Cell),
          "load_checkpoint: payload size mismatch");
}

/// The v3 chunk map, a function of the grid shape alone: chunk c holds the
/// blocks [first(c), last(c)) of SFC storage order, `per` consecutive blocks
/// of at least kChunkRawBytes together (one block per chunk from 32^3
/// blocks up, 19 blocks of 8^3). Grouping keeps the per-stream overhead of
/// small, well-compressing blocks off the file size.
struct ChunkMap {
  explicit ChunkMap(const Grid& g)
      : blocks(g.block_count()),
        per(static_cast<int>(std::min<std::size_t>(
            blocks, (kChunkRawBytes + block_bytes(g) - 1) / block_bytes(g)))),
        count((blocks + per - 1) / per) {}
  [[nodiscard]] int first(int c) const { return c * per; }
  [[nodiscard]] int last(int c) const { return std::min(blocks, (c + 1) * per); }

  int blocks, per, count;
};

/// A thread's zlib stream, reset for every chunk it codes.
class ZStream {
 public:
  explicit ZStream(bool deflating) : deflating_(deflating) {
    ok_ = (deflating ? deflateInit(&zs_, kLevel) : inflateInit(&zs_)) == Z_OK;
  }
  ~ZStream() {
    if (!ok_) return;
    if (deflating_)
      deflateEnd(&zs_);
    else
      inflateEnd(&zs_);
  }
  ZStream(const ZStream&) = delete;
  ZStream& operator=(const ZStream&) = delete;

  /// Deflates blocks [first, last) straight from block memory as one zlib
  /// stream into out[0, cap); returns its size, or 0 on failure.
  std::size_t deflate_blocks(const Grid& g, int first, int last, std::uint8_t* out,
                             std::size_t cap) {
    if (!ok_ || deflateReset(&zs_) != Z_OK) return 0;
    zs_.next_out = out;
    zs_.avail_out = static_cast<uInt>(cap);
    for (int b = first; b < last; ++b) {
      zs_.next_in = reinterpret_cast<const Bytef*>(g.block(b).data());
      zs_.avail_in = static_cast<uInt>(block_bytes(g));
      const bool end = b + 1 == last;
      if (deflate(&zs_, end ? Z_FINISH : Z_NO_FLUSH) != (end ? Z_STREAM_END : Z_OK) ||
          zs_.avail_in != 0)
        return 0;
    }
    return cap - zs_.avail_out;
  }

  /// Inflates one zlib stream of exactly blocks [first, last) into their
  /// `tmp` areas; false unless it fills them exactly and ends with the input.
  bool inflate_blocks(Grid& g, int first, int last, const std::uint8_t* in, std::size_t n) {
    if (!ok_ || inflateReset(&zs_) != Z_OK) return false;
    zs_.next_in = in;
    zs_.avail_in = static_cast<uInt>(n);
    for (int b = first; b < last; ++b) {
      zs_.next_out = reinterpret_cast<Bytef*>(g.block(b).tmp_data());
      zs_.avail_out = static_cast<uInt>(block_bytes(g));
      const bool end = b + 1 == last;
      if (inflate(&zs_, Z_NO_FLUSH) != (end ? Z_STREAM_END : Z_OK) || zs_.avail_out != 0)
        return false;
    }
    return zs_.avail_in == 0;
  }

 private:
  z_stream zs_{};
  bool deflating_;
  bool ok_ = false;
};

/// v1/v2 tail: one zlib stream over all cells. Sizes are validated against
/// the grid and the bytes present before anything is allocated, and the
/// blocks are written only once the whole stream inflated.
void load_single_stream(Cursor& cur, Grid& g, std::uint64_t raw_bytes,
                        std::uint64_t comp_bytes, const std::uint32_t* payload_crc) {
  require(comp_bytes == cur.remaining(),
          "load_checkpoint: truncated or oversized payload");
  const std::uint8_t* blob = cur.window(cur.offset(), comp_bytes);
  if (payload_crc != nullptr)
    require(crc32_bytes(blob, comp_bytes) == *payload_crc,
            "load_checkpoint: payload CRC mismatch");

  std::vector<std::uint8_t> raw(raw_bytes);
  uLongf raw_len = static_cast<uLongf>(raw.size());
  require(uncompress(raw.data(), &raw_len, blob, static_cast<uLong>(comp_bytes)) ==
                  Z_OK &&
              raw_len == raw_bytes,
          "load_checkpoint: zlib failure");

  const std::size_t n = block_bytes(g);
  for (int b = 0; b < g.block_count(); ++b)
    std::memcpy(g.block(b).data(), raw.data() + b * n, n);
}

/// v3 body. Every chunk CRC is verified before zlib sees any byte; the
/// chunks inflate in parallel into their blocks' `tmp` areas, and only once
/// all of them decoded do `data` and `tmp` swap (and `tmp` is zeroed), so a
/// failed load leaves the state untouched.
void load_chunks(const std::uint8_t* payload, const std::vector<ChunkEntry>& table,
                 const ChunkMap& map, Grid& g) {
  const int n = map.count;
  std::vector<std::size_t> offset(n + 1, 0);
  for (int c = 0; c < n; ++c) offset[c + 1] = offset[c] + table[c].comp_bytes;

  int bad = n;
#pragma omp parallel for schedule(dynamic, 1) reduction(min : bad)
  for (int c = 0; c < n; ++c)
    if (crc32_bytes(payload + offset[c], table[c].comp_bytes) != table[c].crc)
      bad = std::min(bad, c);
  require(bad == n, "load_checkpoint: chunk " + std::to_string(bad) + " CRC mismatch");

#pragma omp parallel reduction(min : bad)
  {
    ZStream zs(false);
#pragma omp for schedule(dynamic, 1)
    for (int c = 0; c < n; ++c)
      if (!zs.inflate_blocks(g, map.first(c), map.last(c), payload + offset[c],
                             table[c].comp_bytes))
        bad = std::min(bad, c);
  }
  require(bad == n, "load_checkpoint: chunk " + std::to_string(bad) + " zlib failure");

#pragma omp parallel for schedule(static)
  for (int b = 0; b < g.block_count(); ++b) {
    Block& blk = g.block(b);
    blk.swap_data_tmp();
    std::fill_n(blk.tmp_data(), blk.cells(), Cell{});
  }
}

CheckpointClock load_v3(Cursor& cur, const std::vector<std::uint8_t>& bytes, Grid& g) {
  const auto header_crc = cur.get<std::uint32_t>();
  std::int32_t dims[4];
  cur.read(dims, sizeof(dims));
  const auto time = cur.get<double>();
  const auto extent = cur.get<double>();
  const auto steps = cur.get<std::int64_t>();
  const auto raw_bytes = cur.get<std::uint64_t>();
  const auto comp_bytes = cur.get<std::uint64_t>();
  const auto chunks = cur.get<std::uint32_t>();
  require(chunks <= cur.remaining() / sizeof(ChunkEntry),
          "load_checkpoint: truncated chunk table");
  const std::size_t table_bytes = chunks * sizeof(ChunkEntry);
  require(crc32_bytes(bytes.data() + 12, kFixedHeader - 12 + table_bytes) == header_crc,
          "load_checkpoint: header CRC mismatch");
  check_shape(g, dims, extent, raw_bytes);
  const ChunkMap map(g);
  require(chunks == static_cast<std::uint32_t>(map.count),
          "load_checkpoint: chunk count " + std::to_string(chunks) + " is not the " +
              std::to_string(map.count) + " chunks of the grid");

  std::vector<ChunkEntry> table(chunks);
  cur.read(table.data(), table_bytes);
  std::uint64_t sum = 0;  // chunks * 2^32 cannot overflow
  for (const ChunkEntry& e : table) sum += e.comp_bytes;
  require(sum == comp_bytes && comp_bytes == cur.remaining(),
          "load_checkpoint: truncated or oversized payload");
  load_chunks(cur.window(cur.offset(), comp_bytes), table, map, g);
  return CheckpointClock{time, static_cast<long>(steps)};
}

}  // namespace

std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps) {
  const ChunkMap map(g);
  const int n = map.count;
  const uLong bound = compressBound(static_cast<uLong>(map.per * block_bytes(g)));
  require(bound <= std::numeric_limits<std::uint32_t>::max(),
          "save_checkpoint: blocks too large for a checkpoint chunk");

  // One zlib stream per chunk, deflated straight from block memory by an
  // OpenMP team into a per-thread bound-sized scratch, then kept exact-size.
  std::vector<std::vector<std::uint8_t>> chunk(n);
  std::vector<ChunkEntry> table(n);
  int bad = n;
#pragma omp parallel reduction(min : bad)
  {
    ZStream zs(true);
    std::vector<std::uint8_t> scratch(bound);
#pragma omp for schedule(dynamic, 1)
    for (int c = 0; c < n; ++c) {
      const std::size_t len =
          zs.deflate_blocks(g, map.first(c), map.last(c), scratch.data(), bound);
      if (len == 0) {
        bad = std::min(bad, c);
        continue;
      }
      chunk[c].assign(scratch.begin(), scratch.begin() + len);
      table[c] = {static_cast<std::uint32_t>(len), crc32_bytes(chunk[c].data(), len)};
    }
  }
  require(bad == n, "save_checkpoint: zlib failure");

  std::uint64_t comp_bytes = 0;
  for (const ChunkEntry& e : table) comp_bytes += e.comp_bytes;
  std::vector<std::uint8_t> header;  // bytes [12, 72 + 8n): everything the crc covers
  header.reserve(kFixedHeader - 12 + n * sizeof(ChunkEntry));
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    put_bytes(header, v);
  put_bytes(header, time);
  put_bytes(header, g.h() * g.cells_x());
  put_bytes(header, static_cast<std::int64_t>(steps));
  put_bytes(header, static_cast<std::uint64_t>(g.cell_count() * sizeof(Cell)));
  put_bytes(header, comp_bytes);
  put_bytes(header, static_cast<std::uint32_t>(n));
  for (const ChunkEntry& e : table) put_bytes(header, e);

  SafeFile f(path);
  f.write(kMagicV3, 8);
  const std::uint32_t header_crc = crc32_bytes(header.data(), header.size());
  f.put(header_crc);
  f.write(header.data(), header.size());
  for (const auto& c : chunk) f.write(c.data(), c.size());
  f.commit();

#if MPCF_CHECKED
  // Verify-after-write: re-read the committed file and prove that what
  // landed on disk is what we meant to write — size, magic, header CRC and
  // every chunk CRC (catches rot between rename and first use, torn commits
  // the OS hid from us, and any future serializer bug the CRCs alone would
  // only catch at restart time).
  const std::vector<std::uint8_t> back = read_file(path);
  const std::size_t total = 12 + header.size() + comp_bytes;
  MPCF_CHECK(back.size() == total, "checkpoint readback: " + path + " landed with " +
                                       std::to_string(back.size()) + " bytes, wrote " +
                                       std::to_string(total));
  MPCF_CHECK(std::memcmp(back.data(), kMagicV3, 8) == 0,
             "checkpoint readback: bad magic in " + path);
  MPCF_CHECK(crc32_bytes(back.data() + 12, header.size()) == header_crc,
             "checkpoint readback: header CRC mismatch in " + path);
  std::size_t off = 12 + header.size();
  for (int b = 0; b < n; ++b) {
    MPCF_CHECK(crc32_bytes(back.data() + off, table[b].comp_bytes) == table[b].crc,
               "checkpoint readback: chunk " + std::to_string(b) + " CRC mismatch in " +
                   path);
    off += table[b].comp_bytes;
  }
#endif
  return f.bytes_written();
}

CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  Cursor cur(bytes);
  char magic[8];
  cur.read(magic, 8);

  if (std::memcmp(magic, kMagicV3, 8) == 0) return load_v3(cur, bytes, g);

  const bool v2 = std::memcmp(magic, kMagicV2, 8) == 0;
  require(v2 || std::memcmp(magic, kMagicV1, 8) == 0, "load_checkpoint: bad magic");
  if (v2) {
    const auto header_crc = cur.get<std::uint32_t>();
    require(bytes.size() >= kFixedHeader, "load_checkpoint: truncated header");
    require(crc32_bytes(bytes.data() + 12, kFixedHeader - 12) == header_crc,
            "load_checkpoint: header CRC mismatch");
  }
  std::int32_t dims[4];
  cur.read(dims, sizeof(dims));
  const auto time = cur.get<double>();
  const auto extent = cur.get<double>();
  const auto steps = cur.get<std::int64_t>();
  const auto raw_bytes = cur.get<std::uint64_t>();
  const auto comp_bytes = cur.get<std::uint64_t>();
  std::uint32_t payload_crc = 0;
  if (v2) payload_crc = cur.get<std::uint32_t>();
  check_shape(g, dims, extent, raw_bytes);
  load_single_stream(cur, g, raw_bytes, comp_bytes, v2 ? &payload_crc : nullptr);
  return CheckpointClock{time, static_cast<long>(steps)};
}

std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim) {
  return save_grid_checkpoint(path, sim.grid(), sim.time(), sim.step_count());
}

void load_checkpoint(const std::string& path, Simulation& sim) {
  const CheckpointClock clock = load_grid_checkpoint(path, sim.grid());
  sim.restore_clock(clock.time, clock.steps);
}

}  // namespace mpcf::io
