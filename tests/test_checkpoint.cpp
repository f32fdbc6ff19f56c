// Tests of the bitwise-exact checkpoint/restart path: round trips, the v3
// chunked layout (thread-count-independent bytes, chunk-level corruption
// that must leave the target grid untouched) and v2 backward compatibility.
#include <gtest/gtest.h>
#include <omp.h>
#include <zlib.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "io/checkpoint.h"
#include "io/safe_file.h"
#include "workload/cloud.h"

namespace mpcf::io {
namespace {

Simulation make_sim() {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(2, 2, 2, 8, p);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(sim.grid(), bubbles, TwoPhaseIC{});
  return sim;
}

/// A state and clock unlike make_sim's, without the cost of stepping.
void make_different(Simulation& sim) {
  set_cloud_ic(sim.grid(), {{0.3e-3, 0.6e-3, 0.35e-3, 0.2e-3}}, TwoPhaseIC{});
  sim.restore_clock(3.5e-7, 11);
}

TEST(Checkpoint, RoundTripIsBitwiseExact) {
  Simulation a = make_sim();
  for (int s = 0; s < 5; ++s) a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt.bin";
  const auto bytes = save_checkpoint(path, a);
  EXPECT_GT(bytes, 0u);

  Simulation b = make_sim();  // same shape, different (initial) state
  load_checkpoint(path, b);
  EXPECT_DOUBLE_EQ(b.time(), a.time());
  EXPECT_EQ(b.step_count(), a.step_count());
  for (int iz = 0; iz < 16; ++iz)
    for (int iy = 0; iy < 16; ++iy)
      for (int ix = 0; ix < 16; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(b.grid().cell(ix, iy, iz).q(q), a.grid().cell(ix, iy, iz).q(q));
  std::remove(path.c_str());
}

TEST(Checkpoint, RestartReproducesTrajectoryExactly) {
  // Run 10 steps straight vs 5 steps + checkpoint + restart + 5 steps:
  // identical bits (the low-storage RK has no hidden state across steps).
  Simulation straight = make_sim();
  for (int s = 0; s < 10; ++s) straight.step();

  Simulation first = make_sim();
  for (int s = 0; s < 5; ++s) first.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt2.bin";
  save_checkpoint(path, first);

  Simulation resumed = make_sim();
  load_checkpoint(path, resumed);
  for (int s = 0; s < 5; ++s) resumed.step();

  EXPECT_DOUBLE_EQ(resumed.time(), straight.time());
  for (int iz = 0; iz < 16; ++iz)
    for (int iy = 0; iy < 16; ++iy)
      for (int ix = 0; ix < 16; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(resumed.grid().cell(ix, iy, iz).q(q),
                    straight.grid().cell(ix, iy, iz).q(q))
              << ix << "," << iy << "," << iz << " q=" << q;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsShapeMismatch) {
  Simulation a = make_sim();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt3.bin";
  save_checkpoint(path, a);
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation wrong(4, 2, 2, 8, p);
  EXPECT_THROW(load_checkpoint(path, wrong), PreconditionError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt4.bin";
  // mpcf-lint: allow(raw-io): corruption test must plant an invalid file without SafeFile's integrity machinery
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  Simulation a = make_sim();
  EXPECT_THROW(load_checkpoint(path, a), PreconditionError);
  std::remove(path.c_str());
}

TEST(Checkpoint, CompressesQuiescentStateWell) {
  // A freshly initialized (mostly uniform) state compresses strongly even
  // though the encoding is lossless.
  Simulation a = make_sim();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt5.bin";
  const auto bytes = save_checkpoint(path, a);
  const auto raw = a.grid().cell_count() * sizeof(Cell);
  EXPECT_LT(bytes, raw / 2);
  std::remove(path.c_str());
}

// --- v3 layout and chunk-level corruption ---------------------------------

constexpr std::size_t kTableOffset = 72;  // the chunk table follows the fixed header

std::vector<Cell> snapshot(const Grid& g) {
  std::vector<Cell> cells;
  for (int b = 0; b < g.block_count(); ++b)
    cells.insert(cells.end(), g.block(b).data(), g.block(b).data() + g.block(b).cells());
  return cells;
}

::testing::AssertionResult state_is(const Grid& g, const std::vector<Cell>& cells) {
  const std::vector<Cell> now = snapshot(g);
  if (now.size() != cells.size() ||
      std::memcmp(now.data(), cells.data(), now.size() * sizeof(Cell)) != 0)
    return ::testing::AssertionFailure() << "grid state changed";
  return ::testing::AssertionSuccess();
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // mpcf-lint: allow(raw-io): plants hand-built and deliberately corrupted images that SafeFile's writers would never produce
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + off, 4);
  return v;
}

void set_u32(std::vector<std::uint8_t>& bytes, std::size_t off, std::uint32_t v) {
  std::memcpy(bytes.data() + off, &v, 4);
}

/// Recomputes the header CRC of a v3 image whose table has `chunks` entries.
void reseal_header(std::vector<std::uint8_t>& bytes, std::uint32_t chunks) {
  set_u32(bytes, 8, crc32_bytes(bytes.data() + 12, kTableOffset - 12 + 8 * chunks));
}

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

/// The v3 chunk map groups consecutive blocks until a chunk holds at least
/// 256 KiB of cells: 19 blocks of 8^3 cells (28 B each).
int blocks_per_chunk(int bs) {
  const int block = bs * bs * bs * static_cast<int>(sizeof(Cell));
  return (256 * 1024 + block - 1) / block;
}

/// 5x2x2 blocks of 8^3 cells with one bubble at x = bubble_x: 20 blocks in
/// two chunks (19 and 1), in row-major storage order.
Simulation make_chunked_sim(double bubble_x) {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(5, 2, 2, 8, p);
  set_cloud_ic(sim.grid(), {{bubble_x, 0.2e-3, 0.2e-3, 0.12e-3}}, TwoPhaseIC{});
  return sim;
}

class CheckpointV3 : public ::testing::Test {
 protected:
  void SetUp() override {
    src_.restore_clock(1.5e-7, 9);
    path_ = ::testing::TempDir() + "/mpcf_ckpt_v3.bin";
    save_checkpoint(path_, src_);
    bytes_ = read_file(path_);
    n_ = u32_at(bytes_, 68);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Another state and clock of the same shape.
  static Simulation make_other() {
    Simulation sim = make_chunked_sim(0.3e-3);
    sim.restore_clock(3.5e-7, 11);
    return sim;
  }

  /// Byte offset of chunk c's zlib stream.
  std::size_t chunk_offset(std::uint32_t c) const {
    std::size_t off = kTableOffset + 8 * n_;
    for (std::uint32_t k = 0; k < c; ++k) off += u32_at(bytes_, kTableOffset + 8 * k);
    return off;
  }

  /// Loads `image` into a victim of another state and clock: the load must
  /// throw PreconditionError and leave the victim's state and clock untouched.
  void expect_rejected_untouched(const std::vector<std::uint8_t>& image,
                                 const std::string& what) {
    write_raw(path_, image);
    Simulation victim = make_other();
    const std::vector<Cell> before = snapshot(victim.grid());
    EXPECT_THROW(load_checkpoint(path_, victim), PreconditionError) << what;
    EXPECT_TRUE(state_is(victim.grid(), before)) << what;
    EXPECT_EQ(victim.time(), 3.5e-7) << what;
    EXPECT_EQ(victim.step_count(), 11) << what;
  }

  Simulation src_ = make_chunked_sim(0.75e-3);
  std::string path_;
  std::vector<std::uint8_t> bytes_;
  std::uint32_t n_ = 0;
};

TEST_F(CheckpointV3, ChunksGroupConsecutiveBlocksInSfcOrder) {
  ASSERT_EQ(std::memcmp(bytes_.data(), "MPCFCKP3", 8), 0);
  const int per = blocks_per_chunk(8);
  ASSERT_EQ(per, 19);
  ASSERT_EQ(n_, 2u);
  EXPECT_EQ(chunk_offset(n_), bytes_.size());
  // Each chunk is an independent zlib stream of exactly its blocks, in order.
  const Grid& g = src_.grid();
  const std::size_t block = g.block(0).cells() * sizeof(Cell);
  for (std::uint32_t c = 0; c < n_; ++c) {
    const int first = static_cast<int>(c) * per;
    const int last = std::min(g.block_count(), first + per);
    std::vector<std::uint8_t> raw((last - first) * block);
    uLongf len = raw.size();
    ASSERT_EQ(uncompress(raw.data(), &len, bytes_.data() + chunk_offset(c),
                         u32_at(bytes_, kTableOffset + 8 * c)),
              Z_OK);
    ASSERT_EQ(len, raw.size());
    for (int b = first; b < last; ++b)
      EXPECT_EQ(std::memcmp(raw.data() + (b - first) * block, g.block(b).data(), block), 0)
          << "chunk " << c << " block " << b;
  }
}

TEST_F(CheckpointV3, FileBytesDoNotDependOnThreadCount) {
  const ThreadCountGuard guard;
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const std::string path = path_ + "." + std::to_string(threads);
    save_checkpoint(path, src_);
    EXPECT_EQ(read_file(path), bytes_) << threads << " threads";
    Simulation back = make_other();
    load_checkpoint(path, back);
    EXPECT_TRUE(state_is(back.grid(), snapshot(src_.grid()))) << threads << " threads";
    EXPECT_EQ(back.step_count(), 9);
    std::remove(path.c_str());
  }
}

TEST_F(CheckpointV3, SuccessfulLoadZeroesTheAccumulator) {
  Simulation back = make_other();
  for (int b = 0; b < back.grid().block_count(); ++b) {  // a stale RK accumulator
    Block& blk = back.grid().block(b);
    std::fill_n(blk.tmp_data(), blk.cells(), Cell{1, 2, 3, 4, 5, 6, 7});
  }
  load_checkpoint(path_, back);
  for (int b = 0; b < back.grid().block_count(); ++b) {
    const Block& blk = back.grid().block(b);
    for (std::size_t k = 0; k < blk.cells(); ++k)
      for (int q = 0; q < kNumQuantities; ++q)
        ASSERT_EQ(blk.tmp_data()[k].q(q), 0.0f) << "block " << b;
  }
}

TEST_F(CheckpointV3, CorruptDeflateDataWithValidCrcLeavesGridUntouched) {
  for (const std::uint32_t c : {0u, n_ - 1}) {
    const std::size_t len = u32_at(bytes_, kTableOffset + 8 * c);
    for (const std::size_t at : {std::size_t{0}, len / 2}) {
      auto image = bytes_;
      image[chunk_offset(c) + at] ^= 0x5a;
      set_u32(image, kTableOffset + 8 * c + 4, crc32_bytes(image.data() + chunk_offset(c), len));
      reseal_header(image, n_);
      expect_rejected_untouched(image, "chunk " + std::to_string(c) + " byte " +
                                           std::to_string(at));
    }
  }
}

TEST_F(CheckpointV3, ChunkCountOtherThanTheGridsIsRejected) {
  // One chunk per block (20) is a valid-looking count, but not this grid's map.
  for (const std::uint32_t chunks : {n_ - 1, n_ + 1, std::uint32_t{20}}) {
    auto image = bytes_;
    set_u32(image, 68, chunks);
    reseal_header(image, chunks);
    expect_rejected_untouched(image, "chunk count " + std::to_string(chunks));
  }
}

TEST_F(CheckpointV3, HugeChunkSizeWithValidHeaderIsRejected) {
  auto image = bytes_;
  set_u32(image, kTableOffset, 0xffffffffu);
  reseal_header(image, n_);
  expect_rejected_untouched(image, "huge chunk 0");
}

TEST_F(CheckpointV3, BitFlipInAnyChunkLeavesGridUntouched) {
  for (std::uint32_t c = 0; c < n_; ++c) {
    auto image = bytes_;
    image[chunk_offset(c) + u32_at(bytes_, kTableOffset + 8 * c) / 3] ^= 0x10;
    expect_rejected_untouched(image, "chunk " + std::to_string(c));
  }
}

// --- v2 backward compatibility -------------------------------------------

/// Hand-builds a v2 file ("MPCFCKP2": one zlib stream over all cells),
/// the format written before the chunked v3.
void write_v2_checkpoint(const std::string& path, const Simulation& sim) {
  const Grid& g = sim.grid();
  const std::vector<Cell> cells = snapshot(g);
  const uLong raw = static_cast<uLong>(cells.size() * sizeof(Cell));
  std::vector<std::uint8_t> bytes(raw);
  std::memcpy(bytes.data(), cells.data(), raw);
  uLongf comp_len = compressBound(raw);
  std::vector<std::uint8_t> comp(comp_len);
  ASSERT_EQ(compress2(comp.data(), &comp_len, bytes.data(), raw, 6), Z_OK);
  comp.resize(comp_len);

  std::vector<std::uint8_t> header;
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    put_bytes(header, v);
  put_bytes(header, sim.time());
  put_bytes(header, g.h() * g.cells_x());
  put_bytes(header, static_cast<std::int64_t>(sim.step_count()));
  put_bytes(header, static_cast<std::uint64_t>(raw));
  put_bytes(header, static_cast<std::uint64_t>(comp.size()));
  put_bytes(header, crc32_bytes(comp.data(), comp.size()));

  std::vector<std::uint8_t> image{'M', 'P', 'C', 'F', 'C', 'K', 'P', '2'};
  put_bytes(image, crc32_bytes(header.data(), header.size()));
  image.insert(image.end(), header.begin(), header.end());
  image.insert(image.end(), comp.begin(), comp.end());
  write_raw(path, image);
}

TEST(CheckpointV2Compat, LegacyFilesStillLoadBitwise) {
  Simulation a = make_sim();
  make_different(a);
  const std::string path = ::testing::TempDir() + "/mpcf_v2.ckp";
  write_v2_checkpoint(path, a);

  Simulation b = make_sim();
  load_checkpoint(path, b);
  EXPECT_DOUBLE_EQ(b.time(), a.time());
  EXPECT_EQ(b.step_count(), a.step_count());
  EXPECT_TRUE(state_is(b.grid(), snapshot(a.grid())));
  std::remove(path.c_str());
}

TEST(CheckpointV2Compat, TruncatedLegacyFilesAreRejected) {
  Simulation a = make_sim();
  make_different(a);
  const std::string path = ::testing::TempDir() + "/mpcf_v2_trunc.ckp";
  write_v2_checkpoint(path, a);
  const auto bytes = read_file(path);
  std::vector<std::size_t> cuts;  // every header field boundary, then the payload
  for (std::size_t c = 0; c <= 72; c += 4) cuts.push_back(c);
  cuts.push_back(72 + (bytes.size() - 72) / 2);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    write_raw(path, {bytes.begin(), bytes.begin() + cut});
    Simulation victim = make_sim();
    const std::vector<Cell> before = snapshot(victim.grid());
    EXPECT_THROW(load_checkpoint(path, victim), PreconditionError) << "v2 cut at " << cut;
    EXPECT_TRUE(state_is(victim.grid(), before)) << "v2 cut at " << cut;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::io
