// Conformance and correctness tests of the pipelined multi-threaded dump
// path (DESIGN.md §13): decoded output independent of the worker count for
// every registered codec, the OpenMP team from main, background and nested
// callers, deterministic file layout,
// the v3 on-disk format, the LZ4-class byte coder, parameter validation at
// ingestion, and fault injection through the two-phase aggregating writer.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compression/async_dumper.h"
#include "compression/codec.h"
#include "compression/pipeline.h"
#include "io/compressed_file.h"
#include "io/fault_injection.h"
#include "io/safe_file.h"
#include "workload/cloud.h"

namespace mpcf::compression {
namespace {

namespace fs = std::filesystem;

constexpr Coder kAllCoders[] = {Coder::kZlib, Coder::kSparseZlib, Coder::kLz4,
                                Coder::kSparseLz4};

Grid make_grid() {
  Grid g(4, 4, 4, 8, 1e-3);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(g, bubbles, TwoPhaseIC{});
  return g;
}

CompressionParams make_params(Coder coder, int workers) {
  CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  p.coder = coder;
  p.workers = workers;
  return p;
}

void expect_fields_bitwise_equal(const Field3D<float>& a, const Field3D<float>& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.nz(), b.nz());
  for (int iz = 0; iz < a.nz(); ++iz)
    for (int iy = 0; iy < a.ny(); ++iy)
      for (int ix = 0; ix < a.nx(); ++ix)
        ASSERT_EQ(a(ix, iy, iz), b(ix, iy, iz))
            << "at " << ix << "," << iy << "," << iz;
}

// --- Conformance: decoded output across worker counts --------------------

TEST(PipelineConformance, MatchesSynchronousPathForEveryCodecAndWorkerCount) {
  // compress_quantity (one worker per core) and the stage graph at any other
  // worker count run the same per-block FWT + decimation and the same codec,
  // so the decoded fields are bitwise identical for every codec x workers.
  const Grid g = make_grid();
  for (const Coder coder : kAllCoders) {
    const auto f_sync = decompress_to_field(compress_quantity(g, make_params(coder, 0)));
    for (const int workers : {1, 2, 8}) {
      PipelineStats stats;
      const auto cq = compress_quantity_pipelined(g, make_params(coder, workers), &stats);
      EXPECT_EQ(cq.coder, coder);
      EXPECT_EQ(stats.chunks, pipeline_chunk_count(g.block_count(), workers));
      EXPECT_EQ(static_cast<int>(cq.streams.size()), stats.chunks);
      const auto f_pipe = decompress_to_field(cq);
      expect_fields_bitwise_equal(f_pipe, f_sync);
    }
  }
}

TEST(PipelineConformance, StreamsAreOrderedByBlockId) {
  // Stream order is fixed by block id — chunk c always lands at streams[c]
  // regardless of which worker finished it first.
  const Grid g = make_grid();
  const auto cq = compress_quantity_pipelined(g, make_params(Coder::kZlib, 8));
  std::vector<std::uint32_t> ids;
  for (const auto& s : cq.streams) {
    ASSERT_FALSE(s.block_ids.empty());
    ids.insert(ids.end(), s.block_ids.begin(), s.block_ids.end());
  }
  std::vector<std::uint32_t> expected(g.block_count());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(ids, expected);
}

TEST(PipelineConformance, EmittedFileIsBitwiseStableRunToRun) {
  // For a fixed worker count and codec the emitted file bytes depend only on
  // the data — never on scheduling.
  const Grid g = make_grid();
  for (const Coder coder : {Coder::kSparseZlib, Coder::kLz4}) {
    const std::string a = ::testing::TempDir() + "/mpcf_pipe_det_a.cq";
    const std::string b = ::testing::TempDir() + "/mpcf_pipe_det_b.cq";
    const auto params = make_params(coder, 8);
    dump_quantity_pipelined(g, params, a);
    dump_quantity_pipelined(g, params, b);
    EXPECT_EQ(io::read_file(a), io::read_file(b))
        << "coder " << static_cast<int>(coder);
    std::remove(a.c_str());
    std::remove(b.c_str());
  }
}

TEST(PipelineConformance, ChunkCountIsAPureFunctionOfShapeAndWorkers) {
  EXPECT_EQ(pipeline_chunk_count(0, 4), 0);
  EXPECT_EQ(pipeline_chunk_count(3, 4), 3);    // capped at the block count
  EXPECT_EQ(pipeline_chunk_count(64, 1), 4);   // 4 chunks per worker
  EXPECT_EQ(pipeline_chunk_count(64, 4), 16);
  EXPECT_EQ(pipeline_chunk_count(64, 100), 64);
}

// --- The worker pool: one OpenMP team per dump ---------------------------

TEST(PipelinePool, MainBackgroundAndNestedCallersWriteIdenticalBytes) {
  // The same 2-worker dump three ways. From the main thread and from a
  // background std::thread the region is not nested, so each caller gets a
  // team of 2; inside an active parallel region nesting is off and the team
  // is 1. The chunk map follows the requested count, so the bytes agree.
  struct ActiveLevels {
    int saved = omp_get_max_active_levels();
    ActiveLevels() { omp_set_max_active_levels(1); }
    ~ActiveLevels() { omp_set_max_active_levels(saved); }
  } one_level;
  const Grid g = make_grid();
  const auto params = make_params(Coder::kSparseZlib, 2);
  const std::string dir = ::testing::TempDir();
  const std::string paths[3] = {dir + "/mpcf_pool_main.cq", dir + "/mpcf_pool_bg.cq",
                                dir + "/mpcf_pool_nested.cq"};
  PipelineStats st[3];

  dump_quantity_pipelined(g, params, paths[0], &st[0]);
  std::thread background([&] { dump_quantity_pipelined(g, params, paths[1], &st[1]); });
  background.join();
  int outer_level = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      outer_level = omp_get_active_level();
      dump_quantity_pipelined(g, params, paths[2], &st[2]);
    }
  }

  EXPECT_EQ(st[0].workers, 2);
  EXPECT_EQ(st[1].workers, 2);
  ASSERT_EQ(outer_level, 1) << "the enclosing region did not become active";
  EXPECT_EQ(st[2].workers, 1);
  for (const auto& s : st) {
    EXPECT_EQ(static_cast<int>(s.worker_times.size()), s.workers);
    EXPECT_EQ(s.chunks, pipeline_chunk_count(g.block_count(), 2));
  }
  const auto main_bytes = io::read_file(paths[0]);
  EXPECT_EQ(io::read_file(paths[1]), main_bytes);
  EXPECT_EQ(io::read_file(paths[2]), main_bytes);
  for (const auto& p : paths) std::remove(p.c_str());
}

// --- The v3 on-disk format ------------------------------------------------

TEST(PipelineDump, WritesReadableV3WithAlignedBlobRegion) {
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_v3.cq";
  PipelineStats stats;
  const double rate =
      dump_quantity_pipelined(g, make_params(Coder::kSparseZlib, 2), path, &stats);
  EXPECT_GT(rate, 1.0);
  EXPECT_EQ(stats.bytes_written, fs::file_size(path));
  EXPECT_GT(stats.workers, 0);

  const auto bytes = io::read_file(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 8), "MPCFCQ03");

  const auto rt = io::read_compressed(path);
  EXPECT_EQ(rt.coder, Coder::kSparseZlib);
  const auto f_sync = decompress_to_field(compress_quantity(g, make_params(Coder::kSparseZlib, 0)));
  expect_fields_bitwise_equal(decompress_to_field(rt), f_sync);
  std::remove(path.c_str());
}

TEST(PipelineDump, BlobOffsetsStartAtAlignedBoundary) {
  // The aggregator pads the directory so phase-two writes start 4 KiB
  // aligned; the first stream's directory offset must sit on that boundary.
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_align.cq";
  dump_quantity_pipelined(g, make_params(Coder::kZlib, 2), path);
  const auto bytes = io::read_file(path);
  io::Cursor cur(bytes);
  cur.skip(8 + 4 + 24 + 8 + 4);  // magic, crc, dims, eps/flags, fourcc
  const auto nstreams = cur.get<std::uint32_t>();
  ASSERT_GT(nstreams, 0u);
  cur.skip(4 + 8 + 8);  // first entry: id count, raw bytes, blob size
  const auto first_offset = cur.get<std::uint64_t>();
  EXPECT_EQ(first_offset % 4096, 0u);
  std::remove(path.c_str());
}

TEST(PipelineDump, AllCodecsRoundTripThroughTheFile) {
  const Grid g = make_grid();
  const auto f_ref = decompress_to_field(compress_quantity(g, make_params(Coder::kZlib, 0)));
  for (const Coder coder : kAllCoders) {
    const std::string path = ::testing::TempDir() + "/mpcf_pipe_codec.cq";
    dump_quantity_pipelined(g, make_params(coder, 2), path);
    const auto rt = io::read_compressed(path);
    EXPECT_EQ(rt.coder, coder);
    expect_fields_bitwise_equal(decompress_to_field(rt), f_ref);
    std::remove(path.c_str());
  }
}

// --- Parameter validation at ingestion ------------------------------------

TEST(PipelineValidation, OutOfRangeZlibLevelIsNamedAtIngestion) {
  // Regression: an out-of-range level used to fail deep inside compress2 as
  // an unexplained "compress2 failed".
  const Grid g = make_grid();
  for (const int level : {-2, 10, 99}) {
    auto p = make_params(Coder::kZlib, 1);
    p.zlib_level = level;
    try {
      (void)compress_quantity_pipelined(g, p);
      FAIL() << "level " << level << " accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(level)), std::string::npos)
          << "error does not name the level: " << e.what();
    }
    EXPECT_THROW((void)compress_quantity(g, p), PreconditionError);
    AsyncDumper dumper;
    EXPECT_THROW(dumper.dump(g, p, ::testing::TempDir() + "/mpcf_pipe_badlvl.cq"),
                 PreconditionError);
    EXPECT_FALSE(dumper.busy());
  }
  // The whole documented range is accepted.
  for (const int level : {-1, 0, 1, 9}) {
    auto p = make_params(Coder::kZlib, 1);
    p.zlib_level = level;
    EXPECT_NO_THROW((void)compress_quantity_pipelined(g, p));
  }
}

TEST(PipelineValidation, UnknownCoderIsRejectedAtIngestion) {
  const Grid g = make_grid();
  auto p = make_params(static_cast<Coder>(7), 1);
  EXPECT_THROW((void)compress_quantity_pipelined(g, p), PreconditionError);
  EXPECT_THROW((void)compress_quantity(g, p), PreconditionError);
}

// --- The LZ4-class byte coder ---------------------------------------------

std::vector<std::uint8_t> lz4_roundtrip(const std::vector<std::uint8_t>& src) {
  const auto blob = lz4_compress(src.data(), src.size());
  std::vector<std::uint8_t> out(src.size());
  lz4_decompress(blob.data(), blob.size(), out.data(), out.size(), "test");
  return out;
}

TEST(Lz4Coder, RoundTripsCompressibleAndRandomData) {
  std::mt19937 rng(42);
  // Highly compressible: long runs and repeated phrases.
  std::vector<std::uint8_t> compressible;
  for (int rep = 0; rep < 200; ++rep)
    for (const char c : std::string("abcabcabc0000000000"))
      compressible.push_back(static_cast<std::uint8_t>(c));
  EXPECT_EQ(lz4_roundtrip(compressible), compressible);
  EXPECT_LT(lz4_compress(compressible.data(), compressible.size()).size(),
            compressible.size() / 4);

  // Incompressible random bytes must still round-trip (as literals).
  std::vector<std::uint8_t> random(10000);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(lz4_roundtrip(random), random);

  // Degenerate sizes.
  EXPECT_EQ(lz4_roundtrip({}), std::vector<std::uint8_t>{});
  for (const std::size_t n : {1u, 4u, 5u, 12u, 13u}) {
    std::vector<std::uint8_t> tiny(n, 0x5a);
    EXPECT_EQ(lz4_roundtrip(tiny), tiny) << "n=" << n;
  }
}

TEST(Lz4Coder, RunLengthExtremesExerciseExtendedLengths) {
  // > 15+255 literals and matches force the 255-saturated length extensions.
  std::vector<std::uint8_t> src(100000, 0);
  std::mt19937 rng(7);
  for (std::size_t i = 0; i < 1000; ++i) src[rng() % src.size()] = 1;
  EXPECT_EQ(lz4_roundtrip(src), src);
}

TEST(Lz4Coder, CorruptBlobsAreRejectedNotOverrun) {
  std::vector<std::uint8_t> src;
  for (int rep = 0; rep < 100; ++rep)
    for (const char c : std::string("hello world hello world "))
      src.push_back(static_cast<std::uint8_t>(c));
  const auto blob = lz4_compress(src.data(), src.size());
  std::vector<std::uint8_t> out(src.size());

  // Truncation at every byte boundary must throw, never read past the blob.
  for (std::size_t cut = 0; cut < blob.size(); cut += 3)
    EXPECT_THROW(lz4_decompress(blob.data(), cut, out.data(), out.size(), "trunc"),
                 PreconditionError)
        << "cut " << cut;

  // A match offset pointing before the decoded window must be rejected.
  std::vector<std::uint8_t> bad = {0x10, 'x', 0x09, 0x00};  // offset 9 > decoded 1
  EXPECT_THROW(lz4_decompress(bad.data(), bad.size(), out.data(), 16, "offset"),
               PreconditionError);
  // Offset zero is never valid.
  std::vector<std::uint8_t> zero_off = {0x10, 'x', 0x00, 0x00};
  EXPECT_THROW(lz4_decompress(zero_off.data(), zero_off.size(), out.data(), 16, "zero"),
               PreconditionError);
  // Declared size mismatch: blob decodes short of raw_bytes.
  EXPECT_THROW(lz4_decompress(blob.data(), blob.size(), out.data(), src.size() + 1,
                              "short"),
               PreconditionError);
  // Context string must appear in the error.
  try {
    lz4_decompress(bad.data(), bad.size(), out.data(), 16, "ctx-tag");
    FAIL();
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx-tag"), std::string::npos);
  }
}

TEST(Lz4Coder, SparseLz4BeatsDenseLz4OnDecimatedData) {
  // The fast path for near-piecewise-constant quantities: stripping zero
  // runs first must help the byte coder on decimated coefficients.
  const Grid g = make_grid();
  const auto dense = compress_quantity(g, make_params(Coder::kLz4, 0));
  const auto sparse = compress_quantity(g, make_params(Coder::kSparseLz4, 0));
  EXPECT_GT(dense.compression_rate(), 1.0);
  EXPECT_GE(sparse.compression_rate(), dense.compression_rate());
}

// --- Fault injection through the aggregating writer -----------------------

TEST(PipelineFault, InjectedWriteFailureWithTwoWorkersFailsCleanly) {
  struct FaultGuard {
    ~FaultGuard() { io::fault::disarm(); }
  } guard;
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_fault.cq";
  std::remove(path.c_str());
  io::fault::arm({io::fault::Kind::kEnospc, 0, 0, 0});
  EXPECT_THROW(dump_quantity_pipelined(g, make_params(Coder::kSparseZlib, 2), path),
               IoError);
  EXPECT_TRUE(io::fault::fired());
  EXPECT_FALSE(fs::exists(path)) << "failed pipelined dump published a file";
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(PipelineFault, EnvInjectedFaultPassesWithTwoWorkers) {
  // CI leg: run with MPCF_IO_FAULT=enospc:0 (io-pipeline job); without the
  // env knob the test is skipped.
  if (std::getenv("MPCF_IO_FAULT") == nullptr)
    GTEST_SKIP() << "MPCF_IO_FAULT not set";
  struct FaultGuard {
    ~FaultGuard() { io::fault::disarm(); }
  } guard;
  io::fault::arm_from_env();
  ASSERT_TRUE(io::fault::armed());
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_envfault.cq";
  std::remove(path.c_str());
  EXPECT_THROW(dump_quantity_pipelined(g, make_params(Coder::kSparseZlib, 2), path),
               IoError);
  EXPECT_TRUE(io::fault::fired());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Disarmed again: the same dump goes through and verifies.
  io::fault::disarm();
  const double rate = dump_quantity_pipelined(g, make_params(Coder::kSparseZlib, 2), path);
  EXPECT_GT(rate, 1.0);
  EXPECT_NO_THROW((void)io::read_compressed(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::compression
