// Tests of the sparse significance coder and its pipeline integration.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "compression/compressor.h"
#include "compression/sparse_coder.h"
#include "io/compressed_file.h"
#include "workload/cloud.h"

namespace mpcf::compression {
namespace {

TEST(SparseCoder, RoundTripDense) {
  std::vector<float> data{1.0f, -2.0f, 3.5f, 0.25f};
  const auto enc = sparse_encode(data.data(), data.size());
  std::vector<float> out(data.size());
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(SparseCoder, RoundTripAllZeros) {
  std::vector<float> data(1000, 0.0f);
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_LT(enc.size(), 16u);  // a varint count + one run entry
  std::vector<float> out(data.size(), 1.0f);
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(SparseCoder, RoundTripEmpty) {
  const auto enc = sparse_encode(nullptr, 0);
  std::vector<float> out;
  sparse_decode(enc, out.data(), 0);
  EXPECT_GE(enc.size(), 1u);
}

class SparseRandomTest : public ::testing::TestWithParam<double> {};

TEST_P(SparseRandomTest, RoundTripAtSparsity) {
  const double density = GetParam();
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> val(-5, 5);
  std::bernoulli_distribution keep(density);
  std::vector<float> data(4096);
  for (auto& v : data) v = keep(rng) ? val(rng) : 0.0f;
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_EQ(enc.size(), sparse_encoded_size(data.data(), data.size()));
  std::vector<float> out(data.size());
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Sparsity, SparseRandomTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.99, 1.0));

TEST(SparseCoder, BeatsRawOnSparseData) {
  std::vector<float> data(8192, 0.0f);
  for (int i = 0; i < 100; ++i) data[i * 80] = 1.5f + i;
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_LT(enc.size(), data.size() * sizeof(float) / 10);
}

TEST(SparseCoder, RejectsLengthMismatch) {
  std::vector<float> data{1.0f, 0.0f, 2.0f};
  const auto enc = sparse_encode(data.data(), data.size());
  std::vector<float> out(5);
  EXPECT_THROW(sparse_decode(enc, out.data(), 5), PreconditionError);
}

TEST(SparseCoder, RejectsTruncatedStream) {
  std::vector<float> data(64, 0.0f);
  data[10] = 3.0f;
  auto enc = sparse_encode(data.data(), data.size());
  enc.resize(enc.size() - 2);
  std::vector<float> out(64);
  EXPECT_THROW(sparse_decode(enc, out.data(), 64), PreconditionError);
}

TEST(SparsePipeline, RoundTripThroughCompressorAndFile) {
  Grid g(2, 2, 2, 16, 1e-3);
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  set_cloud_ic(g, one, TwoPhaseIC{});

  CompressionParams pz;
  pz.eps = 1e-2f;
  pz.quantity = Q_G;
  pz.coder = Coder::kZlib;
  CompressionParams ps = pz;
  ps.coder = Coder::kSparseZlib;

  const auto cq_z = compress_quantity(g, pz);
  const auto cq_s = compress_quantity(g, ps);
  // Identical lossy content: reconstructed fields match exactly (the coder
  // choice is lossless).
  const auto fz = decompress_to_field(cq_z);
  const auto fs = decompress_to_field(cq_s);
  for (std::size_t i = 0; i < fz.size(); ++i) ASSERT_EQ(fz.data()[i], fs.data()[i]);

  // And the sparse variant survives the file format (coder id persisted).
  const std::string path = ::testing::TempDir() + "/mpcf_sparse.cq";
  io::write_compressed(path, cq_s);
  const auto rt = io::read_compressed(path);
  EXPECT_EQ(rt.coder, Coder::kSparseZlib);
  const auto frt = decompress_to_field(rt);
  EXPECT_EQ(frt(5, 6, 7), fs(5, 6, 7));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::compression
