// Golden bytes for the on-disk formats that must stay readable across
// releases: a checkpoint written by an older build has to resume, and a
// shard directory written by an older build has to open. Each test writes
// a fixed input and compares the FnvDigest of the file against a constant;
// a change to any byte of the layout fails here, before it strands old
// files. Change a constant only together with the format's version word.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "core/checkpoint.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "util/digest.h"
#include "test_dir.h"

namespace sepriv {
namespace {

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return FnvDigest(bytes.data(), bytes.size());
}

/// A small checkpoint with every field set. The matrix entries are exact in
/// float32, so the same values serve both storage modes.
TrainCheckpoint FixedCheckpoint(EmbeddingStorage storage) {
  TrainCheckpoint c;
  c.graph_fingerprint = 0x0123456789abcdefULL;
  c.config_digest = 0xfedcba9876543210ULL;
  c.storage = storage;
  c.epochs_run = 7;
  c.accountant_steps = 91;
  c.noise_multiplier = 1.25;
  c.sampling_rate = 0.015625;
  c.rng.s[0] = 1;
  c.rng.s[1] = 2;
  c.rng.s[2] = 3;
  c.rng.s[3] = 0x9e3779b97f4a7c15ULL;
  c.rng.cached = -0.5;
  c.rng.has_cached = true;
  c.loss_curve = {0.75, 0.5, 0.375};
  c.w_in = Matrix(3, 2);
  c.w_out = Matrix(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      c.w_in(i, j) = (static_cast<double>(i * 2 + j) - 2.0) * 0.125;
      c.w_out(i, j) = static_cast<double>(i + j) * 0.25;
    }
  }
  c.w_in.MarkDpSanitized();
  return c;
}

TEST(FormatFreezeTest, CheckpointFloat64BytesAreFrozen) {
  const TestDir tmp;
  const std::string path = tmp / "f64.ckpt";
  const TrainCheckpoint ckpt = FixedCheckpoint(EmbeddingStorage::kFloat64);
  // sepriv-privflow: allow(leak): golden-bytes test on a synthetic checkpoint; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  EXPECT_EQ(FileDigest(path), 0xca8906c8081a6149ULL);
}

TEST(FormatFreezeTest, CheckpointFloat32BytesAreFrozen) {
  const TestDir tmp;
  const std::string path = tmp / "f32.ckpt";
  const TrainCheckpoint ckpt = FixedCheckpoint(EmbeddingStorage::kFloat32);
  // sepriv-privflow: allow(leak): golden-bytes test on a synthetic checkpoint; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  EXPECT_EQ(FileDigest(path), 0xa3978da891b1f41cULL);
}

TEST(FormatFreezeTest, ShardManifestBytesAreFrozen) {
  const TestDir tmp;
  const std::string dir = tmp / "shards";
  ASSERT_TRUE(WriteGraphShards(BarabasiAlbert(60, 3, /*seed=*/5), dir, 3));
  EXPECT_EQ(FileDigest(dir + "/graph.manifest"), 0x12b024c0f9ef951eULL);
}

}  // namespace
}  // namespace sepriv
