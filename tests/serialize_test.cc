// Tests for module checkpointing (state dict + in-memory snapshots).
#include <cstdio>

#include <gtest/gtest.h>

#include "core/focus_model.h"
#include "nn/attention.h"
#include "nn/serialize.h"
#include "tests/test_util.h"

namespace focus {
namespace {

TEST(SerializeTest, StateDictRoundTripRestoresForward) {
  Rng rng(1);
  nn::TransformerEncoderLayer layer(8, 2, 16, rng);
  Rng data_rng(2);
  Tensor x = Tensor::Randn({1, 4, 8}, data_rng);
  layer.SetTraining(false);
  Tensor before = layer.Forward(x);

  const std::string path = ::testing::TempDir() + "/layer.std";
  ASSERT_TRUE(nn::SaveStateDict(layer, path).ok());

  // Scramble the weights, then load back.
  for (Tensor p : layer.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) p.data()[i] += 1.0f;
  }
  Tensor scrambled = layer.Forward(x);
  bool changed = false;
  for (int64_t i = 0; i < before.numel(); ++i) {
    changed |= std::fabs(scrambled.data()[i] - before.data()[i]) > 1e-4f;
  }
  ASSERT_TRUE(changed);

  ASSERT_TRUE(nn::LoadStateDict(layer, path).ok());
  testing::ExpectTensorNear(layer.Forward(x), before, 0.0);
}

TEST(SerializeTest, LoadRejectsArchitectureMismatch) {
  Rng rng(3);
  nn::Linear small(4, 2, rng);
  nn::Linear big(8, 2, rng);
  const std::string path = ::testing::TempDir() + "/small.std";
  ASSERT_TRUE(nn::SaveStateDict(small, path).ok());
  Status status = nn::LoadStateDict(big, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

TEST(SerializeTest, LoadRejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/corrupt.std";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("GARBAGE!", 1, 8, f);
  std::fclose(f);
  Rng rng(4);
  nn::Linear lin(2, 2, rng);
  Status status = nn::LoadStateDict(lin, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);

  EXPECT_EQ(nn::LoadStateDict(lin, "/no/such/file.std").code(),
            Status::Code::kNotFound);
}

TEST(SerializeTest, FocusModelCheckpointRoundTrip) {
  Rng rng(5);
  core::FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 6;
  Tensor protos = Tensor::Randn({4, 8}, rng);
  core::FocusModel a(cfg, protos);
  core::FocusModel b(cfg, protos);  // same arch, same init seed

  // Diverge b, then restore from a's checkpoint.
  for (Tensor p : b.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) p.data()[i] *= 0.5f;
  }
  const std::string path = ::testing::TempDir() + "/focus.std";
  ASSERT_TRUE(nn::SaveStateDict(a, path).ok());
  ASSERT_TRUE(nn::LoadStateDict(b, path).ok());

  Rng data_rng(7);
  Tensor x = Tensor::Randn({1, 2, 32}, data_rng);
  a.SetTraining(false);
  b.SetTraining(false);
  NoGradGuard no_grad;
  testing::ExpectTensorNear(a.Forward(x), b.Forward(x), 0.0);
}

TEST(SerializeTest, SnapshotRestoreRoundTrip) {
  Rng rng(8);
  nn::Linear lin(4, 4, rng);
  auto snapshot = nn::SnapshotParameters(lin);
  Tensor w = lin.Parameters()[0];
  const float original = w.data()[0];
  w.data()[0] = 999.0f;
  nn::RestoreParameters(lin, snapshot);
  EXPECT_EQ(w.data()[0], original);
}

}  // namespace
}  // namespace focus
