#include "nn/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/fault.h"
#include "models/congestion_model.h"
#include "nn/layers.h"
#include "nn/snapshot.h"
#include "synthetic_samples.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace mfa::nn {
namespace {

std::string temp_path(const char* tag) {
  return std::string("/tmp/mfa_ckpt_") + tag + ".bin";
}

std::string read_file(const std::string& path) {
  std::string bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

/// A 1x1 conv followed by batch norm, run forward once in training mode so
/// its running statistics differ from a fresh layer's: its checkpoint holds
/// parameter entries and buffer entries.
std::shared_ptr<Sequential> conv_bn(Rng& rng) {
  auto m = std::make_shared<Sequential>();
  m->add(std::make_shared<Conv2d>(1, 2, 1, rng));
  m->add(std::make_shared<BatchNorm2d>(2));
  NoGradGuard no_tape;
  m->forward(Tensor::uniform({2, 1, 3, 3}, rng, 0.0f, 1.0f));
  return m;
}

TEST(Checkpoint, RoundTripsLinear) {
  Rng rng(1);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);  // different init (rng advanced)
  const auto path = temp_path("linear");
  save_checkpoint(a, path);
  load_checkpoint(b, path);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].to_vector(), pb[i].to_vector());
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripsFullModelAndPredictions) {
  // The source model is trained first: an untrained model's batch-norm
  // running statistics equal a fresh model's, which would hide a checkpoint
  // that drops them.
  const auto samples = test_util::synthetic_samples(4, 32, 7);
  train::TrainOptions options;
  options.epochs = 2;
  options.batch_size = 2;
  Rng rng(5);
  const Tensor x = Tensor::uniform({2, 6, 32, 32}, rng, 0.0f, 1.0f);
  for (const char* name : {"ours", "unet"}) {
    SCOPED_TRACE(name);
    models::ModelConfig config;
    config.grid = 32;
    config.base_channels = 4;
    config.transformer_layers = 1;
    config.seed = 3;
    auto a = models::make_model(name, config);
    train::Trainer::fit(*a, samples, options);
    config.seed = 99;  // fresh weights
    auto b = models::make_model(name, config);

    const auto path = temp_path("model");
    save_checkpoint(a->network(), path);
    load_checkpoint(b->network(), path);
    // The whole state arrived, batch-norm statistics included ...
    const auto sa = a->network().state();
    const auto sb = b->network().state();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].first, sb[i].first);
      EXPECT_EQ(sa[i].second.to_vector(), sb[i].second.to_vector())
          << sa[i].first;
    }
    // ... so the predictions are identical after the load.
    EXPECT_EQ(a->predict_levels(x).to_vector(),
              b->predict_levels(x).to_vector());
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  Rng rng(1);
  Linear a(4, 3, rng);
  Linear wrong(4, 5, rng);
  const auto path = temp_path("mismatch");
  save_checkpoint(a, path);
  try {
    load_checkpoint(wrong, path);
    FAIL() << "a checkpoint of the wrong shape loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kShapeMismatch);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectedLoadLeavesModuleUntouched) {
  // The file matches layer 0 but not layer 1 ([3, 2] against [3, 5]): the
  // load must fail before it writes anything, layer 0 included.
  Rng rng(1);
  Sequential saved;
  saved.add(std::make_shared<Linear>(4, 3, rng));
  saved.add(std::make_shared<Linear>(3, 2, rng));
  Sequential target;
  target.add(std::make_shared<Linear>(4, 3, rng));
  target.add(std::make_shared<Linear>(3, 5, rng));
  const auto path = temp_path("half_load");
  save_checkpoint(saved, path);
  const auto before = target.parameters()[0].to_vector();
  ASSERT_NE(before, saved.parameters()[0].to_vector());
  try {
    load_checkpoint(target, path);
    FAIL() << "a checkpoint of the wrong shape loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kShapeMismatch);
  }
  EXPECT_EQ(target.parameters()[0].to_vector(), before);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingFileAndBadMagic) {
  Rng rng(1);
  Linear a(4, 3, rng);
  EXPECT_THROW(load_checkpoint(a, "/tmp/mfa_ckpt_nonexistent.bin"),
               std::runtime_error);
  const auto path = temp_path("garbage");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint(a, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWrongParameterCount) {
  Rng rng(1);
  Linear a(4, 3, rng);
  Linear no_bias(4, 3, rng, /*bias=*/false);
  const auto path = temp_path("count");
  save_checkpoint(a, path);
  try {
    load_checkpoint(no_bias, path);
    FAIL() << "a checkpoint with an extra entry loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kCountMismatch);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncationAtEveryLength) {
  Rng rng(1);
  const auto a = conv_bn(rng);
  const auto path = temp_path("full");
  save_checkpoint(*a, path);
  // Read the full file back, then try every strictly shorter prefix: each
  // one must be rejected (magic, header, name, shape, or tensor data cut),
  // the buffer entries at the end of the file included.
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 16u);
  const auto trunc_path = temp_path("trunc");
  // The file is small, so every prefix length is tested.
  for (size_t len = 0; len < bytes.size(); ++len) {
    FILE* f = std::fopen(trunc_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, len, f);
    std::fclose(f);
    const auto fresh = conv_bn(rng);
    EXPECT_THROW(load_checkpoint(*fresh, trunc_path), std::runtime_error)
        << "prefix length " << len << " of " << bytes.size();
  }
  // The untruncated file still loads.
  {
    FILE* f = std::fopen(trunc_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  const auto fresh = conv_bn(rng);
  EXPECT_NO_THROW(load_checkpoint(*fresh, trunc_path));
  std::remove(trunc_path.c_str());
}

TEST(Checkpoint, MetaRoundTrips) {
  Rng rng(1);
  Linear a(4, 3, rng);
  const auto path = temp_path("meta");
  CheckpointMeta meta;
  meta.epoch = 17;
  meta.learning_rate = 2.5e-4f;
  save_checkpoint(a, path, meta);
  Linear b(4, 3, rng);
  CheckpointMeta loaded;
  load_checkpoint(b, path, &loaded);
  EXPECT_EQ(loaded.epoch, 17);
  EXPECT_FLOAT_EQ(loaded.learning_rate, 2.5e-4f);
  // A checkpoint saved without metadata reports the defaults.
  save_checkpoint(a, path);
  CheckpointMeta none;
  load_checkpoint(b, path, &none);
  EXPECT_EQ(none.epoch, -1);
  std::remove(path.c_str());
}

TEST(Checkpoint, AtomicSaveLeavesNoTempFile) {
  Rng rng(1);
  Linear a(4, 3, rng);
  const auto path = temp_path("atomic");
  save_checkpoint(a, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Checkpoint, CrcRejectsEverySingleBitFlip) {
  Rng rng(1);
  const auto a = conv_bn(rng);
  const auto path = temp_path("bitflip");
  save_checkpoint(*a, path);
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  // Flip one bit per byte position and require a load failure each time —
  // this is exactly the torn-write / bit-rot scenario the footer exists for.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);
    const auto fresh = conv_bn(rng);
    EXPECT_THROW(load_checkpoint(*fresh, path), std::runtime_error)
        << "bit flip at byte " << i << " went undetected";
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TornWriteFaultIsCaughtAtLoad) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  common::FaultInjector::instance().reset();
  Rng rng(1);
  Linear a(4, 3, rng);
  const auto path = temp_path("torn");
  common::FaultInjector::instance().arm_once("checkpoint.torn_write");
  save_checkpoint(a, path);
  common::FaultInjector::instance().reset();
  Linear fresh(4, 3, rng);
  EXPECT_THROW(load_checkpoint(fresh, path), std::runtime_error);
  // The next (un-faulted) save repairs the file in place.
  save_checkpoint(a, path);
  EXPECT_NO_THROW(load_checkpoint(fresh, path));
  std::remove(path.c_str());
}

TEST(Checkpoint, CrashBeforeRenamePreservesPreviousFile) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  common::FaultInjector::instance().reset();
  Rng rng(1);
  Linear a(4, 3, rng);
  const auto path = temp_path("crash");
  save_checkpoint(a, path);  // good version on disk
  const auto good = a.parameters()[0].to_vector();
  // Mutate the weights, then crash during the next save: the destination
  // must still hold the previous complete snapshot.
  a.parameters()[0].fill_(123.0f);
  common::FaultInjector::instance().arm_once("checkpoint.crash_before_rename");
  EXPECT_THROW(save_checkpoint(a, path), std::runtime_error);
  common::FaultInjector::instance().reset();
  Linear b(4, 3, rng);
  EXPECT_NO_THROW(load_checkpoint(b, path));
  EXPECT_EQ(b.parameters()[0].to_vector(), good);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  Rng rng(1);
  const auto a = conv_bn(rng);
  const auto path = temp_path("trailing");
  save_checkpoint(*a, path);
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("extra", f);
    std::fclose(f);
  }
  const auto fresh = conv_bn(rng);
  EXPECT_THROW(load_checkpoint(*fresh, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mfa::nn
