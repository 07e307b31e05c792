// Weight-snapshot manifest validation, zero-copy install, and the
// checkpoint-to-snapshot load path (including the typed rejection of
// wrong-architecture and duplicate-entry checkpoint files).
#include "nn/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "models/congestion_model.h"
#include "nn/checkpoint.h"
#include "synthetic_samples.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace mfa::nn {
namespace {

models::ModelConfig small_config(std::uint64_t seed = 11) {
  models::ModelConfig config;
  config.grid = 16;
  config.base_channels = 2;
  config.transformer_layers = 1;
  config.transformer_heads = 2;
  config.seed = seed;
  return config;
}

std::string temp_path(const char* tag) {
  return std::string("/tmp/mfa_snap_") + tag + ".bin";
}

Tensor small_features(std::uint64_t seed = 3) {
  Rng rng(seed);
  return Tensor::uniform({1, 6, 16, 16}, rng, 0.0f, 1.0f);
}

/// Trains `model` for one epoch on synthetic 16x16 samples, so its batch-norm
/// running statistics move away from a fresh model's.
void train_one_epoch(models::CongestionModel& model) {
  train::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 2;
  train::Trainer::fit(model, test_util::synthetic_samples(4, 16, 9), options);
}

TEST(Snapshot, RoundTripsParametersBetweenModels) {
  auto a = models::make_model("ours", small_config(11));
  train_one_epoch(*a);
  auto b = models::make_model("ours", small_config(22));  // different init
  const Tensor features = small_features();
  const auto before = b->predict_levels(features).to_vector();

  WeightSnapshot snap = snapshot_parameters(a->network());
  validate_snapshot(snap, b->network());
  install_snapshot(snap, b->network());

  const auto from_a = a->predict_levels(features).to_vector();
  const auto from_b = b->predict_levels(features).to_vector();
  EXPECT_EQ(from_a, from_b);
  EXPECT_NE(before, from_b);  // the swap actually changed the weights
}

TEST(Snapshot, InstallSharesStorageWithoutCopying) {
  auto model = models::make_model("ours", small_config());
  WeightSnapshot snap = snapshot_parameters(model->network());
  install_snapshot(snap, model->network());
  // After install the module's state reads the snapshot's blocks: same
  // underlying pointer, not a float copy.
  const auto state = model->network().state();
  ASSERT_EQ(state.size(), snap.entries.size());
  for (size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state[i].first, snap.entries[i].name);
    EXPECT_EQ(state[i].second.impl()->data.data(),
              snap.entries[i].data.data())
        << "'" << state[i].first << "' was copied, not shared";
  }
}

TEST(Snapshot, SnapshotIsIsolatedFromLaterTraining) {
  auto model = models::make_model("ours", small_config());
  WeightSnapshot snap = snapshot_parameters(model->network());
  const auto pinned = snap.entries.front().data.data()[0];
  // Mutating the live model must not write through the snapshot (it deep
  // copied at capture time).
  auto params = model->network().parameters();
  params.front().data()[0] += 1.0f;
  EXPECT_EQ(snap.entries.front().data.data()[0], pinned);
}

TEST(Snapshot, ValidateRejectsEveryManifestMismatch) {
  auto model = models::make_model("ours", small_config());
  const WeightSnapshot good = snapshot_parameters(model->network());

  {
    WeightSnapshot s = good;
    s.entries.pop_back();
    try {
      validate_snapshot(s, model->network());
      FAIL() << "count mismatch accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kCountMismatch);
    }
  }
  {
    WeightSnapshot s = good;
    s.entries[1] = s.entries[0];  // duplicate + unknown replaced slot
    try {
      validate_snapshot(s, model->network());
      FAIL() << "duplicate entry accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kDuplicateName);
    }
  }
  {
    WeightSnapshot s = good;
    s.entries[0].name += ".renamed";
    try {
      validate_snapshot(s, model->network());
      FAIL() << "unknown parameter accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kUnknownParameter);
    }
  }
  {
    WeightSnapshot s = good;
    s.entries[0].shape.push_back(1);  // same numel, extra axis
    try {
      validate_snapshot(s, model->network());
      FAIL() << "rank mismatch accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kRankMismatch);
    }
  }
  {
    WeightSnapshot s = good;
    // Find an entry with rank >= 2 and swap two unequal dims if possible;
    // otherwise just perturb a dim. Either way numel-compatible storage
    // stays, so only the shape check can catch it.
    for (auto& e : s.entries) {
      if (e.shape.size() < 1) continue;
      e.shape[0] += 1;
      e.data.assign(shape_numel(e.shape), 0.0f);
      break;
    }
    try {
      validate_snapshot(s, model->network());
      FAIL() << "shape mismatch accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kShapeMismatch);
    }
  }
  {
    WeightSnapshot s = good;
    s.entries[0].data.assign(
        static_cast<std::int64_t>(s.entries[0].data.size()) + 1, 0.0f);
    try {
      validate_snapshot(s, model->network());
      FAIL() << "size mismatch accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kSizeMismatch);
    }
  }
  // And the untouched manifest still validates.
  EXPECT_NO_THROW(validate_snapshot(good, model->network()));
}

TEST(Snapshot, LoadSnapshotRoundTripsThroughACheckpointFile) {
  const std::string path = temp_path("snap_roundtrip.ckpt");
  auto a = models::make_model("ours", small_config(11));
  CheckpointMeta meta;
  meta.epoch = 17;
  meta.learning_rate = 0.125f;
  save_checkpoint(a->network(), path, meta);

  WeightSnapshot snap = load_snapshot(path);
  EXPECT_EQ(snap.meta.epoch, 17);
  EXPECT_EQ(snap.meta.learning_rate, 0.125f);

  auto b = models::make_model("ours", small_config(22));
  validate_snapshot(snap, b->network());
  install_snapshot(snap, b->network());
  const Tensor features = small_features();
  EXPECT_EQ(a->predict_levels(features).to_vector(),
            b->predict_levels(features).to_vector());
  std::remove(path.c_str());
}

TEST(Snapshot, WrongArchitectureCheckpointIsRejectedBeforeInstall) {
  // The serving bugfix this suite pins: a checkpoint from a *different*
  // model must be rejected by the manifest (typed error), never partially
  // or silently loaded.
  const std::string path = temp_path("snap_wrong_arch.ckpt");
  auto unet = models::make_model("unet", small_config());
  save_checkpoint(unet->network(), path);

  auto ours = models::make_model("ours", small_config());
  WeightSnapshot snap = load_snapshot(path);  // parsing alone is fine
  EXPECT_THROW(validate_snapshot(snap, ours->network()), SnapshotError);
  std::remove(path.c_str());
}

// Builds a syntactically valid MFACKPT2 image with one entry per given name
// (each shape [2], floats {1,2}) and a correct CRC footer.
std::string write_checkpoint_with_names(const char* tag,
                                        const std::vector<std::string>& names) {
  std::string image = "MFACKPT2";
  const auto put = [&image](const void* p, size_t n) {
    image.append(reinterpret_cast<const char*>(p), n);
  };
  const std::uint32_t has_meta = 0;
  put(&has_meta, 4);
  const std::uint64_t count = names.size();
  put(&count, 8);
  for (const auto& name : names) {
    const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
    put(&name_len, 4);
    image += name;
    const std::uint32_t rank = 1;
    put(&rank, 4);
    const std::int64_t dim = 2;
    put(&dim, 8);
    const float data[2] = {1.0f, 2.0f};
    put(data, 8);
  }
  const std::uint32_t crc = crc32(image.data(), image.size());
  put(&crc, 4);
  const std::string path = temp_path(tag);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  out.close();
  return path;
}

struct TwoParam : Module {
  Tensor w = register_parameter(
      "w", Tensor::from_data({2}, {0.0f, 0.0f}, /*requires_grad=*/true));
  Tensor b = register_parameter(
      "b", Tensor::from_data({2}, {0.0f, 0.0f}, /*requires_grad=*/true));
  Tensor forward(const Tensor& x) override { return x; }
};

TEST(Snapshot, DuplicateEntriesInACheckpointFileAreRejectedTyped) {
  const std::string path = write_checkpoint_with_names("dup_snap", {"w", "w"});
  try {
    load_snapshot(path);
    FAIL() << "duplicate-entry checkpoint parsed into a snapshot";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kDuplicateName);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadCheckpointRejectsDuplicateEntries) {
  // The silent-load bug this pins: a file holding {w, w} passes the count
  // check against a {w, b} module, loads w twice (second write wins) and
  // leaves b silently at its initialised value. The duplicate guard must
  // reject it with a typed error instead.
  const std::string path = write_checkpoint_with_names("dup_load", {"w", "w"});
  TwoParam module;
  try {
    load_checkpoint(module, path);
    FAIL() << "duplicate-entry checkpoint loaded silently";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kDuplicateName);
  }
  // Neither w nor b was touched by the rejected load.
  EXPECT_EQ(module.w.to_vector(), (std::vector<float>{0.0f, 0.0f}));
  EXPECT_EQ(module.b.to_vector(), (std::vector<float>{0.0f, 0.0f}));

  // The equivalent well-formed file still loads.
  const std::string good =
      write_checkpoint_with_names("dup_good", {"w", "b"});
  EXPECT_NO_THROW(load_checkpoint(module, good));
  EXPECT_EQ(module.w.to_vector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(module.b.to_vector(), (std::vector<float>{1.0f, 2.0f}));
  std::remove(path.c_str());
  std::remove(good.c_str());
}

TEST(Snapshot, LoadSnapshotVerifiesCrcAndTruncation) {
  const std::string path = temp_path("snap_corrupt.ckpt");
  auto model = models::make_model("ours", small_config());
  save_checkpoint(model->network(), path);

  // Flip one byte in the middle: the CRC footer must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char b = 0;
    f.seekg(64);
    f.read(&b, 1);
    b ^= 0x20;
    f.seekp(64);
    f.write(&b, 1);
  }
  EXPECT_THROW(load_snapshot(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mfa::nn
