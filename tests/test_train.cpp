#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include "common/check.h"
#include "common/fault.h"
#include "nn/layers.h"
#include "synthetic_samples.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace mfa::train {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const char* tag)
      : path((fs::temp_directory_path() / (std::string("mfa_train_") + tag))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

/// Synthetic per-pixel dataset at the 32x32 grid of tiny_config().
std::vector<Sample> synthetic_samples(int n, std::uint64_t seed) {
  return test_util::synthetic_samples(n, 32, seed);
}

models::ModelConfig tiny_config() {
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 11;
  return config;
}

TEST(Metrics, PerfectPrediction) {
  Tensor label = Tensor::from_data({2, 2}, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(metrics::accuracy(label, label), 1.0);
  EXPECT_DOUBLE_EQ(metrics::r_squared(label, label), 1.0);
  EXPECT_DOUBLE_EQ(metrics::nrms(label, label), 0.0);
}

TEST(Metrics, AccuracyCountsMatches) {
  Tensor label = Tensor::from_data({4}, {0, 1, 2, 3});
  Tensor pred = Tensor::from_data({4}, {0, 1, 0, 0});
  EXPECT_DOUBLE_EQ(metrics::accuracy(pred, label), 0.5);
}

TEST(Metrics, RSquaredMeanPredictorIsZero) {
  Tensor label = Tensor::from_data({4}, {0, 2, 4, 6});
  Tensor pred = Tensor::from_data({4}, {3, 3, 3, 3});  // label mean
  EXPECT_NEAR(metrics::r_squared(pred, label), 0.0, 1e-9);
}

TEST(Metrics, RSquaredCanBeNegative) {
  Tensor label = Tensor::from_data({4}, {0, 2, 4, 6});
  Tensor pred = Tensor::from_data({4}, {6, 4, 2, 0});  // anti-correlated
  EXPECT_LT(metrics::r_squared(pred, label), 0.0);
}

TEST(Metrics, NrmsNormalisedByRange) {
  Tensor label = Tensor::from_data({2}, {0, 4});
  Tensor pred = Tensor::from_data({2}, {1, 3});  // RMSE = 1, range = 4
  EXPECT_NEAR(metrics::nrms(pred, label), 0.25, 1e-6);
}

TEST(Metrics, RejectsMismatchedSizes) {
  Tensor a = Tensor::zeros({3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(metrics::accuracy(a, b), std::invalid_argument);
  EXPECT_THROW(metrics::r_squared(a, b), std::invalid_argument);
  EXPECT_THROW(metrics::nrms(a, b), std::invalid_argument);
}

TEST(Rotation, FourRotationsAreIdentity) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 8, 8}, rng);
  Tensor r = rotate90(rotate90(rotate90(rotate90(t, 1), 1), 1), 1);
  EXPECT_EQ(r.to_vector(), t.to_vector());
}

TEST(Rotation, Rotate90MovesCorner) {
  Tensor t = Tensor::zeros({1, 4, 4});
  t.set({0, 0, 3}, 1.0f);  // top-right
  Tensor r = rotate90(t, 1);
  // 90 CCW: top-right -> top-left.
  EXPECT_EQ(r.at({0, 0, 0}), 1.0f);
}

TEST(Rotation, Rotate180IsDoubleApplication) {
  Rng rng(2);
  Tensor t = Tensor::randn({2, 6, 6}, rng);
  EXPECT_EQ(rotate90(t, 2).to_vector(),
            rotate90(rotate90(t, 1), 1).to_vector());
}

TEST(Rotation, HandlesLabelMapsWithoutChannels) {
  Tensor t = Tensor::zeros({4, 4});
  t.set({1, 2}, 5.0f);
  Tensor r = rotate90(t, 2);
  EXPECT_EQ(r.at({2, 1}), 5.0f);
}

TEST(Dataset, BuildsExpectedSampleCount) {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util = 0.2;
  spec.ff_util = 0.1;
  DatasetOptions options;
  options.placements_per_design = 2;
  options.grid = 32;
  options.placer_iterations = 30;
  const auto samples =
      DatasetBuilder::build_for_design(spec, device, options);
  EXPECT_EQ(samples.size(), 8u);  // 2 placements x 4 rotations
  for (const auto& s : samples) {
    EXPECT_EQ(s.features.shape(), (Shape{6, 32, 32}));
    EXPECT_EQ(s.label.shape(), (Shape{32, 32}));
    for (std::int64_t i = 0; i < s.label.numel(); ++i) {
      EXPECT_GE(s.label.data()[i], 0.0f);
      EXPECT_LE(s.label.data()[i], 7.0f);
    }
  }
}

TEST(Dataset, RotatedCopiesShareLevelHistogram) {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_120");
  spec.lut_util = 0.2;
  spec.ff_util = 0.1;
  DatasetOptions options;
  options.placements_per_design = 1;
  options.grid = 32;
  options.placer_iterations = 30;
  const auto samples =
      DatasetBuilder::build_for_design(spec, device, options);
  ASSERT_EQ(samples.size(), 4u);
  auto histogram = [](const Tensor& t) {
    std::array<std::int64_t, 8> h{};
    for (std::int64_t i = 0; i < t.numel(); ++i)
      ++h[static_cast<size_t>(t.data()[i])];
    return h;
  };
  const auto h0 = histogram(samples[0].label);
  for (size_t k = 1; k < 4; ++k)
    EXPECT_EQ(histogram(samples[k].label), h0);
}

TEST(Dataset, DeterministicPerSeed) {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_136");
  spec.lut_util = 0.15;
  spec.ff_util = 0.08;
  DatasetOptions options;
  options.placements_per_design = 1;
  options.grid = 32;
  options.placer_iterations = 20;
  const auto a = DatasetBuilder::build_for_design(spec, device, options);
  const auto b = DatasetBuilder::build_for_design(spec, device, options);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].features.to_vector(), b[0].features.to_vector());
  EXPECT_EQ(a[0].label.to_vector(), b[0].label.to_vector());
}

TEST(Dataset, SplitKeepsRotationGroupsTogether) {
  std::vector<Sample> all(16);  // 4 placements x 4 rotations
  for (size_t i = 0; i < all.size(); ++i) {
    all[i].features = Tensor::full({1, 1, 1}, static_cast<float>(i / 4));
    all[i].label = Tensor::full({1, 1}, static_cast<float>(i / 4));
  }
  std::vector<Sample> train, eval;
  DatasetBuilder::split(all, 2, train, eval);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(eval.size(), 8u);
  // Every eval sample comes from placements 1 and 3 (odd groups).
  for (const auto& s : eval) {
    const float id = s.label.item();
    EXPECT_TRUE(id == 1.0f || id == 3.0f);
  }
}

TEST(Trainer, StackBatchLaysOutSamples) {
  std::vector<Sample> samples(2);
  samples[0].features = Tensor::full({1, 2, 2}, 1.0f);
  samples[0].label = Tensor::full({2, 2}, 3.0f);
  samples[1].features = Tensor::full({1, 2, 2}, 2.0f);
  samples[1].label = Tensor::full({2, 2}, 5.0f);
  Tensor features, labels;
  stack_batch(samples, {0, 1}, 0, 2, features, labels);
  EXPECT_EQ(features.shape(), (Shape{2, 1, 2, 2}));
  EXPECT_EQ(labels.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(features.at({0, 0, 0, 0}), 1.0f);
  EXPECT_EQ(features.at({1, 0, 0, 0}), 2.0f);
  EXPECT_EQ(labels.at({1, 1, 1}), 5.0f);
}

TEST(Trainer, FitReducesLossOnTinyProblem) {
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  // U-Net keeps a full-resolution path, so it can learn this per-pixel rule.
  auto model = models::make_model("unet", config);

  // Synthetic dataset: labels follow the RUDY channel thresholded.
  Rng rng(3);
  std::vector<Sample> samples;
  for (int i = 0; i < 6; ++i) {
    Sample s;
    s.features = Tensor::uniform({6, 32, 32}, rng, 0.0f, 1.0f);
    s.label = Tensor::zeros({32, 32});
    const float* rudy = s.features.data() + 3 * 32 * 32;
    for (std::int64_t j = 0; j < 32 * 32; ++j)
      s.label.data()[j] = rudy[j] > 0.5f ? 2.0f : 0.0f;
    samples.push_back(std::move(s));
  }
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  const double loss1 = Trainer::fit(*model, samples, options);
  options.epochs = 40;
  const double loss2 = Trainer::fit(*model, samples, options);
  EXPECT_LT(loss2, loss1);

  const auto result = Trainer::evaluate(*model, samples);
  EXPECT_GT(result.acc, 0.6);
}

TEST(Trainer, CheckpointsAndResumesWithinTolerance) {
  const auto samples = synthetic_samples(6, 3);
  TrainOptions options;
  options.epochs = 8;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.seed = 5;

  // Uninterrupted reference run.
  auto full_model = models::make_model("unet", tiny_config());
  TempDir full_dir("full");
  options.checkpoint_dir = full_dir.path;
  const auto full = Trainer::fit_resumable(*full_model, samples, options);
  EXPECT_EQ(full.epochs_run, 8);
  EXPECT_EQ(full.start_epoch, 0);
  EXPECT_GT(full.checkpoints_written, 0);
  EXPECT_TRUE(fs::exists(checkpoint_path(full_dir.path, 7)));

  // Same seed, interrupted after 4 epochs, then resumed to completion.
  auto resumed_model = models::make_model("unet", tiny_config());
  TempDir resume_dir("resume");
  options.checkpoint_dir = resume_dir.path;
  options.epochs = 4;
  const auto first = Trainer::fit_resumable(*resumed_model, samples, options);
  EXPECT_EQ(first.epochs_run, 4);
  options.epochs = 8;
  const auto second = Trainer::fit_resumable(*resumed_model, samples, options);
  EXPECT_EQ(second.start_epoch, 4) << "should resume after the last snapshot";
  EXPECT_EQ(second.epochs_run, 4);

  // Interruption must not change the outcome materially (acceptance: within
  // 5% of the uninterrupted run's final loss at the same seed).
  EXPECT_NEAR(second.final_loss, full.final_loss,
              0.05 * std::max(std::abs(full.final_loss), 1e-6));
}

TEST(Trainer, ResumeFromSkipsCorruptLatestCheckpoint) {
  Rng rng(1);
  nn::Linear module(4, 3, rng);
  TempDir dir("corrupt");
  nn::CheckpointMeta meta;
  meta.epoch = 1;
  nn::save_checkpoint(module, checkpoint_path(dir.path, 1), meta);
  const auto good = module.parameters()[0].to_vector();
  // A newer snapshot that was cut off mid-write (no CRC): must be rejected
  // and the previous epoch used instead.
  module.parameters()[0].fill_(9.0f);
  meta.epoch = 2;
  const auto latest = checkpoint_path(dir.path, 2);
  nn::save_checkpoint(module, latest, meta);
  fs::resize_file(latest, fs::file_size(latest) / 2);
  // A stray temp file from an interrupted atomic save must be ignored too.
  { FILE* f = std::fopen((latest + ".tmp").c_str(), "wb"); std::fclose(f); }

  nn::Linear fresh(4, 3, rng);
  nn::CheckpointMeta loaded;
  const auto path = resume_from(fresh, dir.path, &loaded);
  EXPECT_EQ(path, checkpoint_path(dir.path, 1));
  EXPECT_EQ(loaded.epoch, 1);
  EXPECT_EQ(fresh.parameters()[0].to_vector(), good);
}

TEST(Trainer, ResumeFromEmptyOrMissingDirReturnsNothing) {
  Rng rng(1);
  nn::Linear module(4, 3, rng);
  EXPECT_EQ(resume_from(module, ""), "");
  EXPECT_EQ(resume_from(module, "/tmp/mfa_train_no_such_dir_xyz"), "");
  TempDir dir("empty");
  EXPECT_EQ(resume_from(module, dir.path), "");
}

TEST(Trainer, RollbackExhaustionKeepsLastGoodParameters) {
  const auto samples = synthetic_samples(4, 7);
  auto model = models::make_model("unet", tiny_config());
  TrainOptions options;
  options.epochs = 6;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  // Absurdly tight spike threshold: every epoch after the first counts as
  // diverged, so the rollback machinery runs out deterministically.
  options.divergence_factor = 1e-6;
  options.max_rollbacks = 3;
  const auto report = Trainer::fit_resumable(*model, samples, options);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.rollbacks, 3);
  EXPECT_EQ(report.epochs_run, 1);  // only the first epoch completed
  // Each rollback halves the learning rate.
  EXPECT_FLOAT_EQ(report.final_learning_rate, 5e-3f / 8.0f);
  EXPECT_TRUE(std::isfinite(report.final_loss));
  // The last good snapshot was restored, so predictions stay finite.
  Rng rng(2);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  const auto pred = model->predict_levels(x).to_vector();
  for (const float v : pred) EXPECT_TRUE(std::isfinite(v));
}

TEST(Trainer, CrashMidEpochThenResumeCompletes) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  const auto samples = synthetic_samples(6, 3);  // 3 batches per epoch
  auto model = models::make_model("unet", tiny_config());
  TempDir dir("crash");
  TrainOptions options;
  options.epochs = 4;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.checkpoint_dir = dir.path;
  // Crash in the middle of epoch 2 (8th batch overall): epochs 0-1 have
  // checkpoints on disk, epoch 2's work is lost.
  fi.arm_nth("trainer.crash", 8);
  EXPECT_THROW(Trainer::fit_resumable(*model, samples, options),
               std::runtime_error);
  fi.reset();
  // The "restarted process": a fresh model resumes from the epoch-1 snapshot
  // and finishes the remaining epochs.
  auto restarted = models::make_model("unet", tiny_config());
  const auto report = Trainer::fit_resumable(*restarted, samples, options);
  EXPECT_EQ(report.start_epoch, 2);
  EXPECT_EQ(report.epochs_run, 2);
  EXPECT_FALSE(report.diverged);
  EXPECT_TRUE(std::isfinite(report.final_loss));
}

TEST(Trainer, InjectedNanGradientRollsBackAndRecovers) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  const bool prev = check::finite_grad_checks_enabled();
  check::set_finite_grad_checks(true);
  const auto samples = synthetic_samples(4, 9);
  auto model = models::make_model("unet", tiny_config());
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.max_rollbacks = 2;
  // One poisoned gradient in the first epoch: the finite-grad guard turns it
  // into a CheckError, the trainer rolls back and retries cleanly.
  fi.arm_once("tensor.nan_grad");
  const auto report = Trainer::fit_resumable(*model, samples, options);
  fi.reset();
  check::set_finite_grad_checks(prev);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.epochs_run, 3);
  EXPECT_TRUE(std::isfinite(report.final_loss));
}

TEST(Trainer, TimeBudgetStopsTrainingAndReportsIt) {
  auto model = models::make_model("unet", tiny_config());
  const auto samples = synthetic_samples(2, 21);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 2;
  // A budget far below one epoch: fit must stop at the first boundary check,
  // keep whatever parameters it has, and report the cut instead of throwing.
  options.time_budget_seconds = 1e-9;
  const auto report = Trainer::fit_resumable(*model, samples, options);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_LT(report.epochs_run, options.epochs);
  EXPECT_FALSE(report.diverged);

  // No budget: the same setup trains to completion with the flag clear.
  options.time_budget_seconds = 0.0;
  const auto full = Trainer::fit_resumable(*model, samples, options);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_EQ(full.epochs_run, options.epochs);
}

TEST(Trainer, BudgetFaultPointStopsFitImmediately) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  fi.arm_always("trainer.budget");
  auto model = models::make_model("unet", tiny_config());
  const auto samples = synthetic_samples(2, 22);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 2;
  const auto report = Trainer::fit_resumable(*model, samples, options);
  fi.reset();
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_EQ(report.epochs_run, 0);
}

TEST(Trainer, CheckpointWrittenEveryHealthyEpochAndUsedOnResume) {
  const auto samples = synthetic_samples(4, 3);
  auto model = models::make_model("unet", tiny_config());
  TempDir dir("per_epoch");
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.checkpoint_dir = dir.path;
  const auto first = Trainer::fit_resumable(*model, samples, options);
  EXPECT_EQ(first.checkpoints_written, 3);
  for (std::int64_t epoch = 0; epoch < 3; ++epoch)
    EXPECT_TRUE(fs::exists(checkpoint_path(dir.path, epoch))) << epoch;
  // One file per healthy epoch and nothing else.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path),
                          fs::directory_iterator{}),
            3);
  // A restarted run picks up after the newest checkpoint.
  auto restarted = models::make_model("unet", tiny_config());
  options.epochs = 5;
  const auto second = Trainer::fit_resumable(*restarted, samples, options);
  EXPECT_EQ(second.start_epoch, 3);
  EXPECT_EQ(second.epochs_run, 2);
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.path, 4)));
}

TEST(Trainer, CrashInLastEpochResumesAtThatEpoch) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  const auto samples = synthetic_samples(6, 3);  // 3 batches per epoch
  auto model = models::make_model("unet", tiny_config());
  TempDir dir("lastcrash");
  TrainOptions options;
  options.epochs = 4;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.checkpoint_dir = dir.path;
  fi.arm_nth("trainer.crash", 11);  // mid-epoch 4 (11th batch overall)
  EXPECT_THROW(Trainer::fit_resumable(*model, samples, options),
               std::runtime_error);
  fi.reset();
  for (std::int64_t epoch = 0; epoch < 3; ++epoch)
    EXPECT_TRUE(fs::exists(checkpoint_path(dir.path, epoch))) << epoch;
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.path, 3)));
  auto restarted = models::make_model("unet", tiny_config());
  const auto report = Trainer::fit_resumable(*restarted, samples, options);
  EXPECT_EQ(report.start_epoch, 3)
      << "epochs 0-2 survived the crash in their checkpoints";
  EXPECT_EQ(report.epochs_run, 1);
  EXPECT_TRUE(std::isfinite(report.final_loss));
}

TEST(Trainer, RollbackRestoresBatchNormStatistics) {
  // A rolled-back epoch must leave no trace. Its forward passes moved the
  // batch-norm running statistics as well as the parameters, so after the
  // rollback the model must predict exactly like one that never ran it.
  const auto samples = synthetic_samples(4, 7);
  Rng rng(2);
  const Tensor x = Tensor::uniform({2, 6, 32, 32}, rng, 0.0f, 1.0f);
  for (const char* name : {"ours", "unet"}) {
    SCOPED_TRACE(name);
    TrainOptions options;
    options.epochs = 1;
    options.batch_size = 2;
    auto reference = models::make_model(name, tiny_config());
    Trainer::fit_resumable(*reference, samples, options);

    // Same seed, two epochs: the absurd spike threshold rolls the second
    // epoch back, and with no retries left training stops there.
    options.epochs = 2;
    options.divergence_factor = 1e-6;
    options.max_rollbacks = 0;
    auto model = models::make_model(name, tiny_config());
    const auto report = Trainer::fit_resumable(*model, samples, options);
    ASSERT_TRUE(report.diverged);
    EXPECT_EQ(report.epochs_run, 1);

    const auto want = reference->network().parameters();
    const auto got = model->network().parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i].to_vector(), want[i].to_vector()) << "parameter " << i;
    EXPECT_EQ(model->predict_levels(x).to_vector(),
              reference->predict_levels(x).to_vector());
  }
}

TEST(Trainer, EvaluateEmptySetReturnsZeros) {
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  auto model = models::make_model("unet", config);
  const auto result = Trainer::evaluate(*model, {});
  EXPECT_EQ(result.acc, 0.0);
}

}  // namespace
}  // namespace mfa::train
