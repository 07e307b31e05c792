#include <gtest/gtest.h>

#include <cmath>

#include "models/blocks.h"
#include "models/congestion_model.h"
#include "models/mfa_net.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace mfa::models {
namespace {

using namespace mfa::ops;

ModelConfig small_config() {
  ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.transformer_heads = 2;
  config.seed = 11;
  return config;
}

TEST(Blocks, ResBlockDownHalvesAndMapsChannels) {
  Rng rng(1);
  ResBlockDown block(6, 12, rng);
  Tensor x = Tensor::zeros({2, 6, 16, 16});
  EXPECT_EQ(block.forward(x).shape(), (Shape{2, 12, 8, 8}));
}

TEST(Blocks, MfaBlockPreservesShape) {
  Rng rng(2);
  MfaBlock block(32, rng);
  Tensor x = Tensor::zeros({1, 32, 8, 8});
  EXPECT_EQ(block.forward(x).shape(), (Shape{1, 32, 8, 8}));
}

TEST(Blocks, MfaBlockAttentionGainsStartAtZero) {
  Rng rng(3);
  MfaBlock block(16, rng);
  EXPECT_EQ(block.alpha(), 0.0f);
  EXPECT_EQ(block.beta(), 0.0f);
}

TEST(Blocks, MfaBlockGainsReceiveGradient) {
  Rng rng(4);
  MfaBlock block(16, rng);
  Tensor x = Tensor::randn({1, 16, 4, 4}, rng, 1.0f);
  Tensor y = block.forward(x);
  sum(mul(y, y)).backward();
  // alpha/beta are the 2 scalar params; after one backward they have grads
  // flowing (possibly tiny but defined).
  bool saw_alpha = false;
  for (const auto& [name, p] : block.state()) {
    if (name == "alpha" || name == "beta") {
      saw_alpha = true;
      EXPECT_EQ(p.numel(), 1);
    }
  }
  EXPECT_TRUE(saw_alpha);
}

TEST(Blocks, PatchTransformerRoundTripsShape) {
  Rng rng(5);
  PatchTransformer vit(16, 4, 4, 8, 2, 2, rng);
  Tensor x = Tensor::randn({2, 16, 4, 4}, rng);
  EXPECT_EQ(vit.forward(x).shape(), (Shape{2, 16, 4, 4}));
}

class ModelZoo : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelZoo, ForwardShapeMatchesClassesAndGrid) {
  auto model = make_model(GetParam(), small_config());
  Tensor x = Tensor::zeros({2, 6, 32, 32});
  Tensor logits = model->forward(x);
  EXPECT_EQ(logits.shape(), (Shape{2, 8, 32, 32}));
}

TEST_P(ModelZoo, PredictLevelsInRange) {
  auto model = make_model(GetParam(), small_config());
  Rng rng(6);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  Tensor levels = model->predict_levels(x);
  EXPECT_EQ(levels.shape(), (Shape{1, 32, 32}));
  for (std::int64_t i = 0; i < levels.numel(); ++i) {
    EXPECT_GE(levels.data()[i], 0.0f);
    EXPECT_LE(levels.data()[i], 7.0f);
    EXPECT_EQ(levels.data()[i], std::floor(levels.data()[i]));
  }
}

TEST_P(ModelZoo, PredictRestoresTrainingMode) {
  auto model = make_model(GetParam(), small_config());
  model->network().train(true);
  Tensor x = Tensor::zeros({1, 6, 32, 32});
  model->predict_levels(x);
  EXPECT_TRUE(model->network().is_training());
}

TEST_P(ModelZoo, DeterministicConstructionPerSeed) {
  auto a = make_model(GetParam(), small_config());
  auto b = make_model(GetParam(), small_config());
  const auto pa = a->network().parameters();
  const auto pb = b->network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].to_vector(), pb[i].to_vector());
}

TEST_P(ModelZoo, GradientsReachFirstLayer) {
  auto model = make_model(GetParam(), small_config());
  Rng rng(7);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  Tensor targets = Tensor::zeros({1, 32, 32});
  Tensor loss = cross_entropy(model->forward(x), targets);
  loss.backward();
  const auto params = model->network().parameters();
  double total = 0.0;
  for (const auto& p : params)
    for (const float g : p.grad().to_vector()) total += std::fabs(g);
  EXPECT_GT(total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZoo,
                         ::testing::Values("ours", "unet", "pgnn", "pros2"));

TEST(ModelFactory, RejectsUnknownName) {
  EXPECT_THROW(make_model("resnet50", small_config()), std::invalid_argument);
}

TEST(ModelFactory, RejectsBadGrid) {
  ModelConfig config = small_config();
  config.grid = 30;  // not divisible by 16
  EXPECT_THROW(make_model("ours", config), std::invalid_argument);
}

TEST(MfaNet, StageShapesMatchFig5) {
  ModelConfig config;
  config.grid = 64;
  config.base_channels = 8;
  MfaTransformerNet net(config);
  const auto shapes = net.stage_shapes();
  // Encoder: [C,H/2,W/2] .. [8C,H/16,W/16].
  EXPECT_EQ(shapes.encoder[0], (std::array<std::int64_t, 3>{8, 32, 32}));
  EXPECT_EQ(shapes.encoder[1], (std::array<std::int64_t, 3>{16, 16, 16}));
  EXPECT_EQ(shapes.encoder[2], (std::array<std::int64_t, 3>{32, 8, 8}));
  EXPECT_EQ(shapes.encoder[3], (std::array<std::int64_t, 3>{64, 4, 4}));
  EXPECT_EQ(shapes.bottleneck, (std::array<std::int64_t, 3>{64, 4, 4}));
  // Decoder: [2C,H/8], [C,H/4], [C/2,H/2], [classes,H].
  EXPECT_EQ(shapes.decoder[0], (std::array<std::int64_t, 3>{16, 8, 8}));
  EXPECT_EQ(shapes.decoder[1], (std::array<std::int64_t, 3>{8, 16, 16}));
  EXPECT_EQ(shapes.decoder[2], (std::array<std::int64_t, 3>{4, 32, 32}));
  EXPECT_EQ(shapes.decoder[3], (std::array<std::int64_t, 3>{8, 64, 64}));
}

TEST(MfaNet, HasMoreParametersThanPros2Twin) {
  // Ours = PROS2 + MFA blocks + transformer: strictly more capacity.
  const auto config = small_config();
  const auto ours = make_model("ours", config);
  const auto pros2 = make_model("pros2", config);
  EXPECT_GT(ours->network().num_parameters(),
            pros2->network().num_parameters());
}

TEST(MfaNet, TransformerDepthGrowsParameters) {
  ModelConfig shallow = small_config();
  shallow.transformer_layers = 1;
  ModelConfig deep = small_config();
  deep.transformer_layers = 3;
  EXPECT_GT(make_model("ours", deep)->network().num_parameters(),
            make_model("ours", shallow)->network().num_parameters());
}

// Overfit check: the full model must be able to memorise a single sample.
TEST(MfaNet, OverfitsSingleSample) {
  ModelConfig config = small_config();
  auto model = make_model("ours", config);
  Rng rng(8);
  Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
  // Target: a quadrant pattern of levels.
  Tensor y = Tensor::zeros({1, 32, 32});
  for (std::int64_t i = 0; i < 32; ++i)
    for (std::int64_t j = 0; j < 32; ++j)
      y.set({0, i, j}, static_cast<float>((i < 16 ? 0 : 1) + (j < 16 ? 0 : 2)));
  nn::Adam opt(model->network().parameters(), 3e-3f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 300; ++step) {
    opt.zero_grad();
    Tensor loss = cross_entropy(model->forward(x), y);
    loss.backward();
    opt.step();
    if (step == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.5f);
}

}  // namespace
}  // namespace mfa::models
