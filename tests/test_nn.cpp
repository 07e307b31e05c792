#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "models/blocks.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace mfa {
namespace {

using namespace mfa::ops;
using nn::Adam;
using nn::BatchNorm2d;
using nn::Conv2d;
using nn::LayerNorm;
using nn::Linear;
using nn::MultiHeadSelfAttention;
using nn::Sequential;
using nn::Sgd;
using nn::TransformerEncoderLayer;

TEST(NnLayers, Conv2dOutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, rng, /*stride=*/2, /*padding=*/1);
  Tensor x = Tensor::zeros({2, 3, 16, 16});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
}

TEST(NnLayers, Conv2dParameterCount) {
  Rng rng(1);
  Conv2d conv(4, 6, 3, rng);
  EXPECT_EQ(conv.num_parameters(), 6 * 4 * 3 * 3 + 6);
}

TEST(NnLayers, LinearShapeAndBias) {
  Rng rng(2);
  Linear lin(5, 3, rng);
  Tensor x = Tensor::zeros({4, 5});
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 3}));
  // Zero input -> output equals bias (zero-initialised).
  for (const float v : y.to_vector()) EXPECT_EQ(v, 0.0f);
}

TEST(NnLayers, LinearHandlesLeadingDims) {
  Rng rng(3);
  Linear lin(4, 7, rng);
  Tensor x = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(lin.forward(x).shape(), (Shape{2, 3, 7}));
}

TEST(NnLayers, BatchNormSwitchesModes) {
  Rng rng(4);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({4, 2, 4, 4}, rng, 3.0f);
  bn.train(true);
  Tensor y_train = bn.forward(x);
  bn.train(false);
  Tensor y_eval = bn.forward(x);
  // Running stats were updated only partially (momentum), so outputs differ.
  float diff = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i)
    diff += std::fabs(y_train.data()[i] - y_eval.data()[i]);
  EXPECT_GT(diff, 1.0f);
}

TEST(NnLayers, SequentialComposes) {
  Rng rng(5);
  auto seq = std::make_shared<Sequential>();
  seq->add(std::make_shared<Conv2d>(1, 4, 3, rng, 1, 1));
  seq->add(std::make_shared<nn::ReLU>());
  seq->add(std::make_shared<Conv2d>(4, 2, 3, rng, 1, 1));
  Tensor x = Tensor::zeros({1, 1, 8, 8});
  EXPECT_EQ(seq->forward(x).shape(), (Shape{1, 2, 8, 8}));
  EXPECT_EQ(seq->size(), 3u);
}

TEST(NnLayers, ParameterNamesAreQualified) {
  Rng rng(6);
  auto seq = std::make_shared<Sequential>();
  seq->add(std::make_shared<Conv2d>(1, 2, 3, rng));
  seq->add(std::make_shared<BatchNorm2d>(2));
  std::vector<std::string> names;
  for (const auto& [name, t] : seq->state()) names.push_back(name);
  // Every parameter (in parameters() order), then the buffers.
  EXPECT_EQ(names, (std::vector<std::string>{"0.weight", "0.bias", "1.weight",
                                             "1.bias", "1.running_mean",
                                             "1.running_var"}));
  EXPECT_EQ(seq->parameters().size(), 4u);
}

TEST(NnLayers, ZeroGradClearsAllParams) {
  Rng rng(7);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::ones({1, 3});
  sum(lin.forward(x)).backward();
  bool any_nonzero = false;
  for (const auto& p : lin.parameters())
    for (const float g : p.grad().to_vector()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (const auto& p : lin.parameters())
    for (const float g : p.grad().to_vector()) EXPECT_EQ(g, 0.0f);
}

TEST(NnAttention, OutputShapePreserved) {
  Rng rng(8);
  MultiHeadSelfAttention msa(8, 2, rng);
  Tensor x = Tensor::randn({2, 5, 8}, rng);
  EXPECT_EQ(msa.forward(x).shape(), (Shape{2, 5, 8}));
}

TEST(NnAttention, RejectsIndivisibleHeads) {
  Rng rng(9);
  EXPECT_THROW(MultiHeadSelfAttention(7, 2, rng), std::invalid_argument);
}

TEST(NnAttention, GradCheckThroughMsa) {
  Rng rng(10);
  MultiHeadSelfAttention msa(4, 2, rng);
  Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f, /*requires_grad=*/true);
  auto inputs = msa.parameters();
  inputs.push_back(x);
  const auto r = gradcheck(
      [&] {
        Tensor y = msa.forward(x);
        return sum(mul(y, y));
      },
      inputs, 1e-2f, 8e-2f);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(NnAttention, TransformerLayerShape) {
  Rng rng(11);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  Tensor x = Tensor::randn({2, 6, 8}, rng);
  EXPECT_EQ(layer.forward(x).shape(), (Shape{2, 6, 8}));
}

TEST(NnAttention, TransformerGradFlowsToAllParams) {
  Rng rng(12);
  TransformerEncoderLayer layer(4, 2, 8, rng);
  Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f);
  sum(mul(layer.forward(x), layer.forward(x))).backward();
  for (const auto& p : layer.parameters()) {
    float norm = 0.0f;
    for (const float g : p.grad().to_vector()) norm += g * g;
    // All weight matrices should receive gradient (biases of the last layer
    // always do via residual path).
    EXPECT_GE(norm, 0.0f);
  }
}

// Full composite gradcheck through the pre-LN transformer layer: softmax
// attention, both layer norms, the FFN, and the residual adds in one graph.
TEST(NnAttention, GradCheckThroughTransformerLayer) {
  Rng rng(13);
  TransformerEncoderLayer layer(4, 2, 8, rng);
  Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f, /*requires_grad=*/true);
  auto inputs = layer.parameters();
  inputs.push_back(x);
  const auto r = gradcheck(
      [&] {
        Tensor y = layer.forward(x);
        return sum(mul(y, y));
      },
      inputs, 1e-2f, 8e-2f);
  EXPECT_TRUE(r.ok) << r.detail;
}

// Full gradcheck through the MFA dual-attention block: PAM + CAM branches,
// the channel reduction/restore convs, and both batch norms (training mode).
TEST(NnAttention, GradCheckThroughMfaBlock) {
  Rng rng(14);
  models::MfaBlock block(4, rng);
  // The attention gains start at zero (identity attention); push them off
  // zero so the PAM/CAM softmax paths carry gradient during the check.
  for (auto& p : block.parameters())
    if (p.numel() == 1) p.data()[0] = 0.5f;
  Tensor x = Tensor::randn({1, 4, 3, 3}, rng, 0.5f, /*requires_grad=*/true);
  auto inputs = block.parameters();
  inputs.push_back(x);
  const auto r = gradcheck(
      [&] {
        Tensor y = block.forward(x);
        return sum(mul(y, y));
      },
      inputs, 1e-2f, 8e-2f);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(NnOptim, SgdConvergesOnQuadratic) {
  // minimise (w - 3)^2
  Tensor w = Tensor::scalar(0.0f, /*requires_grad=*/true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    Tensor loss = mul(add_scalar(w, -3.0f), add_scalar(w, -3.0f));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.item(), 3.0f, 1e-3f);
}

TEST(NnOptim, SgdMomentumFasterThanPlain) {
  auto run = [](float momentum) {
    Tensor w = Tensor::scalar(10.0f, /*requires_grad=*/true);
    Sgd opt({w}, 0.02f, momentum);
    for (int i = 0; i < 40; ++i) {
      opt.zero_grad();
      mul(w, w).backward();
      opt.step();
    }
    return std::fabs(w.item());
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(NnOptim, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f}, true);
  Tensor target = Tensor::from_data({3}, {1.0f, 2.0f, -1.0f});
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    mse_loss(w, target).backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(w.data()[i], target.data()[i], 1e-2f);
}

TEST(NnOptim, AdamWeightDecayShrinksWeights) {
  Tensor w = Tensor::scalar(1.0f, true);
  Adam opt({w}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    // Constant-zero loss gradient; decay alone should shrink w.
    mul_scalar(w, 0.0f).backward();
    opt.step();
  }
  EXPECT_LT(std::fabs(w.item()), 1.0f);
}

// End-to-end sanity: a small CNN must be able to overfit a two-image
// classification toy problem — exercises conv/bn/pool/linear/CE/Adam jointly.
TEST(NnIntegration, SmallCnnOverfitsToyProblem) {
  Rng rng(13);
  auto conv1 = std::make_shared<Conv2d>(1, 4, 3, rng, 1, 1);
  auto bn1 = std::make_shared<BatchNorm2d>(4);
  auto conv2 = std::make_shared<Conv2d>(4, 2, 3, rng, 1, 1);
  Sequential net;
  net.add(conv1).add(bn1).add(std::make_shared<nn::ReLU>()).add(conv2);

  // Two 8x8 images: one with a left hotspot, one with a right hotspot.
  Tensor x = Tensor::zeros({2, 1, 8, 8});
  for (std::int64_t i = 0; i < 8; ++i) {
    x.set({0, 0, i, 1}, 1.0f);
    x.set({1, 0, i, 6}, 1.0f);
  }
  Tensor targets = Tensor::from_data({2}, {0, 1});

  Adam opt(net.parameters(), 0.02f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    opt.zero_grad();
    Tensor feat = net.forward(x);                       // [2, 2, 8, 8]
    Tensor pooled = ops::global_avg_pool(feat);         // [2, 2, 1, 1]
    Tensor logits = reshape(pooled, {2, 2});
    Tensor loss = cross_entropy(logits, targets);
    loss.backward();
    opt.step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.1f);
}

// A single transformer layer must be able to overfit a token-permutation
// regression task that requires cross-token communication.
TEST(NnIntegration, TransformerLearnsCrossTokenTask) {
  Rng rng(14);
  TransformerEncoderLayer layer(4, 2, 8, rng);
  // Input tokens; target = sequence-reversed tokens. Self-attention is the
  // only mechanism that can move information between positions.
  Tensor x = Tensor::randn({1, 4, 4}, rng, 1.0f);
  Tensor target = permute(x, {0, 1, 2}).detach();
  // Reverse tokens manually.
  Tensor rev = Tensor::zeros({1, 4, 4});
  for (std::int64_t l = 0; l < 4; ++l)
    for (std::int64_t d = 0; d < 4; ++d)
      rev.set({0, l, d}, x.at({0, 3 - l, d}));

  Adam opt(layer.parameters(), 0.01f);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Tensor loss = mse_loss(layer.forward(x), rev);
    loss.backward();
    opt.step();
    if (i == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.2f);
}

}  // namespace
}  // namespace mfa
