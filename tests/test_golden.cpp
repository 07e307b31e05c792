// Golden end-to-end determinism gate.
//
// Runs the full pipeline — synthetic netlist -> 2-epoch training -> model
// congestion prediction -> inflation -> further placement -> legalisation ->
// routing -> congestion analysis — at a fixed seed, and hashes the final
// placement coordinates plus the congestion-level map with FNV-1a. The hash
// must be bit-identical across MFA_THREADS in {1, 4} x MFA_POOL in {on, off}:
// this turns the thread-count invariance and the pool's bitwise-transparency
// claims into one durable regression gate, with the observability layer live
// while it runs (spans and counters must never perturb numerics).
//
// The hashed levels are thresholded, so a sub-threshold change in what an op
// writes cannot move them. A second hash therefore covers the trained model's
// raw eval-mode logits, held to the same matrix and pinned the same way.
//
// The whole matrix runs once per supported GEMM variant (scalar/avx2/avx512,
// see tensor/gemm.h), and the hash is additionally pinned per variant to
// constants captured on the CI box. If an intentional numeric change (new
// placer schedule, different feature normalisation, ...) moves one, every
// thread/pool configuration must still agree; update the matching
// kGoldenHashPerVariant entry to the value printed in the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "features/features.h"
#include "models/congestion_model.h"
#include "netlist/generator.h"
#include "place/inflation.h"
#include "place/legalizer.h"
#include "place/placer.h"
#include "route/router.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace mfa {
namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void f32(float v) { bytes(&v, sizeof(v)); }
  void i32(std::int32_t v) { bytes(&v, sizeof(v)); }
};

struct PipelineHashes {
  std::uint64_t pipeline;  // final placement + routed congestion levels
  std::uint64_t logits;    // raw eval-mode logits of the trained model
};

// One full pipeline run at fixed seeds; returns the FNV-1a hashes of the
// final placement and routed congestion-level map, and of the trained
// model's logits on the placed features. Everything that could perturb
// determinism (placer RNG, trainer shuffle, model init) is seeded
// explicitly; wall-clock-dependent paths (budgets) are left disabled.
PipelineHashes run_pipeline_hash() {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util *= 0.4;
  spec.ff_util *= 0.4;
  spec.dsp_util *= 0.6;
  spec.bram_util *= 0.6;

  // ---- stage 1: dataset from synthetic placements ----
  train::DatasetOptions dopt;
  dopt.grid = 32;
  dopt.placements_per_design = 2;
  dopt.augment_rotations = false;
  dopt.placer_iterations = 40;
  dopt.seed = 7;
  const auto samples =
      train::DatasetBuilder::build_for_design(spec, device, dopt);

  // ---- stage 2: 2-epoch training ----
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 3;
  auto model = models::make_model("ours", config);
  train::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 2;
  topt.seed = 1;
  train::Trainer::fit(*model, samples, topt);

  // ---- stage 3: place, predict, inflate, place more ----
  const auto design = netlist::DesignGenerator::generate(spec, device);
  place::PlacementProblem problem(design, device);
  place::PlacerOptions popt;
  popt.seed = 5;
  place::GlobalPlacer placer(problem, popt);
  placer.init_random();
  placer.iterate(40);

  std::vector<double> cx, cy;
  placer.placement().expand(problem, cx, cy);
  features::FeatureOptions fopt;
  fopt.grid_width = 32;
  fopt.grid_height = 32;
  Tensor feats = features::extract_features(design, device, cx, cy, fopt);
  Tensor batched =
      ops::reshape(feats, {1, feats.size(0), feats.size(1), feats.size(2)});
  Fnv1a logits_fnv;
  {
    auto& net = model->network();
    const bool was_training = net.is_training();
    net.train(false);
    const NoGradGuard no_grad;
    const Tensor logits = model->forward(batched);
    logits_fnv.bytes(logits.data(),
                     static_cast<size_t>(logits.numel()) * sizeof(float));
    net.train(was_training);
  }
  Tensor pred = model->predict_levels(batched);
  std::vector<float> levels(pred.data(), pred.data() + pred.numel());

  place::apply_inflation(problem, placer.placement(), levels, 32, 32,
                         place::InflationOptions{});
  placer.iterate(15);

  // ---- stage 4: legalise ----
  place::Placement placement = placer.placement();
  place::Legalizer::legalize_macros(problem, placement);
  placement.expand(problem, cx, cy);

  // ---- stage 5: route + analyse ----
  route::RouterOptions ropt = route::calibrated_router_options(device, 32, 32);
  route::GlobalRouter router(design, device, ropt);
  router.initial_route(cx, cy);
  router.detailed_route();
  const route::CongestionAnalysis analysis = router.analyze();

  Fnv1a fnv;
  for (double v : cx) fnv.f64(v);
  for (double v : cy) fnv.f64(v);
  for (const auto& per_class : analysis.levels) {
    for (const auto& lm : per_class) {
      fnv.i32(lm.design_level);
      for (std::int32_t l : lm.level) fnv.i32(l);
    }
  }
  for (float v : analysis.label) fnv.f32(v);
  return {fnv.h, logits_fnv.h};
}

// Per-GEMM-variant pinned hashes, captured on the CI box (x86-64, gcc 12, no
// -ffast-math anywhere in the build). Within a variant the fixed reduction
// order makes the result independent of optimisation level, thread count,
// pool mode, and tile parameters; across variants the hash MAY differ (the
// SIMD kernels use single-rounded FMA where the scalar ones use mul+add), so
// each compiled variant pins its own constant. At this seed all three
// happen to coincide: the hashed quantities (placement coordinates, discrete
// congestion levels) sit behind thresholded decisions the sub-ulp GEMM
// differences do not flip. If a variant's kernel numerics change
// intentionally, update only that entry.
constexpr std::uint64_t kGoldenHashPerVariant[kernels::kNumVariants] = {
    0xb60d3b1dc5309ff8ULL,  // scalar
    0xb60d3b1dc5309ff8ULL,  // avx2
    0xb60d3b1dc5309ff8ULL,  // avx512
};

// Per-GEMM-variant pinned hashes of the eval-mode logits, captured like
// kGoldenHashPerVariant. These are raw floats, so unlike the thresholded
// pipeline hash the scalar variant (mul+add) differs from the FMA-using SIMD
// variants; avx2 and avx512 coincide at this seed. If a variant's kernel
// numerics change intentionally, update only that entry.
constexpr std::uint64_t kLogitsHashPerVariant[kernels::kNumVariants] = {
    0xa51bead3be8722acULL,  // scalar
    0x88143f09b273ca5aULL,  // avx2
    0x88143f09b273ca5aULL,  // avx512
};

struct GoldenConfig {
  int threads;
  bool pool;
};

// MFA_THREADS x MFA_POOL: pool off makes every tensor buffer an exact heap
// block, so the pool axis covers recycled-vs-fresh bit identity.
constexpr GoldenConfig kGoldenConfigs[] = {
    {1, true}, {4, true}, {1, false}, {4, false}};

TEST(Golden, EndToEndAndLogitsHashesBitIdenticalAcrossThreadsAndPool) {
  auto& thread_pool = common::ThreadPool::instance();
  auto& storage_pool = tensor::StoragePool::instance();
  const bool pool_was_enabled = storage_pool.enabled();

  for (int v = 0; v < kernels::kNumVariants; ++v) {
    if (!kernels::variant_supported(static_cast<kernels::Variant>(v))) {
      continue;
    }
    ASSERT_TRUE(kernels::set_variant_override(v));
    std::vector<PipelineHashes> hashes;
    for (const auto& cfg : kGoldenConfigs) {
      thread_pool.resize_for_testing(cfg.threads);
      storage_pool.set_enabled(cfg.pool);
      hashes.push_back(run_pipeline_hash());
    }
    // Restore the ambient configuration before asserting.
    thread_pool.resize_for_testing(1);
    storage_pool.set_enabled(pool_was_enabled);

    const char* vname =
        kernels::variant_name(static_cast<kernels::Variant>(v));
    for (size_t i = 1; i < hashes.size(); ++i) {
      EXPECT_EQ(hashes[0].pipeline, hashes[i].pipeline)
          << "[" << vname << "] pipeline hash diverged between config 0 "
          << "(threads=1, pool=on) and config " << i
          << " (threads=" << kGoldenConfigs[i].threads
          << ", pool=" << (kGoldenConfigs[i].pool ? "on" : "off") << ")";
      EXPECT_EQ(hashes[0].logits, hashes[i].logits)
          << "[" << vname << "] logits hash diverged between config 0 "
          << "(threads=1, pool=on) and config " << i
          << " (threads=" << kGoldenConfigs[i].threads
          << ", pool=" << (kGoldenConfigs[i].pool ? "on" : "off") << ")";
    }
    EXPECT_EQ(hashes[0].pipeline, kGoldenHashPerVariant[v])
        << "[" << vname << "] golden pipeline hash changed. If this is an "
        << "intentional numeric change, update kGoldenHashPerVariant["
        << v << "] in tests/test_golden.cpp to 0x" << std::hex
        << hashes[0].pipeline << "; otherwise bisect the regression.";
    EXPECT_EQ(hashes[0].logits, kLogitsHashPerVariant[v])
        << "[" << vname << "] golden logits hash changed. If this is an "
        << "intentional numeric change, update kLogitsHashPerVariant["
        << v << "] in tests/test_golden.cpp to 0x" << std::hex
        << hashes[0].logits << "; otherwise bisect the regression.";
  }
  kernels::set_variant_override(-1);

  // The run happened with the observability layer live: the pipeline spans
  // must have been recorded (proof the instrumentation was active while the
  // numerics stayed bit-identical).
  if (obs::enabled()) {
    bool saw_placer = false, saw_router = false, saw_trainer = false;
    for (const auto& e : obs::trace_snapshot()) {
      if (std::strcmp(e.name, "placer.iterate") == 0) saw_placer = true;
      if (std::strcmp(e.name, "router.detailed_route") == 0) saw_router = true;
      if (std::strcmp(e.name, "trainer.fit") == 0) saw_trainer = true;
    }
    EXPECT_TRUE(saw_placer);
    EXPECT_TRUE(saw_router);
    EXPECT_TRUE(saw_trainer);
  }
}

// ---- LHNN golden gate ----------------------------------------------------
//
// Same determinism contract, aimed at the sparse-op stack: a 2-epoch LHNN
// fit (cell->net gather, net->lattice scatter, multi-root backward through
// the auxiliary net head) followed by predict_levels, hashing the predicted
// level map AND every trained parameter. This pins the slot-partitioned
// scatter accumulation and the multi-root union plan the same way the main
// gate pins the dense stack.

std::uint64_t run_lhnn_hash(const std::vector<train::Sample>& samples) {
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 3;
  auto model = models::make_model("lhnn", config);
  train::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 2;
  topt.seed = 1;
  train::Trainer::fit(*model, samples, topt);

  Tensor batched = ops::reshape(
      samples[0].features,
      {1, samples[0].features.size(0), samples[0].features.size(1),
       samples[0].features.size(2)});
  Tensor pred = model->predict_levels(batched);

  Fnv1a fnv;
  for (std::int64_t i = 0; i < pred.numel(); ++i) fnv.f32(pred.data()[i]);
  for (const Tensor& p : model->network().parameters())
    for (std::int64_t i = 0; i < p.numel(); ++i) fnv.f32(p.data()[i]);
  return fnv.h;
}

// Pinned per GEMM variant like kGoldenHashPerVariant. Unlike the main gate
// this hash covers raw trained parameters (not threshold-protected discrete
// levels), so the scalar variant legitimately differs from the FMA-using
// SIMD variants; avx2 and avx512 coincide because the LHNN shapes at C=4
// stay under the avx512 kernel's width threshold.
constexpr std::uint64_t kLhnnHashPerVariant[kernels::kNumVariants] = {
    0xb81e388c702e2a79ULL,  // scalar
    0xa3246cf14d139a14ULL,  // avx2
    0xa3246cf14d139a14ULL,  // avx512
};

TEST(Golden, LhnnTrainPredictHashIsBitIdenticalAcrossConfigs) {
  auto& thread_pool = common::ThreadPool::instance();
  auto& storage_pool = tensor::StoragePool::instance();
  const bool pool_was_enabled = storage_pool.enabled();

  // Dataset built once outside the matrix: its placer/feature path is
  // covered by the main gate; this test isolates the model stack.
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util *= 0.4;
  spec.ff_util *= 0.4;
  spec.dsp_util *= 0.6;
  spec.bram_util *= 0.6;
  train::DatasetOptions dopt;
  dopt.grid = 32;
  dopt.placements_per_design = 2;
  dopt.augment_rotations = false;
  dopt.placer_iterations = 40;
  dopt.seed = 7;
  const auto samples =
      train::DatasetBuilder::build_for_design(spec, device, dopt);

  for (int v = 0; v < kernels::kNumVariants; ++v) {
    if (!kernels::variant_supported(static_cast<kernels::Variant>(v))) {
      continue;
    }
    ASSERT_TRUE(kernels::set_variant_override(v));
    std::vector<std::uint64_t> hashes;
    for (const auto& cfg : kGoldenConfigs) {
      thread_pool.resize_for_testing(cfg.threads);
      storage_pool.set_enabled(cfg.pool);
      hashes.push_back(run_lhnn_hash(samples));
    }
    thread_pool.resize_for_testing(1);
    storage_pool.set_enabled(pool_was_enabled);

    const char* vname =
        kernels::variant_name(static_cast<kernels::Variant>(v));
    for (size_t i = 1; i < hashes.size(); ++i) {
      EXPECT_EQ(hashes[0], hashes[i])
          << "[" << vname << "] LHNN hash diverged between config 0 and "
          << "config " << i << " (threads=" << kGoldenConfigs[i].threads
          << ", pool=" << (kGoldenConfigs[i].pool ? "on" : "off") << ")";
    }
    EXPECT_EQ(hashes[0], kLhnnHashPerVariant[v])
        << "[" << vname << "] LHNN golden hash changed. If intentional, "
        << "update kLhnnHashPerVariant[" << v
        << "] in tests/test_golden.cpp to 0x" << std::hex << hashes[0]
        << "; otherwise bisect the regression.";
  }
  kernels::set_variant_override(-1);
}

}  // namespace
}  // namespace mfa
