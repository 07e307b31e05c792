// Cross-module integration tests: the full data path from generator to
// trained prediction, and placement-quality properties of the flow.
#include <gtest/gtest.h>

#include <cmath>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "place/legalizer.h"
#include "route/score.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace mfa {
namespace {

fpga::DeviceGrid test_device() {
  return fpga::DeviceGrid::make_xcvu3p_like(40, 32);
}

netlist::DesignSpec small_spec(const char* name) {
  netlist::DesignSpec spec = netlist::mlcad2023_spec(name);
  spec.lut_util *= 0.4;
  spec.ff_util *= 0.4;
  spec.dsp_util *= 0.6;
  spec.bram_util *= 0.6;
  return spec;
}

TEST(Integration, DatasetToTrainingImprovesOverChance) {
  const auto device = test_device();
  train::DatasetOptions dopt;
  dopt.grid = 32;
  dopt.placements_per_design = 3;
  dopt.placer_iterations = 60;
  auto samples = train::DatasetBuilder::build_for_design(
      small_spec("Design_116"), device, dopt);
  std::vector<train::Sample> train_set, eval_set;
  train::DatasetBuilder::split(samples, 3, train_set, eval_set);
  ASSERT_FALSE(train_set.empty());
  ASSERT_FALSE(eval_set.empty());

  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  auto model = models::make_model("ours", config);
  const auto before = train::Trainer::evaluate(*model, eval_set);
  train::TrainOptions topt;
  topt.epochs = 35;  // past the plateau-escape point at this scale
  topt.learning_rate = 3e-3f;
  train::Trainer::fit(*model, train_set, topt);
  const auto after = train::Trainer::evaluate(*model, eval_set);
  EXPECT_GT(after.acc, before.acc);
  EXPECT_LT(after.nrms, before.nrms + 1e-9);
}

TEST(Integration, FlowLegalisesAndScoresAllStrategies) {
  const auto device = test_device();
  const auto design =
      netlist::DesignGenerator::generate(small_spec("Design_190"), device);
  flow::FlowOptions options;
  options.placer.max_iterations = 80;
  options.min_gp_iterations = 60;
  options.post_inflation_iterations = 10;
  flow::RoutabilityDrivenPlacer placer_flow(design, device, options);
  for (const auto strategy :
       {flow::Strategy::Utda, flow::Strategy::Seu,
        flow::Strategy::MpkuImprove}) {
    const auto result = placer_flow.run(strategy);
    EXPECT_GE(result.s_ir, 1.0) << flow::to_string(strategy);
    EXPECT_GE(result.s_dr, 5.0) << flow::to_string(strategy);
    EXPECT_GT(result.s_score, 0.0) << flow::to_string(strategy);
  }
}

TEST(Integration, ConvergedPlacementBeatsEarlyStop) {
  // More GP iterations must not make routed congestion dramatically worse;
  // typically they improve it. Compare a 15-iteration placement with a
  // 150-iteration one on the same seed.
  const auto device = test_device();
  const auto design =
      netlist::DesignGenerator::generate(small_spec("Design_227"), device);
  const auto route_score = [&](std::int64_t iterations) {
    place::PlacementProblem problem(design, device);
    place::PlacerOptions popt;
    popt.seed = 5;
    place::GlobalPlacer placer(problem, popt);
    placer.init_random();
    placer.iterate(iterations);
    place::Placement placement = placer.placement();
    place::Legalizer::legalize_macros(problem, placement);
    std::vector<double> cx, cy;
    placement.expand(problem, cx, cy);
    route::RouterOptions ropt;
    ropt.grid_width = 32;
    ropt.grid_height = 32;
    ropt.short_capacity = 48;  // 32-grid tiles are ~2x wider than 64-grid
    ropt.global_capacity = 40;
    route::GlobalRouter router(design, device, ropt);
    router.initial_route(cx, cy);
    double total = 0.0;
    for (const auto v : router.analyze().label) total += v;
    return total;
  };
  EXPECT_LE(route_score(150), route_score(15) * 1.05);
}

TEST(Integration, CascadesStayIntactThroughWholeFlow) {
  const auto device = test_device();
  const auto design =
      netlist::DesignGenerator::generate(small_spec("Design_156"), device);
  place::PlacementProblem problem(design, device);
  place::PlacerOptions popt;
  popt.seed = 9;
  place::GlobalPlacer placer(problem, popt);
  placer.init_random();
  placer.iterate(60);
  place::Placement placement = placer.placement();
  ASSERT_TRUE(place::Legalizer::legalize_macros(problem, placement).success);
  ASSERT_EQ(place::Legalizer::check_macros(problem, placement), "");
  // Expand and verify each cascade occupies consecutive rows of one column.
  std::vector<double> cx, cy;
  placement.expand(problem, cx, cy);
  for (const auto& shape : design.cascades) {
    const double col = cx[static_cast<size_t>(shape.macros[0])];
    for (size_t k = 0; k < shape.macros.size(); ++k) {
      EXPECT_DOUBLE_EQ(cx[static_cast<size_t>(shape.macros[k])], col);
      EXPECT_NEAR(cy[static_cast<size_t>(shape.macros[k])],
                  cy[static_cast<size_t>(shape.macros[0])] +
                      static_cast<double>(k),
                  1e-9);
    }
  }
}

TEST(Integration, RegionConstrainedCellsConvergeIntoRegions) {
  const auto device = test_device();
  const auto design =
      netlist::DesignGenerator::generate(small_spec("Design_176"), device);
  place::PlacementProblem problem(design, device);
  place::PlacerOptions popt;
  popt.seed = 11;
  place::GlobalPlacer placer(problem, popt);
  placer.init_random();
  placer.iterate(100);
  const auto& placement = placer.placement();
  std::int64_t total = 0, inside = 0;
  for (size_t oi = 0; oi < problem.objects.size(); ++oi) {
    const auto& obj = problem.objects[oi];
    if (obj.region < 0) continue;
    ++total;
    const auto& region = design.regions[static_cast<size_t>(obj.region)];
    inside += region.contains(placement.x[oi], placement.y[oi]);
  }
  if (total > 0) {
    EXPECT_GT(static_cast<double>(inside) / static_cast<double>(total), 0.9);
  }
}

TEST(Integration, ScoreMonotoneInCongestion) {
  // A placement that routes with higher congestion levels must never get a
  // better (lower) S_IR.
  route::CongestionAnalysis low, high;
  for (auto& per_class : low.levels)
    for (auto& lm : per_class) lm.design_level = 3;
  for (auto& per_class : high.levels)
    for (auto& lm : per_class) lm.design_level = 6;
  EXPECT_LT(route::score::s_ir(low), route::score::s_ir(high));
}

}  // namespace
}  // namespace mfa
