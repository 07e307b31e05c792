#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "netlist/generator.h"
#include "place/inflation.h"
#include "place/legalizer.h"
#include "place/placer.h"

namespace mfa::place {
namespace {

using fpga::DeviceGrid;
using fpga::Resource;
using netlist::Design;
using netlist::DesignGenerator;

DeviceGrid test_device() { return DeviceGrid::make_xcvu3p_like(60, 40); }

Design small_design(const DeviceGrid& device) {
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  // Shrink for unit-test speed while keeping structure.
  spec.lut_util = 0.3;
  spec.ff_util = 0.15;
  spec.dsp_util = 0.6;
  spec.bram_util = 0.6;
  spec.uram_util = 0.3;
  return DesignGenerator::generate(spec, device);
}

TEST(Problem, CascadesBecomeSingleObjects) {
  const auto device = test_device();
  const auto design = small_design(device);
  const PlacementProblem problem(design, device);
  EXPECT_LT(problem.num_objects(), design.num_cells());
  for (std::size_t si = 0; si < design.cascades.size(); ++si) {
    const auto& shape = design.cascades[si];
    const auto obj = problem.object_of_cell[static_cast<size_t>(shape.macros[0])];
    for (const auto id : shape.macros)
      EXPECT_EQ(problem.object_of_cell[static_cast<size_t>(id)], obj);
    const auto& o = problem.objects[static_cast<size_t>(obj)];
    EXPECT_EQ(o.cells.size(), shape.macros.size());
    EXPECT_DOUBLE_EQ(o.height, static_cast<double>(shape.macros.size()));
    // Offsets are consecutive in order.
    for (size_t k = 0; k < o.off_y.size(); ++k)
      EXPECT_DOUBLE_EQ(o.off_y[k], static_cast<double>(k));
  }
}

TEST(Problem, EveryCellHasAnObject) {
  const auto device = test_device();
  const auto design = small_design(device);
  const PlacementProblem problem(design, device);
  for (const auto obj : problem.object_of_cell) {
    ASSERT_GE(obj, 0);
    ASSERT_LT(obj, problem.num_objects());
  }
}

TEST(Problem, ExpandRoundTripsPositions) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 7.5);
  placement.y.assign(problem.objects.size(), 3.25);
  std::vector<double> cx, cy;
  placement.expand(problem, cx, cy);
  ASSERT_EQ(static_cast<std::int64_t>(cx.size()), design.num_cells());
  for (std::int64_t i = 0; i < design.num_cells(); ++i) {
    EXPECT_DOUBLE_EQ(cx[static_cast<size_t>(i)], 7.5);
    const auto obj =
        problem.objects[static_cast<size_t>(
            problem.object_of_cell[static_cast<size_t>(i)])];
    (void)obj;
    EXPECT_GE(cy[static_cast<size_t>(i)], 3.25);
  }
}

TEST(Placer, RejectsNonPositiveSpreadInterval) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  for (const std::int64_t interval : {0, -3}) {
    PlacerOptions options;
    options.spread_interval = interval;
    EXPECT_THROW(GlobalPlacer(problem, options), check::CheckError)
        << "spread_interval " << interval;
  }
}

// FNV-1a over the placement bits and the iteration count.
std::uint64_t placement_hash(const GlobalPlacer& placer) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  const auto& p = placer.placement();
  mix(p.x.data(), p.x.size() * sizeof(double));
  mix(p.y.data(), p.y.size() * sizeof(double));
  const std::int64_t iters = placer.total_iterations();
  mix(&iters, sizeof(iters));
  return h;
}

// The placement must not change a bit with the pool size, and the gather
// form of the forces must reproduce the scatter-form placer exactly. Runs
// the golden test's reduced Design_116 (which has region-constrained
// objects) through the Fig. 6 gate plus 40 further iterations, spreading
// every iteration and every fourth, under pools of 1, 2 and 4 threads, and
// pins the result to the hash the scatter-form placer produced.
TEST(Placer, BitIdenticalAcrossPoolSizes) {
  const auto device = DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util *= 0.4;
  spec.ff_util *= 0.4;
  spec.dsp_util *= 0.6;
  spec.bram_util *= 0.6;
  const auto design = DesignGenerator::generate(spec, device);
  auto& pool = common::ThreadPool::instance();
  struct RestorePool {
    int size;
    ~RestorePool() {
      common::ThreadPool::instance().resize_for_testing(size);
    }
  } restore{pool.size()};
  constexpr std::int64_t kIntervals[] = {1, 4};
  constexpr std::uint64_t kPinned[] = {0x5794cf557b80f420ULL,
                                       0x5318007892079c2cULL};
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<double> ref_x, ref_y;
    for (const int threads : {1, 2, 4}) {
      pool.resize_for_testing(threads);
      PlacementProblem problem(design, device);
      ASSERT_TRUE(std::any_of(problem.objects.begin(), problem.objects.end(),
                              [](const MoveObject& o) { return o.region >= 0; }));
      PlacerOptions options;
      options.seed = 5;
      options.spread_interval = kIntervals[k];
      GlobalPlacer placer(problem, options);
      placer.init_random();
      placer.run_until_overflow_target();
      placer.iterate(40);
      const auto& p = placer.placement();
      if (threads == 1) {
        ref_x = p.x;
        ref_y = p.y;
        EXPECT_EQ(placement_hash(placer), kPinned[k])
            << "spread_interval " << kIntervals[k] << ": hash 0x" << std::hex
            << placement_hash(placer);
        continue;
      }
      ASSERT_EQ(p.x.size(), ref_x.size());
      EXPECT_EQ(std::memcmp(p.x.data(), ref_x.data(),
                            ref_x.size() * sizeof(double)), 0)
          << "x differs at " << threads << " threads, spread_interval "
          << kIntervals[k];
      EXPECT_EQ(std::memcmp(p.y.data(), ref_y.data(),
                            ref_y.size() * sizeof(double)), 0)
          << "y differs at " << threads << " threads, spread_interval "
          << kIntervals[k];
    }
  }
}

TEST(Placer, InitRandomPlacesInBoundsAndInRegions) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  GlobalPlacer placer(problem, {});
  placer.init_random();
  const auto& p = placer.placement();
  for (size_t oi = 0; oi < problem.objects.size(); ++oi) {
    EXPECT_GE(p.x[oi], 0.0);
    EXPECT_LE(p.x[oi], static_cast<double>(device.cols()));
    EXPECT_GE(p.y[oi], 0.0);
    EXPECT_LE(p.y[oi], static_cast<double>(device.rows()));
    const auto& obj = problem.objects[oi];
    if (obj.region >= 0) {
      const auto& region = design.regions[static_cast<size_t>(obj.region)];
      EXPECT_TRUE(region.contains(p.x[oi], p.y[oi]));
    }
  }
}

TEST(Placer, IterationsReduceWirelength) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  PlacerOptions options;
  options.seed = 3;
  GlobalPlacer placer(problem, options);
  placer.init_random();
  const double wl0 = placer.wirelength();
  placer.iterate(60);
  EXPECT_LT(placer.wirelength(), wl0);
}

TEST(Placer, OverflowDecreasesFromClumpedStart) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  PlacerOptions options;
  options.seed = 4;
  GlobalPlacer placer(problem, options);
  placer.init_random();
  // Clump everything in one corner to force overflow.
  for (auto& x : placer.placement().x) x = 2.0;
  for (auto& y : placer.placement().y) y = 2.0;
  const auto of0 = placer.overflow();
  placer.iterate(120);
  const auto of1 = placer.overflow();
  EXPECT_LT(of1[static_cast<size_t>(Resource::Lut)],
            of0[static_cast<size_t>(Resource::Lut)]);
}

TEST(Placer, RunUntilOverflowTargetMeetsGate) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  PlacerOptions options;
  options.seed = 5;
  options.max_iterations = 600;
  GlobalPlacer placer(problem, options);
  placer.init_random();
  const bool met = placer.run_until_overflow_target();
  EXPECT_TRUE(met);
  const auto of = placer.overflow();
  EXPECT_LT(of[static_cast<size_t>(Resource::Dsp)], 0.25);
  EXPECT_LT(of[static_cast<size_t>(Resource::Lut)], 0.15);
}

TEST(Placer, NoBudgetRunsAllIterations) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  GlobalPlacer placer(problem, {});  // time_budget_seconds = 0: unlimited
  placer.init_random();
  EXPECT_EQ(placer.iterate(5), 5);
  EXPECT_FALSE(placer.budget_exhausted());
}

TEST(Placer, WallClockBudgetStopsEarlyWithPartialResult) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  PlacerOptions options;
  options.time_budget_seconds = 1e-6;  // exhausted almost immediately
  options.max_iterations = 200;
  GlobalPlacer placer(problem, options);
  placer.init_random();
  const auto done = placer.iterate(50);
  EXPECT_LT(done, 50);
  EXPECT_TRUE(placer.budget_exhausted());
  // The flag is sticky: further calls return without iterating.
  EXPECT_EQ(placer.iterate(10), 0);
  // The partial placement is still usable (everything in clamp bounds; the
  // clamp allows up to 0.75 sites of overhang for sub-site-height objects).
  const auto& p = placer.placement();
  for (size_t oi = 0; oi < problem.objects.size(); ++oi) {
    EXPECT_GE(p.x[oi], 0.0);
    EXPECT_LE(p.x[oi], static_cast<double>(device.cols()));
    EXPECT_GE(p.y[oi], 0.0);
    EXPECT_LE(p.y[oi], static_cast<double>(device.rows()) + 0.75);
  }
}

TEST(Placer, BudgetFaultForcesDeterministicExhaustion) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  GlobalPlacer placer(problem, {});
  placer.init_random();
  fi.arm_always("place.budget");
  EXPECT_EQ(placer.iterate(10), 0);
  EXPECT_TRUE(placer.budget_exhausted());
  fi.reset();
  // Sticky even after the fault is disarmed: the caller decided the run is
  // out of budget, so the best partial result stands.
  EXPECT_EQ(placer.iterate(10), 0);
}

TEST(Legalizer, ProducesLegalMacroPlacement) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  PlacerOptions options;
  options.seed = 6;
  GlobalPlacer placer(problem, options);
  placer.init_random();
  placer.iterate(50);
  Placement placement = placer.placement();
  const auto result = Legalizer::legalize_macros(problem, placement);
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.macros_placed, 0);
  EXPECT_EQ(Legalizer::check_macros(problem, placement), "");
}

TEST(Legalizer, CheckCatchesOverlap) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 0.0);
  placement.y.assign(problem.objects.size(), 0.0);
  // Put two DSP macros on the same site.
  const auto dsp_col = device.columns_of(fpga::SiteType::Dsp)[0];
  int found = 0;
  for (size_t oi = 0; oi < problem.objects.size() && found < 2; ++oi) {
    if (problem.objects[oi].resource == Resource::Dsp &&
        problem.objects[oi].height == 1.0) {
      placement.x[oi] = static_cast<double>(dsp_col) + 0.5;
      placement.y[oi] = 0.5;
      ++found;
    }
  }
  ASSERT_EQ(found, 2);
  EXPECT_NE(Legalizer::check_macros(problem, placement), "");
}

TEST(Inflation, NoInflationBelowThreshold) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 5.0);
  placement.y.assign(problem.objects.size(), 5.0);
  const std::vector<float> levels(64 * 64, 3.0f);  // at threshold, not above
  const auto stats = apply_inflation(problem, placement, levels, 64, 64);
  EXPECT_EQ(stats.inflated_objects, 0);
  EXPECT_DOUBLE_EQ(stats.area_added, 0.0);
}

TEST(Inflation, Eq11FactorApplied) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  problem.reset_areas();
  Placement placement;
  placement.x.assign(problem.objects.size(), 1.0);
  placement.y.assign(problem.objects.size(), 1.0);
  // Uniform level-4 congestion: factor = max(1, 4-2)^2.5 = 5.657; budget caps
  // the applied growth via tau.
  const std::vector<float> levels(64 * 64, 4.0f);
  const double area_before = [&] {
    double a = 0.0;
    for (const auto& o : problem.objects) a += o.area;
    return a;
  }();
  const auto stats = apply_inflation(problem, placement, levels, 64, 64);
  EXPECT_GT(stats.inflated_objects, 0);
  EXPECT_GT(stats.area_added, 0.0);
  double area_after = 0.0;
  for (const auto& o : problem.objects) area_after += o.area;
  EXPECT_NEAR(area_after, area_before + stats.area_added, 1e-6);
}

TEST(Inflation, RespectsCapacityBudget) {
  const auto device = test_device();
  // High-utilisation design: inflation budget must be tight.
  const auto design =
      DesignGenerator::generate(netlist::mlcad2023_spec("Design_116"), device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 1.0);
  placement.y.assign(problem.objects.size(), 1.0);
  const std::vector<float> levels(64 * 64, 7.0f);  // extreme congestion
  apply_inflation(problem, placement, levels, 64, 64);
  for (std::size_t r = 0; r < fpga::kNumResources; ++r) {
    double total = 0.0;
    for (const auto& o : problem.objects)
      if (static_cast<std::size_t>(o.resource) == r) total += o.area;
    EXPECT_LE(total,
              device.area_capacity(static_cast<Resource>(r)) * (1.0 + 1e-9))
        << fpga::to_string(static_cast<Resource>(r));
  }
}

TEST(Inflation, MonotoneInLevel) {
  const auto device = test_device();
  const auto design = small_design(device);
  const auto run = [&](float level) {
    PlacementProblem problem(design, device);
    Placement placement;
    placement.x.assign(problem.objects.size(), 1.0);
    placement.y.assign(problem.objects.size(), 1.0);
    const std::vector<float> levels(64 * 64, level);
    return apply_inflation(problem, placement, levels, 64, 64).area_added;
  };
  EXPECT_LE(run(4.0f), run(5.0f));
  EXPECT_LE(run(5.0f), run(6.0f));
}

TEST(Inflation, ResetAreasUndoesInflation) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 1.0);
  placement.y.assign(problem.objects.size(), 1.0);
  const std::vector<float> levels(64 * 64, 5.0f);
  apply_inflation(problem, placement, levels, 64, 64);
  problem.reset_areas();
  for (const auto& o : problem.objects) EXPECT_DOUBLE_EQ(o.area, o.base_area);
}

TEST(Inflation, RejectsBadMapSize) {
  const auto device = test_device();
  const auto design = small_design(device);
  PlacementProblem problem(design, device);
  Placement placement;
  placement.x.assign(problem.objects.size(), 1.0);
  placement.y.assign(problem.objects.size(), 1.0);
  const std::vector<float> levels(10, 5.0f);
  EXPECT_THROW(apply_inflation(problem, placement, levels, 64, 64),
               std::invalid_argument);
}

}  // namespace
}  // namespace mfa::place
