#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/fault.h"
#include "common/metrics.h"
#include "netlist/generator.h"
#include "place/placer.h"
#include "route/router.h"
#include "route/score.h"

namespace mfa::route {
namespace {

using fpga::DeviceGrid;
using netlist::Design;

DeviceGrid test_device() { return DeviceGrid::make_xcvu3p_like(60, 40); }

Design tiny_design(const DeviceGrid& device, double scale = 0.25) {
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util *= scale;
  spec.ff_util *= scale;
  spec.dsp_util *= scale;
  spec.bram_util *= scale;
  spec.uram_util *= scale;
  return netlist::DesignGenerator::generate(spec, device);
}

/// Spreads cells uniformly at random (a crude but legal placement).
void random_positions(const Design& design, const DeviceGrid& device,
                      Rng& rng, std::vector<double>& cx,
                      std::vector<double>& cy) {
  cx.resize(static_cast<size_t>(design.num_cells()));
  cy.resize(static_cast<size_t>(design.num_cells()));
  for (auto& v : cx) v = rng.uniform(0.0, static_cast<double>(device.cols()));
  for (auto& v : cy) v = rng.uniform(0.0, static_cast<double>(device.rows()));
}

/// Clumps `random_positions` into a corner so negotiation reaches the maze
/// rounds (as the hopeless-placement tests below do, less tightly).
void clumped_positions(const Design& design, const DeviceGrid& device,
                       std::vector<double>& cx, std::vector<double>& cy) {
  Rng rng(3);
  random_positions(design, device, rng, cx, cy);
  for (auto& v : cx) v = 5.0 + 0.5 * v;
  for (auto& v : cy) v = 5.0 + 0.5 * v;
}

/// The eight raw demand fields (class-major, then direction, then tiles in
/// row-major order), copied out as doubles.
std::vector<double> demand_fields(const CongestionGrid& grid) {
  std::vector<double> out;
  for (size_t w = 0; w < fpga::kNumWireClasses; ++w)
    for (size_t d = 0; d < fpga::kNumDirections; ++d)
      for (std::int64_t gy = 0; gy < grid.height(); ++gy)
        for (std::int64_t gx = 0; gx < grid.width(); ++gx)
          out.push_back(grid.demand(static_cast<WireClass>(w),
                                    static_cast<Direction>(d), gx, gy));
  return out;
}

// FNV-1a over the demand fields' bits and an iteration count.
std::uint64_t demand_hash(const CongestionGrid& grid, std::int64_t iterations) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  const auto fields = demand_fields(grid);
  mix(fields.data(), fields.size() * sizeof(double));
  mix(&iterations, sizeof(iterations));
  return h;
}

TEST(CongestionGrid, DemandAccumulates) {
  const fpga::InterconnectTileGrid tiles(8, 8, 60, 40, 10, 5);
  CongestionGrid grid(tiles);
  grid.add_demand(WireClass::Short, Direction::East, 2, 3, 4.0);
  grid.add_demand(WireClass::Short, Direction::East, 2, 3, 1.0);
  EXPECT_DOUBLE_EQ(grid.demand(WireClass::Short, Direction::East, 2, 3), 5.0);
  EXPECT_DOUBLE_EQ(grid.utilisation(WireClass::Short, Direction::East, 2, 3),
                   0.5);
  EXPECT_DOUBLE_EQ(grid.demand(WireClass::Global, Direction::East, 2, 3), 0.0);
  EXPECT_EQ(grid.overused_count(), 0);
  grid.add_demand(WireClass::Global, Direction::North, 1, 1, 6.0);
  EXPECT_EQ(grid.overused_count(), 1);
  grid.clear();
  EXPECT_DOUBLE_EQ(grid.max_utilisation(2, 3), 0.0);
}

TEST(CongestionLevels, CleanGridHasLevelZero) {
  const fpga::InterconnectTileGrid tiles(16, 16, 60, 40);
  const CongestionGrid grid(tiles);
  const auto analysis = analyze_congestion(grid);
  for (const auto v : analysis.label) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(analysis.design_level(WireClass::Short, Direction::East), 0);
}

TEST(CongestionLevels, SingleHotTileIsLevelOne) {
  const fpga::InterconnectTileGrid tiles(16, 16, 60, 40, 10, 5);
  CongestionGrid grid(tiles);
  grid.add_demand(WireClass::Short, Direction::East, 5, 5, 10.0);  // util 1.0
  const auto analysis = analyze_congestion(grid);
  EXPECT_EQ(analysis.label[5 * 16 + 5], 1.0f);
  EXPECT_EQ(analysis.label[5 * 16 + 6], 0.0f);
  EXPECT_EQ(analysis.design_level(WireClass::Short, Direction::East), 1);
}

TEST(CongestionLevels, SaturatedRegionRaisesLevel) {
  const fpga::InterconnectTileGrid tiles(16, 16, 60, 40, 10, 5);
  CongestionGrid grid(tiles);
  // Saturate an aligned 4x4 block -> level 3 (window 2^2).
  for (std::int64_t y = 4; y < 8; ++y)
    for (std::int64_t x = 4; x < 8; ++x)
      grid.add_demand(WireClass::Short, Direction::East, x, y, 10.0);
  const auto analysis = analyze_congestion(grid);
  EXPECT_EQ(analysis.label[5 * 16 + 5], 3.0f);
  EXPECT_EQ(analysis.design_level(WireClass::Short, Direction::East), 3);
}

TEST(CongestionLevels, LevelMonotoneInDemand) {
  const fpga::InterconnectTileGrid tiles(16, 16, 60, 40, 10, 5);
  auto level_for = [&](double demand) {
    CongestionGrid grid(tiles);
    for (std::int64_t y = 0; y < 8; ++y)
      for (std::int64_t x = 0; x < 8; ++x)
        grid.add_demand(WireClass::Short, Direction::East, x, y, demand);
    return analyze_congestion(grid).design_level(WireClass::Short,
                                                 Direction::East);
  };
  EXPECT_LE(level_for(4.0), level_for(9.5));
  EXPECT_LE(level_for(9.5), level_for(20.0));
}

TEST(Router, RoutesAllConnections) {
  const auto device = test_device();
  const auto design = tiny_design(device);
  GlobalRouter router(design, device);
  Rng rng(1);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  router.initial_route(cx, cy);
  EXPECT_GT(router.num_connections(), 0);
  EXPECT_GT(router.routed_wirelength(), 0.0);
}

TEST(Router, DemandConservation) {
  // Total injected demand equals total manhattan length of connections.
  const auto device = test_device();
  const auto design = tiny_design(device, 0.1);
  GlobalRouter router(design, device);
  Rng rng(2);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  router.initial_route(cx, cy);
  const auto& grid = router.congestion();
  double total_demand = 0.0;
  for (size_t w = 0; w < fpga::kNumWireClasses; ++w)
    for (size_t d = 0; d < fpga::kNumDirections; ++d)
      for (std::int64_t gy = 0; gy < grid.height(); ++gy)
        for (std::int64_t gx = 0; gx < grid.width(); ++gx)
          total_demand += grid.demand(static_cast<WireClass>(w),
                                      static_cast<Direction>(d), gx, gy);
  EXPECT_NEAR(total_demand, router.routed_wirelength(), 1e-6);
}

TEST(Router, DetailedRouteReducesOveruse) {
  // Moderately congested placement: negotiation should resolve most of the
  // overuse. (On hopeless placements PathFinder detours legitimately spread
  // overuse across more tiles, so this invariant only holds when the demand
  // is actually routable.)
  const auto device = test_device();
  const auto design = tiny_design(device, 1.0);
  GlobalRouter router(design, device);
  place::PlacementProblem problem(design, device);
  place::PlacerOptions popt;
  popt.seed = 3;
  place::GlobalPlacer placer(problem, popt);
  placer.init_random();
  placer.iterate(100);
  std::vector<double> cx, cy;
  placer.placement().expand(problem, cx, cy);
  router.initial_route(cx, cy);
  const auto before = router.congestion().overused_count();
  const auto iterations = router.detailed_route();
  const auto after = router.congestion().overused_count();
  EXPECT_GT(before, 0);
  EXPECT_GE(iterations, 1);
  EXPECT_LT(after, before);
}

TEST(Router, DetailedRouteReportsCapOnHopelessPlacement) {
  // Everything compressed into a sliver: unroutable; the router must give up
  // with the iteration cap rather than loop forever.
  const auto device = test_device();
  const auto design = tiny_design(device, 0.6);
  RouterOptions options;
  options.max_detailed_iterations = 8;
  GlobalRouter router(design, device, options);
  Rng rng(3);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  for (auto& v : cx) v = 5.0 + 0.15 * v;
  for (auto& v : cy) v = 5.0 + 0.15 * v;
  router.initial_route(cx, cy);
  EXPECT_EQ(router.detailed_route(), 8);
}

TEST(Router, CleanPlacementNeedsNoDetailedIterations) {
  const auto device = test_device();
  const auto design = tiny_design(device, 0.05);
  GlobalRouter router(design, device);
  Rng rng(1);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  router.initial_route(cx, cy);
  ASSERT_EQ(router.congestion().overused_count(), 0)
      << "the spread placement is meant to route clean without negotiation";
  EXPECT_EQ(router.detailed_route(), 0);
}

TEST(Router, WallClockBudgetStopsNegotiationEarly) {
  // Same hopeless clumped placement as above, but with a tiny wall-clock
  // budget: the router must hand back its best partial routing instead of
  // burning all 8 negotiation rounds.
  const auto device = test_device();
  const auto design = tiny_design(device, 0.6);
  RouterOptions options;
  options.max_detailed_iterations = 8;
  options.time_budget_seconds = 1e-9;
  GlobalRouter router(design, device, options);
  Rng rng(3);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  for (auto& v : cx) v = 5.0 + 0.15 * v;
  for (auto& v : cy) v = 5.0 + 0.15 * v;
  router.initial_route(cx, cy);
  ASSERT_GT(router.congestion().overused_count(), 0);
  const auto iterations = router.detailed_route();
  EXPECT_LT(iterations, 8);
  EXPECT_TRUE(router.budget_exhausted());
  // Every connection is still routed: only further negotiation was skipped.
  EXPECT_GT(router.num_connections(), 0);
  EXPECT_GT(router.routed_wirelength(), 0.0);
}

TEST(Router, NoBudgetNeverReportsExhaustion) {
  const auto device = test_device();
  const auto design = tiny_design(device, 0.25);
  GlobalRouter router(design, device);  // time_budget_seconds = 0: unlimited
  Rng rng(4);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  router.initial_route(cx, cy);
  router.detailed_route();
  EXPECT_FALSE(router.budget_exhausted());
}

TEST(Router, BudgetFaultStopsNegotiationDeterministically) {
  if (!common::FaultInjector::compiled_in())
    GTEST_SKIP() << "fault injection compiled out (Release build)";
  auto& fi = common::FaultInjector::instance();
  fi.reset();
  const auto device = test_device();
  const auto design = tiny_design(device, 0.6);
  GlobalRouter router(design, device);
  Rng rng(3);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);
  for (auto& v : cx) v = 5.0 + 0.15 * v;
  for (auto& v : cy) v = 5.0 + 0.15 * v;
  router.initial_route(cx, cy);
  ASSERT_GT(router.congestion().overused_count(), 0);
  fi.arm_always("route.budget");
  EXPECT_EQ(router.detailed_route(), 0);
  EXPECT_TRUE(router.budget_exhausted());
  fi.reset();
  // A fresh initial_route clears the flag for the next attempt.
  router.initial_route(cx, cy);
  EXPECT_FALSE(router.budget_exhausted());
}

// The router's output must not change a bit: pins the demand grid after
// initial_route, and after detailed_route together with its iteration
// count, on a clumped placement whose negotiation reaches the A* maze
// rounds. The constants were captured from the router before its edge costs
// were cached and its search heap became indexed.
TEST(Router, BitIdenticalToPinnedHash) {
  const auto device = test_device();
  const auto design = tiny_design(device, 0.1);
  RouterOptions options;
  options.max_detailed_iterations = 6;
  GlobalRouter router(design, device, options);
  std::vector<double> cx, cy;
  clumped_positions(design, device, cx, cy);
  router.initial_route(cx, cy);
  EXPECT_EQ(demand_hash(router.congestion(), 0), 0x84c832c0724473bdULL)
      << "initial_route: hash 0x" << std::hex
      << demand_hash(router.congestion(), 0);
  const obs::Counter maze = obs::counter("router.maze_reroutes");
  const auto maze_before = maze.value();
  const auto iterations = router.detailed_route();
  if (obs::enabled()) {
    EXPECT_GT(maze.value(), maze_before);
  }
  EXPECT_EQ(iterations, 6);
  EXPECT_EQ(demand_hash(router.congestion(), iterations),
            0xa7f8ee6f861d77e2ULL)
      << "detailed_route: " << iterations << " iterations, hash 0x"
      << std::hex << demand_hash(router.congestion(), iterations);
}

// initial_route resets all previous state, the negotiation pressure a
// previous detailed_route escalated included: a reused router must route
// exactly as a fresh one does.
TEST(Router, ReusedRouterMatchesFreshRouter) {
  const auto device = test_device();
  const auto design = tiny_design(device, 0.1);
  RouterOptions options;
  options.max_detailed_iterations = 6;
  std::vector<double> cx, cy;
  clumped_positions(design, device, cx, cy);
  GlobalRouter reused(design, device, options);
  reused.initial_route(cx, cy);
  reused.detailed_route();
  reused.initial_route(cx, cy);
  GlobalRouter fresh(design, device, options);
  fresh.initial_route(cx, cy);
  const auto same_demand = [&] {
    const auto a = demand_fields(reused.congestion());
    const auto b = demand_fields(fresh.congestion());
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_demand()) << "after initial_route";
  EXPECT_EQ(reused.detailed_route(), fresh.detailed_route());
  EXPECT_TRUE(same_demand()) << "after detailed_route";
}

TEST(Router, PeakUtilisationHigherWhenClumped) {
  // Compressing the same placement into a quarter of the device raises the
  // local routing-demand density: expected connection length shrinks
  // linearly with the region size while the area shrinks quadratically.
  const auto device = test_device();
  const auto design = tiny_design(device, 0.05);
  Rng rng(5);
  std::vector<double> cx, cy;
  random_positions(design, device, rng, cx, cy);

  const auto peak_util = [&](const std::vector<double>& xs,
                             const std::vector<double>& ys) {
    GlobalRouter router(design, device);
    router.initial_route(xs, ys);
    const auto& grid = router.congestion();
    double peak = 0.0;
    for (std::int64_t gy = 0; gy < grid.height(); ++gy)
      for (std::int64_t gx = 0; gx < grid.width(); ++gx)
        peak = std::max(peak, grid.max_utilisation(gx, gy));
    return peak;
  };

  const double spread_peak = peak_util(cx, cy);
  auto cx2 = cx;
  auto cy2 = cy;
  for (auto& v : cx2) v = 10.0 + 0.5 * v;
  for (auto& v : cy2) v = 8.0 + 0.5 * v;
  const double clump_peak = peak_util(cx2, cy2);
  EXPECT_GT(clump_peak, spread_peak);
}

TEST(Score, SIrIsOneWhenAllLevelsBelowFour) {
  CongestionAnalysis analysis;
  for (auto& per_class : analysis.levels)
    for (auto& lm : per_class) lm.design_level = 3;
  EXPECT_DOUBLE_EQ(score::s_ir(analysis), 1.0);
}

TEST(Score, SIrQuadraticPenalty) {
  CongestionAnalysis analysis;
  for (auto& per_class : analysis.levels)
    for (auto& lm : per_class) lm.design_level = 0;
  // One direction at level 5 (short): penalty (5-3)^2 = 4.
  analysis.levels[static_cast<size_t>(WireClass::Short)]
                 [static_cast<size_t>(Direction::East)]
                     .design_level = 5;
  EXPECT_DOUBLE_EQ(score::s_ir(analysis), 5.0);
}

TEST(Score, SDrFloorsAtFiveAndCompresses) {
  EXPECT_DOUBLE_EQ(score::s_dr(0), 5.0);
  EXPECT_DOUBLE_EQ(score::s_dr(7), 8.0);   // 5 + ceil(7/2.5)
  EXPECT_DOUBLE_EQ(score::s_dr(24), 15.0);  // worst case lands at 15
}

TEST(Score, SScoreComposition) {
  // T_macro below 10 minutes leaves the multiplier at 1 (paper §V-C).
  EXPECT_DOUBLE_EQ(score::s_score(5.0, 40.0, 0.5), 20.0);
  // Above 10 minutes the factor kicks in.
  EXPECT_DOUBLE_EQ(score::s_score(12.0, 40.0, 0.5), 3.0 * 20.0);
}

TEST(Score, TPrGrowsWithCongestion) {
  EXPECT_LT(score::t_pr_hours(1.0, 5.0, 1000.0, 100),
            score::t_pr_hours(9.0, 15.0, 1000.0, 100));
}

// Property sweep: S_IR penalties only start above level 3.
class SirLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(SirLevelSweep, PenaltyOnlyAboveThree) {
  const int level = GetParam();
  CongestionAnalysis analysis;
  for (auto& per_class : analysis.levels)
    for (auto& lm : per_class) lm.design_level = 0;
  analysis.levels[0][0].design_level = level;
  const double expected =
      1.0 + std::pow(std::max(0, level - 3), 2.0);
  EXPECT_DOUBLE_EQ(score::s_ir(analysis), expected);
}

INSTANTIATE_TEST_SUITE_P(Levels, SirLevelSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mfa::route
