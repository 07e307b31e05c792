// Global router over the interconnect tile grid.
//
// Stands in for the Vivado initial + detailed router of the contest flow
// (see DESIGN.md, substitutions). Nets are decomposed into two-pin
// connections by a per-net minimum spanning tree; each connection is routed
// with the cheapest of four pattern candidates (L-shapes and Z-shapes) under
// a congestion-aware cost. The detailed phase is PathFinder-style negotiated
// rip-up-and-reroute whose iteration count is the S_DR proxy: more residual
// congestion after placement means more iterations, exactly the signal
// Eq. 2 extracts from Vivado.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fpga/device.h"
#include "netlist/design.h"
#include "route/congestion.h"

namespace mfa::route {

struct RouterOptions {
  std::int64_t grid_width = 64;
  std::int64_t grid_height = 64;
  // Capacities calibrated so a converged global placement of the full-scale
  // MLCAD suite sits just below the congestion threshold at its 90th demand
  // percentile: hotspots and under-spread placements cross it, the
  // background does not (see DESIGN.md scale note).
  std::int64_t short_capacity = 24;
  std::int64_t global_capacity = 20;
  /// Connections longer than this many tiles (Manhattan) use global wires.
  std::int64_t global_wire_threshold = 8;
  /// Cost multiplier for routing through over-capacity tiles.
  double overflow_penalty = 8.0;
  /// History cost added per negotiation round to overused resources.
  double history_increment = 1.0;
  std::int64_t max_detailed_iterations = 24;
  /// Wall-clock budget for detailed_route() (0 = unlimited). When it runs
  /// out, negotiation stops early: the grid keeps the best routing found so
  /// far and budget_exhausted() reports true.
  double time_budget_seconds = 0.0;
  AnalysisOptions analysis;
};

/// Router options with capacities scaled to the tile size: wider tiles carry
/// proportionally more wires. Calibrated against the default experiment
/// point (60-column device, 64-tile grid -> short 24 / global 20).
RouterOptions calibrated_router_options(const fpga::DeviceGrid& device,
                                        std::int64_t grid_width,
                                        std::int64_t grid_height);

class GlobalRouter {
 public:
  GlobalRouter(const netlist::Design& design, const fpga::DeviceGrid& device,
               RouterOptions options = {});
  ~GlobalRouter();
  GlobalRouter(const GlobalRouter&) = delete;
  GlobalRouter& operator=(const GlobalRouter&) = delete;

  /// Builds two-pin connections from cell coordinates and routes each one
  /// congestion-aware (the "initial router"). Resets previous state: demand,
  /// history and the negotiation pressure, so a reused router routes exactly
  /// as a fresh one.
  void initial_route(const std::vector<double>& cell_x,
                     const std::vector<double>& cell_y);

  /// Negotiated rip-up-and-reroute until no resource is over capacity or the
  /// iteration cap is hit. Returns the number of iterations used (>= 1 when
  /// any work was needed, 0 when the initial route was already clean).
  std::int64_t detailed_route();

  const CongestionGrid& congestion() const;
  CongestionAnalysis analyze() const;

  /// Total Manhattan length of all routed connections, in tiles.
  double routed_wirelength() const;
  std::int64_t num_connections() const;

  /// True when the last detailed_route() stopped on its wall-clock budget
  /// rather than convergence; the congestion grid holds the partial result.
  bool budget_exhausted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mfa::route
