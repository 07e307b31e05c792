// Analytical global placer (DREAMPlaceFPGA-style flow at library scale,
// paper §IV / Fig. 6).
//
// Minimises net wirelength under per-resource bin-density constraints with a
// region-tension term for region-constrained instances, alternating two
// phases in the style of SimPL / lookahead legalisation:
//   * wirelength descent: each object is pulled toward the weighted centroid
//     of each incident net (star model of HPWL), with a Poisson-potential
//     density force (ePlace-style) as gentle spreading pressure and a region
//     tension force for region-constrained objects (the "region tension
//     function" of §IV);
//   * lookahead spreading: over-capacity bins evict excess area to the
//     nearest bins with free capacity (LUT/FF), and macro objects are
//     re-distributed in the column domain of their site type — which also
//     keeps every macro x-aligned with a legal column, as cascades require.
// The loop runs until the Fig. 6 overflow gate is met
// (Overflow < 0.25 for DSP/BRAM/URAM, < 0.15 for LUT/FF).
//
// The wirelength force is a gather: per-net star centroids first, then one
// pass over the objects that sums each object's pulls, density force and
// region tension and moves it. DESIGN.md, "Global placer", states the
// ordering rules that keep the placement bit-identical to the scatter form.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "place/problem.h"

namespace mfa::place {

struct PlacerOptions {
  std::int64_t bins_x = 32;
  std::int64_t bins_y = 32;
  std::int64_t max_iterations = 400;
  double step = 0.8;             // base move step, in sites
  double density_weight = 0.4;   // initial density-force weight
  double density_growth = 1.01;  // per-iteration annealing factor
  double region_weight = 3.0;    // region tension weight
  double noise = 0.02;           // per-iteration jitter (sample diversity)
  /// Lookahead-spreading cadence (iterations between spreading passes).
  std::int64_t spread_interval = 4;
  /// Fig. 6 overflow thresholds.
  double macro_overflow_target = 0.25;
  double cell_overflow_target = 0.15;
  std::uint64_t seed = 1;
  /// Wall-clock budget across all iterate() calls (0 = unlimited). When it
  /// runs out mid-call, iterate() finishes a final spreading pass, returns
  /// the iterations actually run, and budget_exhausted() reports true — the
  /// placement so far is the best partial result.
  double time_budget_seconds = 0.0;
};

class GlobalPlacer {
 public:
  GlobalPlacer(PlacementProblem& problem, PlacerOptions options);

  /// Spreads objects randomly across columns compatible with their resource
  /// (region-constrained objects start inside their region).
  void init_random();

  /// Runs `n` gradient iterations; returns the iteration count actually run.
  std::int64_t iterate(std::int64_t n);

  /// Runs iterations until the Fig. 6 overflow gate passes or the iteration
  /// budget is exhausted. Returns true if the gate was met.
  bool run_until_overflow_target();

  /// Current overflow per resource: sum over bins of max(0, usage - capacity)
  /// normalised by total usage of that resource (0 when nothing overflows).
  std::array<double, fpga::kNumResources> overflow() const;

  /// Total star-model wirelength (for monitoring/tests).
  double wirelength() const;

  /// True when every resource meets its Fig. 6 threshold.
  bool overflow_target_met() const;

  Placement& placement() { return placement_; }
  const Placement& placement() const { return placement_; }
  const PlacerOptions& options() const { return options_; }
  /// Total iterations executed so far across all iterate() calls.
  std::int64_t total_iterations() const { return global_iter_; }
  /// True once the wall-clock budget was exhausted (sticky; the placement is
  /// the best partial result at that point).
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  /// Star-model pull of one net: pins move toward (cx, cy) with weight w.
  struct NetStar {
    double cx, cy, w;
  };

  void compute_density_maps() const;
  void solve_potentials();
  void clamp_object(std::int64_t oi);
  /// Sums object oi's forces (wirelength gather over its pins, density,
  /// region tension) and moves it by the clamped step plus two normal()
  /// draws of noise scaled by noise_sigma.
  void step_object(std::int64_t oi, double noise_sigma);
  /// Lookahead spreading: bin eviction for LUT/FF, column-domain
  /// redistribution (and x-snap) for macro resources.
  void spread_cells();
  void spread_macros();

  PlacementProblem* problem_;
  PlacerOptions options_;
  Placement placement_;
  Rng rng_;
  double density_weight_;
  double noise_scale_ = 1.0;  // decays once the overflow gate is met
  std::int64_t global_iter_ = 0;
  double budget_spent_seconds_ = 0.0;  // accumulated across iterate() calls
  bool budget_exhausted_ = false;
  // Per-resource bin maps. `usage_` is a cache of the density map for the
  // CURRENT placement_: it is recomputed from scratch by
  // compute_density_maps() and never carries information across calls, so
  // const accessors (overflow()) may refresh it without observable state
  // change — hence mutable.
  mutable std::array<std::vector<double>, fpga::kNumResources> usage_;
  std::array<std::vector<double>, fpga::kNumResources> capacity_;
  // Poisson potential per resource (warm-started across iterations), the
  // Jacobi sweep's second buffer and its fixed right-hand side.
  std::array<std::vector<double>, fpga::kNumResources> potential_;
  std::array<std::vector<double>, fpga::kNumResources> potential_next_;
  std::array<std::vector<double>, fpga::kNumResources> charge_;
  double bw_ = 1.0, bh_ = 1.0;  // bin extents in sites

  // Object -> pin CSR over problem_->net_pins, built once: object oi's pins
  // are [pin_start_[oi], pin_start_[oi + 1]) of pin_net_ / pin_dy_, in
  // ascending net id and pin order within a net.
  std::vector<std::int64_t> pin_start_;
  std::vector<std::int32_t> pin_net_;
  std::vector<double> pin_dy_;
  // Per-iteration scratch: each net's star.
  std::vector<NetStar> stars_;
  // spread_cells scratch: each object's bin (or -1), the counting-sorted
  // bin buckets and the evicted objects.
  std::vector<std::int64_t> obj_bin_;
  std::vector<std::int64_t> bin_start_;
  std::vector<std::int64_t> bin_members_;
  std::vector<double> bin_usage_;
  std::vector<std::int64_t> homeless_;
  // The re-home search order: (dx, dy) offsets from the source bin by
  // growing Manhattan radius; radius d's entries end at rehome_radius_end_[d].
  std::vector<std::array<std::int32_t, 2>> rehome_offsets_;
  std::vector<std::size_t> rehome_radius_end_;
  // Per region slot (0 = unconstrained, region + 1 otherwise): the bounding
  // box of admissible bins, and the resume cursor into rehome_offsets_ with
  // the source bin it belongs to.
  struct BinBox {
    std::int64_t x_lo, x_hi, y_lo, y_hi;
  };
  std::vector<BinBox> rehome_box_;
  std::vector<std::int64_t> resume_bin_;
  std::vector<std::size_t> resume_at_;
};

}  // namespace mfa::place
