#include "place/placer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace mfa::place {

using fpga::Resource;

GlobalPlacer::GlobalPlacer(PlacementProblem& problem, PlacerOptions options)
    : problem_(&problem),
      options_(options),
      rng_(options.seed),
      density_weight_(options.density_weight) {
  MFA_CHECK(options_.bins_x > 0 && options_.bins_y > 0)
      << " placer bin grid must be non-empty, got " << options_.bins_x << "x"
      << options_.bins_y;
  MFA_CHECK_GT(options_.spread_interval, 0)
      << " placer spread_interval must be positive";
  // Every net pin must reference a valid object; validated once here so the
  // hot force loops can index placement_ unchecked.
  const auto nobj = static_cast<std::int64_t>(problem.objects.size());
  for (const auto& pins : problem.net_pins)
    for (const auto& p : pins)
      MFA_CHECK_BOUNDS(p.obj, nobj) << " net pin object index";
  // Object -> pin CSR: a counting sort of the flat pin list by object,
  // stable in (net, pin) order.
  pin_start_.assign(static_cast<size_t>(nobj) + 1, 0);
  for (const auto& pins : problem.net_pins)
    for (const auto& p : pins) ++pin_start_[static_cast<size_t>(p.obj) + 1];
  for (size_t oi = 0; oi < static_cast<size_t>(nobj); ++oi)
    pin_start_[oi + 1] += pin_start_[oi];
  pin_net_.resize(static_cast<size_t>(pin_start_.back()));
  pin_dy_.resize(pin_net_.size());
  std::vector<std::int64_t> next_pin(pin_start_.begin(), pin_start_.end() - 1);
  for (size_t ni = 0; ni < problem.net_pins.size(); ++ni)
    for (const auto& p : problem.net_pins[ni]) {
      const auto k =
          static_cast<size_t>(next_pin[static_cast<size_t>(p.obj)]++);
      pin_net_[k] = static_cast<std::int32_t>(ni);
      pin_dy_[k] = p.dy;
    }
  stars_.resize(problem.net_pins.size());
  obj_bin_.resize(static_cast<size_t>(nobj));
  const auto& device = problem.device();
  bw_ = static_cast<double>(device.cols()) /
        static_cast<double>(options_.bins_x);
  bh_ = static_cast<double>(device.rows()) /
        static_cast<double>(options_.bins_y);
  // Re-home search order: diamonds of growing radius around the source
  // bin, dx ascending, the lower dy before the upper.
  for (std::int64_t radius = 0; radius < options_.bins_x + options_.bins_y;
       ++radius) {
    for (std::int64_t dx = -radius; dx <= radius; ++dx) {
      const auto dy = radius - std::abs(dx);
      rehome_offsets_.push_back({static_cast<std::int32_t>(dx),
                                 static_cast<std::int32_t>(-dy)});
      if (dy != 0)
        rehome_offsets_.push_back({static_cast<std::int32_t>(dx),
                                   static_cast<std::int32_t>(dy)});
    }
    rehome_radius_end_.push_back(rehome_offsets_.size());
  }
  // Bounding box of the bins a re-homed object may land in: the whole grid,
  // or for a region (slot region + 1) the bins whose centre lies inside it.
  const auto& regions = problem.design().regions;
  rehome_box_.assign(regions.size() + 1,
                     {options_.bins_x, -1, options_.bins_y, -1});
  rehome_box_[0] = {0, options_.bins_x - 1, 0, options_.bins_y - 1};
  for (size_t ri = 0; ri < regions.size(); ++ri)
    for (std::int64_t y = 0; y < options_.bins_y; ++y)
      for (std::int64_t x = 0; x < options_.bins_x; ++x) {
        if (!regions[ri].contains((static_cast<double>(x) + 0.5) * bw_,
                                  (static_cast<double>(y) + 0.5) * bh_))
          continue;
        auto& box = rehome_box_[ri + 1];
        box.x_lo = std::min(box.x_lo, x);
        box.x_hi = std::max(box.x_hi, x);
        box.y_lo = std::min(box.y_lo, y);
        box.y_hi = std::max(box.y_hi, y);
      }
  resume_bin_.resize(rehome_box_.size());
  resume_at_.resize(rehome_box_.size());
  const auto nbins = static_cast<size_t>(options_.bins_x * options_.bins_y);
  for (size_t r = 0; r < fpga::kNumResources; ++r) {
    capacity_[r].assign(nbins, 0.0);
    usage_[r].assign(nbins, 0.0);
    potential_[r].assign(nbins, 0.0);
    potential_next_[r].assign(nbins, 0.0);
    charge_[r].assign(nbins, 0.0);
  }
  bin_start_.resize(nbins + 1);
  bin_usage_.resize(nbins);
  // Per-resource capacity maps from the columnar site pattern.
  for (std::int64_t col = 0; col < device.cols(); ++col) {
    const auto st = device.column_type(col);
    const auto bx = std::min<std::int64_t>(
        options_.bins_x - 1,
        static_cast<std::int64_t>((static_cast<double>(col) + 0.5) / bw_));
    for (std::int64_t row = 0; row < device.rows(); ++row) {
      const auto by = std::min<std::int64_t>(
          options_.bins_y - 1,
          static_cast<std::int64_t>((static_cast<double>(row) + 0.5) / bh_));
      for (size_t r = 0; r < fpga::kNumResources; ++r)
        capacity_[r][static_cast<size_t>(by * options_.bins_x + bx)] +=
            static_cast<double>(
                fpga::site_capacity(st, static_cast<Resource>(r)));
    }
  }
  placement_.x.assign(problem.objects.size(), 0.0);
  placement_.y.assign(problem.objects.size(), 0.0);
}

void GlobalPlacer::init_random() {
  const auto& device = problem_->device();
  for (size_t oi = 0; oi < problem_->objects.size(); ++oi) {
    const auto& obj = problem_->objects[oi];
    if (obj.region >= 0) {
      const auto& region =
          problem_->design().regions[static_cast<size_t>(obj.region)];
      placement_.x[oi] = rng_.uniform(static_cast<double>(region.col_lo) + 0.5,
                                      static_cast<double>(region.col_hi) + 0.5);
      placement_.y[oi] = rng_.uniform(static_cast<double>(region.row_lo) + 0.5,
                                      static_cast<double>(region.row_hi) + 0.5);
    } else {
      // Start in a random column of the right type so macro columns are used.
      const auto& cols =
          device.columns_of(fpga::site_for_resource(obj.resource));
      const auto col = cols[static_cast<size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(cols.size()) - 1))];
      placement_.x[oi] = static_cast<double>(col) + rng_.uniform(0.0, 1.0);
      placement_.y[oi] =
          rng_.uniform(0.5, static_cast<double>(device.rows()) - obj.height);
    }
    clamp_object(static_cast<std::int64_t>(oi));
  }
}

void GlobalPlacer::clamp_object(std::int64_t oi) {
  const auto& device = problem_->device();
  const auto& obj = problem_->objects[static_cast<size_t>(oi)];
  placement_.x[static_cast<size_t>(oi)] =
      std::clamp(placement_.x[static_cast<size_t>(oi)], 0.25,
                 static_cast<double>(device.cols()) - 0.25);
  placement_.y[static_cast<size_t>(oi)] =
      std::clamp(placement_.y[static_cast<size_t>(oi)], 0.25,
                 static_cast<double>(device.rows()) - obj.height + 0.75);
}

void GlobalPlacer::compute_density_maps() const {
  for (size_t r = 0; r < fpga::kNumResources; ++r)
    std::fill(usage_[r].begin(), usage_[r].end(), 0.0);
  for (size_t oi = 0; oi < problem_->objects.size(); ++oi) {
    const auto& obj = problem_->objects[oi];
    // Smear cascade area across its vertical extent.
    const std::int64_t slices =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(obj.height));
    const double slice_area = obj.area / static_cast<double>(slices);
    for (std::int64_t s = 0; s < slices; ++s) {
      const double y = placement_.y[oi] + static_cast<double>(s);
      const auto bx = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(placement_.x[oi] / bw_), 0,
          options_.bins_x - 1);
      const auto by = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(y / bh_), 0, options_.bins_y - 1);
      usage_[static_cast<size_t>(obj.resource)]
            [static_cast<size_t>(by * options_.bins_x + bx)] += slice_area;
    }
  }
}

void GlobalPlacer::solve_potentials() {
  // For each resource, solve  laplacian(phi) = -(usage - fill * capacity)
  // with a few Jacobi sweeps, warm-started from the previous iteration's
  // solution. The resulting -grad(phi) is a long-range spreading force that
  // pushes mass from over-filled toward under-filled capacity.
  const auto bx = options_.bins_x;
  const auto by = options_.bins_y;
  const auto nbins = static_cast<size_t>(bx * by);
  for (size_t r = 0; r < fpga::kNumResources; ++r) {
    double total_usage = 0.0, total_cap = 0.0;
    for (size_t b = 0; b < nbins; ++b) {
      total_usage += usage_[r][b];
      total_cap += capacity_[r][b];
    }
    if (total_usage <= 0.0 || total_cap <= 0.0) continue;
    const double fill = total_usage / total_cap;
    // Normalise charge by average bin usage so force scales are comparable
    // across resources of very different magnitudes.
    const double norm =
        static_cast<double>(nbins) / std::max(1e-12, total_usage);
    auto& charge = charge_[r];
    for (size_t b = 0; b < nbins; ++b)
      charge[b] = (usage_[r][b] - fill * capacity_[r][b]) * norm;
    auto& phi = potential_[r];
    auto& next = potential_next_[r];
    for (std::int64_t sweep = 0; sweep < 30; ++sweep) {
      for (std::int64_t y = 0; y < by; ++y) {
        const double* row = phi.data() + y * bx;
        const double* n = phi.data() + std::min(by - 1, y + 1) * bx;
        const double* s = phi.data() + std::max<std::int64_t>(0, y - 1) * bx;
        const double* q = charge.data() + y * bx;
        double* out = next.data() + y * bx;
        for (std::int64_t x = 0; x < bx; ++x) {
          const double e = row[std::min(bx - 1, x + 1)];
          const double w = row[std::max<std::int64_t>(0, x - 1)];
          out[x] = 0.25 * (n[x] + s[x] + e + w + q[x]);
        }
      }
      std::swap(phi, next);
    }
  }
}

void GlobalPlacer::step_object(std::int64_t oi, double noise_sigma) {
  const auto o = static_cast<size_t>(oi);
  const auto& obj = problem_->objects[o];
  const double x = placement_.x[o];
  const double y = placement_.y[o];
  double fx = 0.0, fy = 0.0;

  // ---- wirelength force (star model), gathered in ascending net id ----
  for (auto k = static_cast<size_t>(pin_start_[o]);
       k < static_cast<size_t>(pin_start_[o + 1]); ++k) {
    const auto& star = stars_[static_cast<size_t>(pin_net_[k])];
    fx += star.w * (star.cx - x);
    fy += star.w * (star.cy - y - pin_dy_[k]);
  }

  // ---- electrostatic density force ----
  const auto& phi = potential_[static_cast<size_t>(obj.resource)];
  const auto bxi = std::clamp<std::int64_t>(static_cast<std::int64_t>(x / bw_),
                                            0, options_.bins_x - 1);
  const auto byi = std::clamp<std::int64_t>(static_cast<std::int64_t>(y / bh_),
                                            0, options_.bins_y - 1);
  const auto at = [&](std::int64_t bx, std::int64_t by) {
    bx = std::clamp<std::int64_t>(bx, 0, options_.bins_x - 1);
    by = std::clamp<std::int64_t>(by, 0, options_.bins_y - 1);
    return phi[static_cast<size_t>(by * options_.bins_x + bx)];
  };
  const double gx = 0.5 * (at(bxi + 1, byi) - at(bxi - 1, byi));
  const double gy = 0.5 * (at(bxi, byi + 1) - at(bxi, byi - 1));
  fx -= density_weight_ * gx;
  fy -= density_weight_ * gy;

  // ---- region tension ----
  if (obj.region >= 0) {
    const auto& region =
        problem_->design().regions[static_cast<size_t>(obj.region)];
    const double tx = std::clamp(x, static_cast<double>(region.col_lo) + 0.25,
                                 static_cast<double>(region.col_hi) + 0.75);
    const double ty = std::clamp(y, static_cast<double>(region.row_lo) + 0.25,
                                 static_cast<double>(region.row_hi) + 0.75);
    fx += options_.region_weight * (tx - x);
    fy += options_.region_weight * (ty - y);
  }

  // ---- update ----
  const double nx = noise_sigma * rng_.normal();
  const double ny = noise_sigma * rng_.normal();
  // Limit per-iteration displacement for stability.
  const double dx =
      std::clamp(options_.step * fx, -2.0 * bw_, 2.0 * bw_);
  const double dy =
      std::clamp(options_.step * fy, -2.0 * bh_, 2.0 * bh_);
  placement_.x[o] = x + (dx + nx);
  placement_.y[o] = y + (dy + ny);
  clamp_object(oi);
}

std::int64_t GlobalPlacer::iterate(std::int64_t n) {
  using Clock = std::chrono::steady_clock;
  MFA_TRACE_SCOPE("placer.iterate");
  static obs::Counter obs_iters = obs::counter("placer.iterations");
  static obs::Histogram obs_overflow =
      obs::histogram("placer.overflow_permille");
  const auto nobj = problem_->num_objects();

  const auto t0 = Clock::now();
  const auto budget_spent = [&] {
    if (MFA_FAULT_POINT("place.budget")) return true;
    if (options_.time_budget_seconds <= 0.0) return false;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return budget_spent_seconds_ + elapsed > options_.time_budget_seconds;
  };

  // True while usage_ holds the density of the current placement_: the
  // overflow gate rebuilds it after each update, and only a spreading pass
  // moves objects before the next iteration reads it.
  bool density_current = false;
  std::int64_t done = 0;
  for (std::int64_t it = 0; it < n; ++it) {
    if (budget_exhausted_ || budget_spent()) {
      budget_exhausted_ = true;
      // Close with a spreading pass so the partial result keeps macros
      // column-aligned and density roughly legal.
      if (done > 0) {
        spread_macros();
        spread_cells();
      }
      break;
    }

    // ---- star centroids ----
    for (size_t ni = 0; ni < problem_->net_pins.size(); ++ni) {
      const auto& pins = problem_->net_pins[ni];
      const auto npins = static_cast<double>(pins.size());
      double cx = 0.0, cy = 0.0;
      for (const auto& p : pins) {
        cx += placement_.x[static_cast<size_t>(p.obj)];
        cy += placement_.y[static_cast<size_t>(p.obj)] + p.dy;
      }
      stars_[ni] = {cx / npins, cy / npins, problem_->net_weights[ni] / npins};
    }

    // ---- density maps and potentials ----
    if (!density_current) compute_density_maps();
    solve_potentials();

    // ---- per-object forces and update ----
    const double noise_sigma = noise_scale_ * options_.noise;
    for (std::int64_t oi = 0; oi < nobj; ++oi) step_object(oi, noise_sigma);

    // Anneal the spreading force only while the placement is still
    // over-capacity; once the Fig. 6 gate is met, further strengthening
    // only perturbs a converged placement (the lookahead spreading passes
    // keep density legal regardless).
    const bool gate_met = overflow_target_met();
    density_current = true;
    if (gate_met) {
      density_weight_ = std::max(density_weight_ * 0.97,
                                 0.25 * options_.density_weight);
      noise_scale_ *= 0.95;
    } else {
      density_weight_ =
          std::min(density_weight_ * options_.density_growth,
                   4.0 * options_.density_weight);
    }

    // ---- lookahead spreading ----
    ++global_iter_;
    ++done;
    obs_iters.add();
    const bool last = (it == n - 1);
    if (last || global_iter_ % options_.spread_interval == 0) {
      MFA_TRACE_SCOPE("placer.spread");
      spread_macros();
      spread_cells();
      density_current = false;
    }
    if (last) {
      // One histogram sample per iterate() call, not per iteration: the
      // worst per-resource overflow in integer permille (log2 buckets make
      // 0 / <1% / coarse-over-capacity regimes distinguishable).
      const auto of = overflow();
      const double worst = *std::max_element(of.begin(), of.end());
      obs_overflow.record(static_cast<std::int64_t>(worst * 1000.0));
    }
  }
  budget_spent_seconds_ +=
      std::chrono::duration<double>(Clock::now() - t0).count();
  return done;
}

void GlobalPlacer::spread_macros() {
  const auto& device = problem_->device();
  // One pass per macro resource: assign objects to columns of their type,
  // then push excess column load (in site rows) to the nearest free column.
  for (const auto res :
       {Resource::Dsp, Resource::Bram, Resource::Uram}) {
    const auto& cols = device.columns_of(fpga::site_for_resource(res));
    if (cols.empty()) continue;
    const auto ncols = static_cast<std::int64_t>(cols.size());
    const double rows = static_cast<double>(device.rows());

    // Nearest column index for an x coordinate (cols is sorted).
    const auto nearest = [&](double x, std::int64_t lo, std::int64_t hi) {
      std::int64_t best = lo;
      double bestd = 1e30;
      for (std::int64_t c = lo; c <= hi; ++c) {
        const double d =
            std::fabs(static_cast<double>(cols[static_cast<size_t>(c)]) + 0.5 - x);
        if (d < bestd) {
          bestd = d;
          best = c;
        }
      }
      return best;
    };
    // Column index range admissible for an object (region-constrained
    // objects only see columns inside their region).
    const auto col_range = [&](const MoveObject& obj, std::int64_t& lo,
                               std::int64_t& hi) {
      lo = 0;
      hi = ncols - 1;
      if (obj.region < 0) return true;
      const auto& region =
          problem_->design().regions[static_cast<size_t>(obj.region)];
      while (lo < ncols && cols[static_cast<size_t>(lo)] < region.col_lo) ++lo;
      while (hi >= 0 && cols[static_cast<size_t>(hi)] > region.col_hi) --hi;
      return lo <= hi;
    };

    std::vector<double> load(static_cast<size_t>(ncols), 0.0);
    std::vector<std::vector<std::int64_t>> members(static_cast<size_t>(ncols));
    for (std::int64_t oi = 0; oi < problem_->num_objects(); ++oi) {
      const auto& obj = problem_->objects[static_cast<size_t>(oi)];
      if (obj.resource != res) continue;
      std::int64_t lo, hi;
      if (!col_range(obj, lo, hi)) continue;  // unsatisfiable region: skip
      const auto c = nearest(placement_.x[static_cast<size_t>(oi)], lo, hi);
      load[static_cast<size_t>(c)] += obj.area;
      members[static_cast<size_t>(c)].push_back(oi);
      placement_.x[static_cast<size_t>(oi)] =
          static_cast<double>(cols[static_cast<size_t>(c)]) + 0.5;
    }
    // Relieve overloaded columns: move the member farthest from the column
    // to the nearest column (same admissible range) with free capacity.
    for (std::int64_t c = 0; c < ncols; ++c) {
      auto& mem = members[static_cast<size_t>(c)];
      // Stable order: smallest objects leave first (cheapest to move).
      std::sort(mem.begin(), mem.end(), [&](std::int64_t a, std::int64_t b) {
        return problem_->objects[static_cast<size_t>(a)].area <
               problem_->objects[static_cast<size_t>(b)].area;
      });
      size_t next_out = 0;
      while (load[static_cast<size_t>(c)] > rows && next_out < mem.size()) {
        const auto oi = mem[next_out++];
        const auto& obj = problem_->objects[static_cast<size_t>(oi)];
        std::int64_t lo, hi;
        if (!col_range(obj, lo, hi)) continue;
        // Find nearest admissible column with room.
        std::int64_t best = -1;
        for (std::int64_t radius = 1; radius < ncols; ++radius) {
          for (const std::int64_t cand : {c - radius, c + radius}) {
            if (cand < lo || cand > hi) continue;
            if (load[static_cast<size_t>(cand)] + obj.area <= rows) {
              best = cand;
              break;
            }
          }
          if (best >= 0) break;
          if (c - radius < lo && c + radius > hi) break;
        }
        if (best < 0) break;  // nowhere to go; leave overloaded
        load[static_cast<size_t>(c)] -= obj.area;
        load[static_cast<size_t>(best)] += obj.area;
        placement_.x[static_cast<size_t>(oi)] =
            static_cast<double>(cols[static_cast<size_t>(best)]) + 0.5;
        members[static_cast<size_t>(best)].push_back(oi);
        mem[next_out - 1] = -1;  // moved away
      }
    }
    // 1-D vertical legalisation within each column (Abacus-style): keep the
    // y-order, pack without overlap, shift back if the column bottom-out
    // overflows. Column load <= rows, so a feasible packing always exists.
    for (std::int64_t c = 0; c < ncols; ++c) {
      auto& mem = members[static_cast<size_t>(c)];
      mem.erase(std::remove(mem.begin(), mem.end(), -1), mem.end());
      if (mem.empty()) continue;
      std::sort(mem.begin(), mem.end(), [&](std::int64_t a, std::int64_t b) {
        return placement_.y[static_cast<size_t>(a)] <
               placement_.y[static_cast<size_t>(b)];
      });
      double cursor = 0.0;
      for (const auto oi : mem) {
        const auto& obj = problem_->objects[static_cast<size_t>(oi)];
        double want = placement_.y[static_cast<size_t>(oi)] - 0.5;
        if (obj.region >= 0) {
          const auto& region =
              problem_->design().regions[static_cast<size_t>(obj.region)];
          want = std::clamp(want, static_cast<double>(region.row_lo),
                            static_cast<double>(region.row_hi) - obj.height + 1.0);
        }
        cursor = std::max(cursor, want);
        placement_.y[static_cast<size_t>(oi)] = cursor + 0.5;
        cursor += obj.height;
      }
      // If the packing ran past the top, shift the tail back down.
      double over = cursor - rows;
      if (over > 0.0) {
        for (auto it = mem.rbegin(); it != mem.rend() && over > 0.0; ++it) {
          const auto oi = *it;
          const auto& obj = problem_->objects[static_cast<size_t>(oi)];
          double lo_limit = 0.5;
          if (obj.region >= 0) {
            const auto& region =
                problem_->design().regions[static_cast<size_t>(obj.region)];
            lo_limit = static_cast<double>(region.row_lo) + 0.5;
          }
          const double y = placement_.y[static_cast<size_t>(oi)];
          const double ny = std::max(lo_limit, y - over);
          placement_.y[static_cast<size_t>(oi)] = ny;
          over -= (y - ny);
          over = std::max(over, 0.0);
        }
        // Re-pack upward once more to remove overlaps introduced by shifts.
        double cur = 0.0;
        for (const auto oi : mem) {
          const auto& obj = problem_->objects[static_cast<size_t>(oi)];
          const double want = placement_.y[static_cast<size_t>(oi)] - 0.5;
          cur = std::max(cur, want);
          placement_.y[static_cast<size_t>(oi)] = cur + 0.5;
          cur += obj.height;
        }
      }
    }
  }
}

void GlobalPlacer::spread_cells() {
  const auto bx = options_.bins_x;
  const auto by = options_.bins_y;
  const auto nbins = static_cast<size_t>(bx * by);
  const auto nobj = static_cast<size_t>(problem_->num_objects());
  const auto area_of = [&](std::int64_t oi) {
    return problem_->objects[static_cast<size_t>(oi)].area;
  };
  for (const auto res : {Resource::Lut, Resource::Ff}) {
    const auto r = static_cast<size_t>(res);
    // Bucket this resource's objects by bin with a counting sort, stable in
    // object id: bin b's members are bin_members_[bin_start_[b] ..
    // bin_start_[b + 1]).
    std::fill(bin_usage_.begin(), bin_usage_.end(), 0.0);
    std::fill(bin_start_.begin(), bin_start_.end(), 0);
    for (size_t oi = 0; oi < nobj; ++oi) {
      const auto& obj = problem_->objects[oi];
      obj_bin_[oi] = -1;
      if (obj.resource != res) continue;
      const auto bxi = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(placement_.x[oi] / bw_), 0, bx - 1);
      const auto byi = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(placement_.y[oi] / bh_), 0, by - 1);
      MFA_DCHECK_BOUNDS(byi * bx + bxi, static_cast<std::int64_t>(nbins))
          << " spread_cells bin index for object " << oi;
      const auto b = static_cast<size_t>(byi * bx + bxi);
      obj_bin_[oi] = static_cast<std::int64_t>(b);
      bin_usage_[b] += obj.area;
      ++bin_start_[b + 1];
    }
    for (size_t b = 0; b < nbins; ++b) bin_start_[b + 1] += bin_start_[b];
    bin_members_.resize(static_cast<size_t>(bin_start_[nbins]));
    for (size_t oi = 0; oi < nobj; ++oi)
      if (obj_bin_[oi] >= 0)
        bin_members_[static_cast<size_t>(
            bin_start_[static_cast<size_t>(obj_bin_[oi])]++)] =
            static_cast<std::int64_t>(oi);
    // The fill advanced each bin's start to its end; shift them back.
    std::copy_backward(bin_start_.begin(), bin_start_.end() - 1,
                       bin_start_.end());
    bin_start_[0] = 0;
    // Evict overflow from over-capacity bins into a homeless list.
    homeless_.clear();
    for (size_t b = 0; b < nbins; ++b) {
      if (bin_usage_[b] <= capacity_[r][b]) continue;
      auto* first = bin_members_.data() + bin_start_[b];
      auto* last = bin_members_.data() + bin_start_[b + 1];
      // Smallest area out first: inflated (congestion-hot) objects keep
      // their spot and the surrounding small cells spill outward gradually,
      // which is exactly the spreading Eq. 11 is meant to induce.
      std::sort(first, last, [&](std::int64_t a, std::int64_t bb) {
        return area_of(a) < area_of(bb);
      });
      for (auto* m = first; bin_usage_[b] > capacity_[r][b] && m != last;
           ++m) {
        bin_usage_[b] -= area_of(*m);
        homeless_.push_back(*m);
      }
    }
    // Re-home each evicted object in the nearest bin with free capacity:
    // the first bin along rehome_offsets_ from its source bin that lies in
    // its region and has room. Objects of one source bin and region leave
    // in non-decreasing area and usage only grows here, so every offset an
    // earlier such object passed over still has no room: the walk resumes
    // where that object landed (or gave up).
    std::fill(resume_bin_.begin(), resume_bin_.end(), -1);
    for (const auto oi : homeless_) {
      const auto& obj = problem_->objects[static_cast<size_t>(oi)];
      const netlist::RegionConstraint* region =
          obj.region >= 0
              ? &problem_->design().regions[static_cast<size_t>(obj.region)]
              : nullptr;
      const auto src = obj_bin_[static_cast<size_t>(oi)];
      const auto bxi = src % bx;
      const auto byi = src / bx;
      const auto bin_ok = [&](std::int64_t x, std::int64_t y) {
        if (x < 0 || x >= bx || y < 0 || y >= by) return false;
        if (region) {
          // Bin centre must lie inside the region rectangle.
          const double cxs = (static_cast<double>(x) + 0.5) * bw_;
          const double cys = (static_cast<double>(y) + 0.5) * bh_;
          if (!region->contains(cxs, cys)) return false;
        }
        MFA_DCHECK_BOUNDS(y * bx + x, static_cast<std::int64_t>(nbins))
            << " spread_cells candidate bin";
        const auto b = static_cast<size_t>(y * bx + x);
        return bin_usage_[b] + obj.area <= capacity_[r][b];
      };
      const auto slot = static_cast<size_t>(obj.region + 1);
      if (resume_bin_[slot] != src) {
        resume_bin_[slot] = src;
        resume_at_[slot] = 0;
      }
      // Offsets beyond the farthest admissible bin never pass.
      const auto& box = rehome_box_[slot];
      const size_t end =
          box.x_lo > box.x_hi
              ? 0
              : rehome_radius_end_[static_cast<size_t>(
                    std::max(std::abs(bxi - box.x_lo),
                             std::abs(bxi - box.x_hi)) +
                    std::max(std::abs(byi - box.y_lo),
                             std::abs(byi - box.y_hi)))];
      auto k = resume_at_[slot];
      while (k < end &&
             !bin_ok(bxi + rehome_offsets_[k][0], byi + rehome_offsets_[k][1]))
        ++k;
      resume_at_[slot] = k;
      if (k >= end) continue;  // nowhere legal; leave where it was
      const auto fx = bxi + rehome_offsets_[k][0];
      const auto fy = byi + rehome_offsets_[k][1];
      MFA_DCHECK_BOUNDS(fy * bx + fx, static_cast<std::int64_t>(nbins))
          << " spread_cells re-home bin";
      bin_usage_[static_cast<size_t>(fy * bx + fx)] += obj.area;
      placement_.x[static_cast<size_t>(oi)] =
          (static_cast<double>(fx) + rng_.uniform(0.1, 0.9)) * bw_;
      placement_.y[static_cast<size_t>(oi)] =
          (static_cast<double>(fy) + rng_.uniform(0.1, 0.9)) * bh_;
      clamp_object(oi);
    }
  }
}

std::array<double, fpga::kNumResources> GlobalPlacer::overflow() const {
  // Recompute on the current placement (usage_ may be stale after moves;
  // it is a mutable cache, see placer.h).
  compute_density_maps();
  std::array<double, fpga::kNumResources> out{};
  const auto nbins = static_cast<size_t>(options_.bins_x * options_.bins_y);
  for (size_t r = 0; r < fpga::kNumResources; ++r) {
    double over = 0.0, total = 0.0;
    for (size_t b = 0; b < nbins; ++b) {
      total += usage_[r][b];
      over += std::max(0.0, usage_[r][b] - capacity_[r][b]);
    }
    out[r] = total > 0.0 ? over / total : 0.0;
  }
  return out;
}

bool GlobalPlacer::overflow_target_met() const {
  const auto of = overflow();
  const auto idx = [](Resource r) { return static_cast<size_t>(r); };
  return of[idx(Resource::Dsp)] < options_.macro_overflow_target &&
         of[idx(Resource::Bram)] < options_.macro_overflow_target &&
         of[idx(Resource::Uram)] < options_.macro_overflow_target &&
         of[idx(Resource::Lut)] < options_.cell_overflow_target &&
         of[idx(Resource::Ff)] < options_.cell_overflow_target;
}

bool GlobalPlacer::run_until_overflow_target() {
  std::int64_t done = 0;
  const std::int64_t chunk = 20;
  while (done < options_.max_iterations) {
    iterate(std::min(chunk, options_.max_iterations - done));
    done += chunk;
    if (overflow_target_met()) return true;
    if (budget_exhausted_) break;  // best partial result
  }
  return overflow_target_met();
}

double GlobalPlacer::wirelength() const {
  double total = 0.0;
  for (size_t ni = 0; ni < problem_->net_pins.size(); ++ni) {
    const auto& pins = problem_->net_pins[ni];
    double lox = 1e30, hix = -1e30, loy = 1e30, hiy = -1e30;
    for (const auto& p : pins) {
      const double x = placement_.x[static_cast<size_t>(p.obj)];
      const double y = placement_.y[static_cast<size_t>(p.obj)] + p.dy;
      lox = std::min(lox, x);
      hix = std::max(hix, x);
      loy = std::min(loy, y);
      hiy = std::max(hiy, y);
    }
    total += static_cast<double>(problem_->net_weights[ni]) *
             ((hix - lox) + (hiy - loy));
  }
  return total;
}

}  // namespace mfa::place
