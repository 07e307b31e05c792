#include "route/router.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace mfa::route {
namespace {

/// One two-pin connection in tile coordinates with its current route choice.
struct Connection {
  std::int32_t x0, y0, x1, y1;
  WireClass wc;
  /// Pattern: 0 = HV (horizontal then vertical), 1 = VH, 2 = Z with
  /// horizontal split at mid-x, 3 = Z with vertical split at mid-y.
  std::int8_t choice = 0;
  /// Non-empty after a maze reroute: explicit direction sequence from
  /// (x0, y0); overrides the pattern choice.
  std::vector<std::uint8_t> maze_path;
};

/// One double per (wire class, direction, tile).
using EdgeField =
    std::array<std::array<std::vector<double>, fpga::kNumDirections>,
               fpga::kNumWireClasses>;

/// Indexed 4-ary min-heap on (f, node) for the A* open set, holding at most
/// one entry per node. `push_or_lower` inserts a node or lowers its key in
/// place. The slot table maps each node to its heap index, or -1 when it is
/// absent; the caller resets it with `forget` over the nodes a search can
/// reach before the search starts.
class NodeHeap {
 public:
  struct Entry {
    double f;
    std::int64_t node;
  };

  void resize(size_t num_nodes) { slot_.resize(num_nodes); }
  void forget(size_t begin, size_t end) {
    std::fill(slot_.data() + begin, slot_.data() + end, -1);
  }
  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }

  void push_or_lower(std::int64_t node, double f) {
    const std::int32_t s = slot_[static_cast<size_t>(node)];
    const size_t i = s < 0 ? entries_.size() : static_cast<size_t>(s);
    if (s < 0) entries_.push_back({f, node});
    MFA_DCHECK_LE(f, entries_[i].f) << " NodeHeap: a key may only fall";
    sift_up(i, {f, node});
  }

  Entry pop() {
    const Entry top = entries_.front();
    slot_[static_cast<size_t>(top.node)] = -1;
    const Entry last = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0, last);
    return top;
  }

 private:
  static constexpr size_t kArity = 4;

  /// Lexicographic (f, node): a strict total order, so any min-heap on it
  /// pops the same sequence.
  static bool before(const Entry& a, const Entry& b) {
    return a.f < b.f || (a.f == b.f && a.node < b.node);
  }
  void place(size_t i, const Entry& e) {
    entries_[i] = e;
    slot_[static_cast<size_t>(e.node)] = static_cast<std::int32_t>(i);
  }
  void sift_up(size_t i, const Entry& e) {
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!before(e, entries_[parent])) break;
      place(i, entries_[parent]);
      i = parent;
    }
    place(i, e);
  }
  void sift_down(size_t i, const Entry& e) {
    const size_t n = entries_.size();
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      for (size_t c = first + 1; c < std::min(first + kArity, n); ++c)
        if (before(entries_[c], entries_[best])) best = c;
      if (!before(entries_[best], e)) break;
      place(i, entries_[best]);
      i = best;
    }
    place(i, e);
  }

  std::vector<Entry> entries_;
  std::vector<std::int32_t> slot_;
};

}  // namespace

struct GlobalRouter::Impl {
  const netlist::Design* design;
  const fpga::DeviceGrid* device;
  RouterOptions options;
  fpga::InterconnectTileGrid tiles;
  CongestionGrid grid;
  // History costs per (class, direction, tile) for negotiation.
  EdgeField history;
  // fresh_cost() of every edge, cached: reprice() refills it whenever the
  // pressure or the history changes, and apply() patches each edge whose
  // demand it moves.
  EdgeField cost;
  std::vector<Connection> connections;
  double pressure = 1.0;  // escalates during negotiation (PathFinder-style)
  bool budget_exhausted = false;
  // A* state reused by every search, reset over the search box when a
  // search starts: g-cost, the direction taken into each tile, open set.
  std::vector<double> dist;
  std::vector<std::int8_t> from;
  NodeHeap open;

  Impl(const netlist::Design& d, const fpga::DeviceGrid& dev,
       const RouterOptions& opt)
      : design(&d),
        device(&dev),
        options(opt),
        tiles(opt.grid_width, opt.grid_height, dev.cols(), dev.rows(),
              opt.short_capacity, opt.global_capacity),
        grid(tiles) {
    MFA_CHECK(opt.grid_width > 0 && opt.grid_height > 0)
        << " router grid must be non-empty, got " << opt.grid_width << "x"
        << opt.grid_height;
    MFA_CHECK(opt.short_capacity > 0 && opt.global_capacity > 0)
        << " router capacities must be positive";
    MFA_CHECK_LE(tiles.num_tiles(), std::numeric_limits<std::int32_t>::max())
        << " router grid too large for the search heap's slot table";
    const auto n = static_cast<size_t>(tiles.num_tiles());
    for (auto* field : {&history, &cost})
      for (auto& per_class : *field)
        for (auto& per_dir : per_class) per_dir.assign(n, 0.0);
    reprice(1.0);
    dist.resize(n);
    from.resize(n);
    open.resize(n);
  }

  /// The negotiated cost of one edge: 1, plus the overflow penalty scaled by
  /// the pressure, plus the history. The one place this expression lives.
  double fresh_cost(WireClass wc, Direction d, std::int64_t gx,
                    std::int64_t gy) const {
    const double cap = static_cast<double>(tiles.capacity(wc));
    const double demand = grid.demand(wc, d, gx, gy);
    const double over = std::max(0.0, (demand + 1.0) - cap) / cap;
    return 1.0 + pressure * options.overflow_penalty * over +
           history[static_cast<size_t>(wc)][static_cast<size_t>(d)]
                  [static_cast<size_t>(tiles.tile_index(gx, gy))];
  }

  double& cached_cost(WireClass wc, Direction d, std::int64_t gx,
                      std::int64_t gy) {
    return cost[static_cast<size_t>(wc)][static_cast<size_t>(d)]
               [static_cast<size_t>(tiles.tile_index(gx, gy))];
  }

  double edge_cost(WireClass wc, Direction d, std::int64_t gx,
                   std::int64_t gy) const {
    MFA_DCHECK_BOUNDS(gx, tiles.width()) << " edge_cost tile x";
    MFA_DCHECK_BOUNDS(gy, tiles.height()) << " edge_cost tile y";
    const double c = cost[static_cast<size_t>(wc)][static_cast<size_t>(d)]
                         [static_cast<size_t>(tiles.tile_index(gx, gy))];
    MFA_DCHECK(std::bit_cast<std::uint64_t>(c) ==
               std::bit_cast<std::uint64_t>(fresh_cost(wc, d, gx, gy)))
        << " edge_cost: cached " << c << " is stale at (" << gx << ", " << gy
        << ")";
    return c;
  }

  /// Sets the negotiation pressure and recomputes every cached edge cost.
  /// Called whenever the pressure or the history changes.
  void reprice(double new_pressure) {
    pressure = new_pressure;
    for (size_t w = 0; w < fpga::kNumWireClasses; ++w)
      for (size_t d = 0; d < fpga::kNumDirections; ++d)
        for (std::int64_t gy = 0; gy < tiles.height(); ++gy)
          for (std::int64_t gx = 0; gx < tiles.width(); ++gx)
            cached_cost(static_cast<WireClass>(w), static_cast<Direction>(d),
                        gx, gy) = fresh_cost(static_cast<WireClass>(w),
                                             static_cast<Direction>(d), gx, gy);
  }

  /// Walks the edges of `conn` under pattern `choice`, calling
  /// fn(gx, gy, direction) once per tile crossing.
  template <typename F>
  void walk(const Connection& conn, std::int8_t choice, F&& fn) const {
    const auto hseg = [&](std::int64_t y, std::int64_t xa, std::int64_t xb) {
      if (xa < xb)
        for (std::int64_t x = xa; x < xb; ++x) fn(x, y, Direction::East);
      else
        for (std::int64_t x = xa; x > xb; --x) fn(x, y, Direction::West);
    };
    const auto vseg = [&](std::int64_t x, std::int64_t ya, std::int64_t yb) {
      if (ya < yb)
        for (std::int64_t y = ya; y < yb; ++y) fn(x, y, Direction::North);
      else
        for (std::int64_t y = ya; y > yb; --y) fn(x, y, Direction::South);
    };
    switch (choice) {
      case 0:  // HV
        hseg(conn.y0, conn.x0, conn.x1);
        vseg(conn.x1, conn.y0, conn.y1);
        break;
      case 1:  // VH
        vseg(conn.x0, conn.y0, conn.y1);
        hseg(conn.y1, conn.x0, conn.x1);
        break;
      case 2: {  // Z horizontal: H to mid-x, V, H
        const std::int64_t mx = (conn.x0 + conn.x1) / 2;
        hseg(conn.y0, conn.x0, mx);
        vseg(mx, conn.y0, conn.y1);
        hseg(conn.y1, mx, conn.x1);
        break;
      }
      default: {  // Z vertical: V to mid-y, H, V
        const std::int64_t my = (conn.y0 + conn.y1) / 2;
        vseg(conn.x0, conn.y0, my);
        hseg(my, conn.x0, conn.x1);
        vseg(conn.x1, my, conn.y1);
        break;
      }
    }
  }

  /// Walks the connection's current route (maze path if present, else the
  /// chosen pattern).
  template <typename F>
  void walk_current(const Connection& conn, F&& fn) const {
    if (conn.maze_path.empty()) {
      walk(conn, conn.choice, std::forward<F>(fn));
      return;
    }
    std::int64_t x = conn.x0, y = conn.y0;
    for (const auto step : conn.maze_path) {
      const auto d = static_cast<Direction>(step);
      fn(x, y, d);
      switch (d) {
        case Direction::East:
          ++x;
          break;
        case Direction::West:
          --x;
          break;
        case Direction::North:
          ++y;
          break;
        default:
          --y;
          break;
      }
    }
  }

  double path_cost(const Connection& conn, std::int8_t choice) const {
    double cost = 0.0;
    walk(conn, choice, [&](std::int64_t gx, std::int64_t gy, Direction d) {
      cost += edge_cost(conn.wc, d, gx, gy);
    });
    return cost;
  }

  /// Adds (sign +1) or removes (-1) the connection's demand along its
  /// current route and reprices the edges it crosses.
  void apply(const Connection& conn, double sign) {
    walk_current(conn, [&](std::int64_t gx, std::int64_t gy, Direction d) {
      grid.add_demand(conn.wc, d, gx, gy, sign);
      cached_cost(conn.wc, d, gx, gy) = fresh_cost(conn.wc, d, gx, gy);
    });
  }

  void route_connection(Connection& conn) {
    conn.maze_path.clear();
    std::int8_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    // Degenerate straight connections: all patterns coincide; try one.
    const std::int8_t num_choices =
        (conn.x0 == conn.x1 || conn.y0 == conn.y1) ? 1 : 4;
    for (std::int8_t c = 0; c < num_choices; ++c) {
      const double cost = path_cost(conn, c);
      if (cost < best_cost) {
        best_cost = cost;
        best = c;
      }
    }
    conn.choice = best;
    apply(conn, +1.0);
  }

  bool crosses_overused(const Connection& conn) const {
    bool hit = false;
    walk_current(conn, [&](std::int64_t gx, std::int64_t gy, Direction d) {
      if (grid.utilisation(conn.wc, d, gx, gy) > 1.0) hit = true;
    });
    return hit;
  }

  /// A* maze route under the congestion-aware edge cost (the PathFinder
  /// reroute): finds the globally cheapest detour instead of picking among
  /// fixed patterns. Fills conn.maze_path, applies demand and returns the
  /// number of nodes expanded.
  std::int64_t maze_route(Connection& conn) {
    const std::int64_t gw = tiles.width();
    const std::int64_t gh = tiles.height();
    // Restrict the search to the connection bounding box plus a detour
    // margin: full-grid A* for every overused connection is wasteful.
    constexpr std::int64_t kMargin = 10;
    const std::int64_t bx0 = std::max<std::int64_t>(0, std::min(conn.x0, conn.x1) - kMargin);
    const std::int64_t bx1 = std::min<std::int64_t>(gw - 1, std::max(conn.x0, conn.x1) + kMargin);
    const std::int64_t by0 = std::max<std::int64_t>(0, std::min(conn.y0, conn.y1) - kMargin);
    const std::int64_t by1 = std::min<std::int64_t>(gh - 1, std::max(conn.y0, conn.y1) + kMargin);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // The search reads and writes only tiles inside the box. Resetting them
    // here, not after the search, keeps a search that threw part-way from
    // leaking into this one.
    open.clear();
    for (std::int64_t y = by0; y <= by1; ++y) {
      const auto lo = static_cast<size_t>(y * gw + bx0);
      const auto hi = static_cast<size_t>(y * gw + bx1 + 1);
      std::fill(dist.data() + lo, dist.data() + hi, kInf);
      std::fill(from.data() + lo, from.data() + hi, std::int8_t{-1});
      open.forget(lo, hi);
    }
    const auto node = [gw](std::int64_t x, std::int64_t y) {
      return y * gw + x;
    };
    const auto heuristic = [&](std::int64_t x, std::int64_t y) {
      return static_cast<double>(std::abs(x - conn.x1) +
                                 std::abs(y - conn.y1));
    };
    const std::int64_t start = node(conn.x0, conn.y0);
    const std::int64_t goal = node(conn.x1, conn.y1);
    dist[static_cast<size_t>(start)] = 0.0;
    open.push_or_lower(start, heuristic(conn.x0, conn.y0));
    std::int64_t expanded = 0;
    while (!open.empty()) {
      const auto [f, u] = open.pop();
      if (u == goal) break;
      const std::int64_t ux = u % gw, uy = u / gw;
      if (f - heuristic(ux, uy) > dist[static_cast<size_t>(u)] + 1e-12)
        continue;  // stale entry
      ++expanded;
      struct Step {
        Direction d;
        std::int64_t dx, dy;
      };
      constexpr Step kSteps[4] = {{Direction::East, 1, 0},
                                  {Direction::West, -1, 0},
                                  {Direction::North, 0, 1},
                                  {Direction::South, 0, -1}};
      for (const auto& step : kSteps) {
        const std::int64_t vx = ux + step.dx, vy = uy + step.dy;
        if (vx < bx0 || vx > bx1 || vy < by0 || vy > by1) continue;
        const double w = edge_cost(conn.wc, step.d, ux, uy);
        const std::int64_t v = node(vx, vy);
        if (dist[static_cast<size_t>(u)] + w <
            dist[static_cast<size_t>(v)] - 1e-12) {
          dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + w;
          from[static_cast<size_t>(v)] = static_cast<std::int8_t>(step.d);
          open.push_or_lower(v, dist[static_cast<size_t>(v)] +
                                    heuristic(vx, vy));
        }
      }
    }
    // The search box always contains both endpoints and the grid is fully
    // connected within it, so an unreached goal means the A* bookkeeping is
    // broken; reconstructing from a -1 `from` entry would loop forever.
    MFA_CHECK(dist[static_cast<size_t>(goal)] < kInf)
        << " maze_route: goal (" << conn.x1 << ", " << conn.y1
        << ") unreached from (" << conn.x0 << ", " << conn.y0 << ")";
    // Reconstruct (goal -> start), then reverse.
    conn.maze_path.clear();
    std::int64_t cx = conn.x1, cy = conn.y1;
    while (!(cx == conn.x0 && cy == conn.y0)) {
      const auto step_dir = from[static_cast<size_t>(node(cx, cy))];
      MFA_DCHECK_GE(step_dir, 0)
          << " maze_route: broken back-pointer chain at (" << cx << ", " << cy
          << ")";
      const auto d = static_cast<Direction>(step_dir);
      conn.maze_path.push_back(static_cast<std::uint8_t>(d));
      switch (d) {  // step backwards
        case Direction::East:
          --cx;
          break;
        case Direction::West:
          ++cx;
          break;
        case Direction::North:
          --cy;
          break;
        default:
          ++cy;
          break;
      }
    }
    std::reverse(conn.maze_path.begin(), conn.maze_path.end());
    apply(conn, +1.0);
    return expanded;
  }

  void bump_history() {
    for (size_t w = 0; w < fpga::kNumWireClasses; ++w)
      for (size_t d = 0; d < fpga::kNumDirections; ++d)
        for (std::int64_t gy = 0; gy < tiles.height(); ++gy)
          for (std::int64_t gx = 0; gx < tiles.width(); ++gx)
            if (grid.utilisation(static_cast<WireClass>(w),
                                 static_cast<Direction>(d), gx, gy) > 1.0)
              history[w][d][static_cast<size_t>(tiles.tile_index(gx, gy))] +=
                  options.history_increment;
  }
};

GlobalRouter::GlobalRouter(const netlist::Design& design,
                           const fpga::DeviceGrid& device,
                           RouterOptions options)
    : impl_(std::make_unique<Impl>(design, device, options)) {}

GlobalRouter::~GlobalRouter() = default;

void GlobalRouter::initial_route(const std::vector<double>& cell_x,
                                 const std::vector<double>& cell_y) {
  MFA_TRACE_SCOPE("router.initial_route");
  auto& im = *impl_;
  MFA_CHECK(cell_x.size() == cell_y.size() &&
            cell_x.size() >= im.design->cells.size())
      << " initial_route: placement arrays (" << cell_x.size() << ", "
      << cell_y.size() << ") must cover all " << im.design->cells.size()
      << " cells";
  im.grid.clear();
  im.budget_exhausted = false;
  for (auto& per_class : im.history)
    for (auto& per_dir : per_class)
      std::fill(per_dir.begin(), per_dir.end(), 0.0);
  im.reprice(1.0);
  im.connections.clear();

  // Net decomposition: Prim MST over pin tiles (nets are small).
  std::vector<std::int64_t> tx, ty;
  std::vector<char> in_tree;
  std::vector<double> dist;
  std::vector<std::int32_t> parent;
  for (const auto& net : im.design->nets) {
    const auto k = static_cast<std::int64_t>(net.pins.size());
    tx.clear();
    ty.clear();
    for (const auto pin : net.pins) {
      tx.push_back(im.tiles.tile_x(cell_x[static_cast<size_t>(pin)]));
      ty.push_back(im.tiles.tile_y(cell_y[static_cast<size_t>(pin)]));
    }
    in_tree.assign(static_cast<size_t>(k), 0);
    dist.assign(static_cast<size_t>(k),
                std::numeric_limits<double>::infinity());
    parent.assign(static_cast<size_t>(k), 0);
    dist[0] = 0.0;
    for (std::int64_t step = 0; step < k; ++step) {
      std::int64_t u = -1;
      double best = std::numeric_limits<double>::infinity();
      for (std::int64_t i = 0; i < k; ++i)
        if (!in_tree[static_cast<size_t>(i)] &&
            dist[static_cast<size_t>(i)] < best) {
          best = dist[static_cast<size_t>(i)];
          u = i;
        }
      if (u < 0) break;
      in_tree[static_cast<size_t>(u)] = 1;
      if (u != 0 && (tx[static_cast<size_t>(u)] !=
                         tx[static_cast<size_t>(parent[static_cast<size_t>(u)])] ||
                     ty[static_cast<size_t>(u)] !=
                         ty[static_cast<size_t>(parent[static_cast<size_t>(u)])])) {
        Connection conn;
        conn.x0 = static_cast<std::int32_t>(
            tx[static_cast<size_t>(parent[static_cast<size_t>(u)])]);
        conn.y0 = static_cast<std::int32_t>(
            ty[static_cast<size_t>(parent[static_cast<size_t>(u)])]);
        conn.x1 = static_cast<std::int32_t>(tx[static_cast<size_t>(u)]);
        conn.y1 = static_cast<std::int32_t>(ty[static_cast<size_t>(u)]);
        const auto len = std::abs(conn.x1 - conn.x0) + std::abs(conn.y1 - conn.y0);
        conn.wc = len > im.options.global_wire_threshold ? WireClass::Global
                                                         : WireClass::Short;
        im.connections.push_back(conn);
      }
      for (std::int64_t v = 0; v < k; ++v) {
        if (in_tree[static_cast<size_t>(v)]) continue;
        const double w = static_cast<double>(
            std::abs(tx[static_cast<size_t>(u)] - tx[static_cast<size_t>(v)]) +
            std::abs(ty[static_cast<size_t>(u)] - ty[static_cast<size_t>(v)]));
        if (w < dist[static_cast<size_t>(v)]) {
          dist[static_cast<size_t>(v)] = w;
          parent[static_cast<size_t>(v)] = static_cast<std::int32_t>(u);
        }
      }
    }
  }

  // Route short connections first: they have the least flexibility.
  std::sort(im.connections.begin(), im.connections.end(),
            [](const Connection& a, const Connection& b) {
              const auto la = std::abs(a.x1 - a.x0) + std::abs(a.y1 - a.y0);
              const auto lb = std::abs(b.x1 - b.x0) + std::abs(b.y1 - b.y0);
              return la < lb;
            });
  for (auto& conn : im.connections) im.route_connection(conn);
}

std::int64_t GlobalRouter::detailed_route() {
  using Clock = std::chrono::steady_clock;
  MFA_TRACE_SCOPE("router.detailed_route");
  static obs::Counter obs_rounds = obs::counter("router.negotiation_rounds");
  static obs::Counter obs_ripups = obs::counter("router.ripups");
  static obs::Counter obs_maze = obs::counter("router.maze_reroutes");
  static obs::Counter obs_expansions = obs::counter("router.maze_expansions");
  static obs::Histogram obs_overused = obs::histogram("router.overused");
  auto& im = *impl_;
  im.reprice(1.0);
  im.budget_exhausted = false;
  const auto t0 = Clock::now();
  const auto budget_spent = [&] {
    if (MFA_FAULT_POINT("route.budget")) return true;
    if (im.options.time_budget_seconds <= 0.0) return false;
    return std::chrono::duration<double>(Clock::now() - t0).count() >
           im.options.time_budget_seconds;
  };
  std::int64_t iterations = 0;
  std::int64_t best_overused = im.grid.overused_count(1.0);
  std::int64_t stalled = 0;
  while (iterations < im.options.max_detailed_iterations) {
    const auto overused = im.grid.overused_count(1.0);
    // Overflow history: one sample per negotiation round, so the histogram
    // shape shows how fast congestion collapsed (or that it plateaued).
    obs_overused.record(overused);
    if (overused == 0) break;
    if (budget_spent()) {
      // Budget exhausted: keep the best routing found so far (every
      // connection stays routed; only further negotiation is skipped).
      im.budget_exhausted = true;
      break;
    }
    // Stall detection: if three rounds bring no improvement, the residual
    // congestion is unroutable at this placement — report the cap (the
    // contest's worst detailed-routing experience).
    if (overused < best_overused) {
      best_overused = overused;
      stalled = 0;
    } else if (++stalled >= 3) {
      // A large residual means the placement is effectively unroutable
      // (report the cap); a handful of stubborn resources is normal router
      // noise (report the effort actually spent).
      const auto total = static_cast<std::int64_t>(
          fpga::kNumWireClasses * fpga::kNumDirections *
          static_cast<size_t>(im.tiles.num_tiles()));
      return overused * 1000 > total ? im.options.max_detailed_iterations
                                     : iterations;
    }
    ++iterations;
    obs_rounds.add();
    im.bump_history();
    im.reprice(im.pressure * 1.4);  // PathFinder-style escalation
    // Early iterations retry the cheap pattern candidates; once history has
    // built up, overused connections fall back to A* maze rerouting
    // (the PathFinder negotiation step).
    const bool use_maze = iterations >= 2;
    std::int64_t ripups = 0;
    std::int64_t mazed = 0;
    for (auto& conn : im.connections) {
      if (!im.crosses_overused(conn)) continue;
      im.apply(conn, -1.0);
      ++ripups;
      if (use_maze) {
        obs_expansions.add(im.maze_route(conn));
        ++mazed;
      } else {
        im.route_connection(conn);
      }
    }
    obs_ripups.add(ripups);
    obs_maze.add(mazed);
  }
  return iterations;
}

const CongestionGrid& GlobalRouter::congestion() const { return impl_->grid; }

CongestionAnalysis GlobalRouter::analyze() const {
  return analyze_congestion(impl_->grid, impl_->options.analysis);
}

double GlobalRouter::routed_wirelength() const {
  double total = 0.0;
  for (const auto& conn : impl_->connections)
    total += std::abs(conn.x1 - conn.x0) + std::abs(conn.y1 - conn.y0);
  return total;
}

std::int64_t GlobalRouter::num_connections() const {
  return static_cast<std::int64_t>(impl_->connections.size());
}

bool GlobalRouter::budget_exhausted() const { return impl_->budget_exhausted; }

RouterOptions calibrated_router_options(const fpga::DeviceGrid& device,
                                        std::int64_t grid_width,
                                        std::int64_t grid_height) {
  RouterOptions options;
  options.grid_width = grid_width;
  options.grid_height = grid_height;
  // Sites per tile at the calibration point: 60 cols / 64 tiles = 0.9375.
  const double tile_sites =
      static_cast<double>(device.cols()) / static_cast<double>(grid_width);
  const double scale = tile_sites / 0.9375;
  options.short_capacity = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::lround(24.0 * scale)));
  options.global_capacity = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::lround(20.0 * scale)));
  return options;
}

}  // namespace mfa::route
