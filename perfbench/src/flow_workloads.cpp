// flow_ml and flow_route: the Fig. 6 flow, timed end to end through
// RoutabilityDrivenPlacer::run, and replayed stage by stage through the
// public calls of place / features / models / flow / route for the ledger.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/log.h"
#include "features/features.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "place/inflation.h"
#include "place/legalizer.h"
#include "place/placer.h"
#include "route/router.h"
#include "route/score.h"
#include "tensor/ops.h"
#include "train/dataset.h"

namespace perfbench {
namespace {

using namespace mfa;

constexpr std::int64_t kGrid = 64;
constexpr std::int64_t kMinOps = 5;
// Predictor trained in flow_ml's setup: placements per design (x4
// rotations), small enough to keep set-up a few seconds.
constexpr std::int64_t kPredictorPlacements = 1;
// The flows run fixed instances: the generator's own Design_NNN netlists,
// the flow's default placer seed, and a predictor seeded as the Table II
// bench seeds it at MFA_SEED=1. Flow time and S_score are chaotic in the
// design and placer seeds (README.md, "Seeds"), so a seed-dependent instance
// would swamp any code change.
constexpr std::uint64_t kDatasetSeed = 1001;

struct FlowWorkload {
  std::vector<std::string> designs;
  flow::Strategy strategy;
  bool train_predictor;
  double nominal_op_s;  // one op on the reference host, sizes the op count
};

struct Replay {
  flow::FlowResult result;
  std::unique_ptr<place::PlacementProblem> problem;
  place::Placement legal;  // the legalised placement that was routed
};

/// RoutabilityDrivenPlacer::run for Strategy::Ours and the analytic
/// strategies other than MPKU, stage by stage, one span per module call.
Replay replay_flow(const netlist::Design& design,
                   const fpga::DeviceGrid& device,
                   const flow::FlowOptions& options, flow::Strategy strategy,
                   models::CongestionModel* model, Ledger& ledger) {
  Replay out;
  auto& result = out.result;
  const auto t_start = Clock::now();
  const Counters before = ledger.enabled() ? Counters::read() : Counters{};
  {
    auto s = ledger.span("place.problem");
    out.problem = std::make_unique<place::PlacementProblem>(design, device);
  }
  auto& problem = *out.problem;
  std::optional<place::GlobalPlacer> placer;
  {
    auto s = ledger.span("place.gp");
    placer.emplace(problem, options.placer);
    placer->init_random();
    placer->run_until_overflow_target();
    if (placer->total_iterations() < options.min_gp_iterations)
      placer->iterate(options.min_gp_iterations - placer->total_iterations());
  }
  ledger.count("place.gp_iters",
               static_cast<double>(placer->total_iterations()));

  features::FeatureOptions fopt;
  fopt.grid_width = options.grid;
  fopt.grid_height = options.grid;
  std::vector<double> cell_x, cell_y;
  std::int64_t inflated = 0;
  for (std::int64_t round = 0; round < options.inflation_rounds; ++round) {
    {
      auto s = ledger.span("place.expand");
      placer->placement().expand(problem, cell_x, cell_y);
    }
    std::vector<float> levels;
    if (strategy == flow::Strategy::Ours) {
      Tensor feats;
      {
        auto s = ledger.span("features.extract");
        feats = features::extract_features(design, device, cell_x, cell_y,
                                           fopt);
      }
      auto s = ledger.span("models.predict");
      Tensor batched = ops::reshape(
          feats, {1, feats.size(0), feats.size(1), feats.size(2)});
      Tensor pred = model->predict_levels(batched);
      levels.assign(pred.data(), pred.data() + pred.numel());
      for (const float v : levels)
        if (!std::isfinite(v))
          result.incidents.push_back({round, "predict", "non-finite level"});
    } else {
      features::FeatureOptions raw = fopt;
      raw.normalize = false;
      Tensor feats;
      {
        auto s = ledger.span("features.extract");
        feats = features::extract_features(design, device, cell_x, cell_y,
                                           raw);
      }
      auto s = ledger.span("flow.analytic");
      levels = flow::analytic_levels(strategy, feats);
    }
    {
      auto s = ledger.span("place.inflate");
      inflated += place::apply_inflation(problem, placer->placement(), levels,
                                         options.grid, options.grid,
                                         options.inflation)
                      .inflated_objects;
    }
    auto s = ledger.span("place.post_gp");
    placer->iterate(options.post_inflation_iterations);
  }
  ledger.count("place.inflated_objects", static_cast<double>(inflated));

  {
    auto s = ledger.span("place.legalize");
    out.legal = placer->placement();
    place::Legalizer::legalize_macros(problem, out.legal);
  }
  const double t_macro =
      std::chrono::duration<double>(Clock::now() - t_start).count() / 60.0;
  {
    auto s = ledger.span("place.expand");
    out.legal.expand(problem, cell_x, cell_y);
  }
  std::optional<route::GlobalRouter> router;
  {
    auto s = ledger.span("route.initial");
    route::RouterOptions ropt = options.router;
    const auto calibrated =
        route::calibrated_router_options(device, options.grid, options.grid);
    ropt.grid_width = calibrated.grid_width;
    ropt.grid_height = calibrated.grid_height;
    ropt.short_capacity = calibrated.short_capacity;
    ropt.global_capacity = calibrated.global_capacity;
    router.emplace(design, device, ropt);
    router->initial_route(cell_x, cell_y);
  }
  {
    auto s = ledger.span("route.analyze");
    result.analysis = router->analyze();
  }
  {
    auto s = ledger.span("route.detailed");
    result.detailed_iterations = router->detailed_route();
  }
  if (placer->budget_exhausted() || router->budget_exhausted())
    result.budget_exhausted = true;
  {
    auto s = ledger.span("route.score");
    result.s_ir = route::score::s_ir(result.analysis);
    result.s_dr = route::score::s_dr(result.detailed_iterations);
    result.s_r = route::score::s_r(result.s_ir, result.s_dr);
    result.routed_wirelength = router->routed_wirelength();
    result.t_pr_hours = route::score::t_pr_hours(
        result.s_ir, result.s_dr, result.routed_wirelength,
        router->num_connections());
    result.t_macro_minutes = t_macro;
    result.s_score = route::score::s_score(result.t_macro_minutes,
                                           result.s_r, result.t_pr_hours);
  }
  {
    auto s = ledger.span("place.wirelength");
    result.placed_wirelength = placer->wirelength();
  }
  result.inflated_objects = inflated;
  ledger.count("route.detailed_iters",
               static_cast<double>(result.detailed_iterations));
  ledger.count("route.connections",
               static_cast<double>(router->num_connections()));
  if (ledger.enabled())
    ledger.count("route.ripups", (Counters::read() - before).ripups);
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Output checks of one op over all designs; empty when every run is clean
/// and reproduces `reference` (per-design S_score) bit for bit.
std::string check_op(const std::vector<flow::FlowResult>& runs,
                     const std::vector<double>& reference) {
  std::string problem;
  for (size_t d = 0; d < runs.size(); ++d) {
    const auto& r = runs[d];
    for (const auto& inc : r.incidents)
      problem += "incident " + inc.stage + ": " + inc.detail + "; ";
    if (r.budget_exhausted) problem += "budget exhausted; ";
    if (!std::isfinite(r.s_score) || r.s_score <= 0.0)
      problem += "S_score not finite and positive; ";
    if (d < reference.size() && !same_bits(r.s_score, reference[d]))
      problem += log::format("S_score %.17g differs from %.17g; ", r.s_score,
                             reference[d]);
  }
  return problem;
}

void run_flow(const Args& args, const FlowWorkload& w, Result& result) {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(60, 40);
  std::vector<netlist::Design> designs;
  std::unique_ptr<models::CongestionModel> model;
  Ledger setup_ledger(args.trace);
  std::vector<double> replay_scores;  // warm-up replay, per design
  std::vector<double> reference;      // first run(), per design

  const auto setup = [&] {
    setup_ledger.begin_op();
    designs.clear();
    model.reset();
    {
      auto s = setup_ledger.span("netlist.generate");
      for (const auto& name : w.designs)
        designs.push_back(netlist::DesignGenerator::generate(
            netlist::mlcad2023_spec(name), device));
    }
    if (w.train_predictor) {
      // Trained on placements from other placer seeds than the timed flows,
      // as the Table II bench does.
      std::vector<train::Sample> samples;
      {
        auto s = setup_ledger.span("train.dataset");
        for (const auto& name : w.designs) {
          train::DatasetOptions dopt;
          dopt.grid = kGrid;
          dopt.placements_per_design = kPredictorPlacements;
          dopt.seed = kDatasetSeed;
          const auto part = train::DatasetBuilder::build_for_design(
              netlist::mlcad2023_spec(name), device, dopt);
          samples.insert(samples.end(), part.begin(), part.end());
        }
      }
      auto s = setup_ledger.span("train.fit");
      model = train_predictor(samples, result);
    }
    // Warm-up op: the stage replay, which touches every shape the timed
    // flows will, and whose legalised placements get the legality check.
    std::vector<flow::FlowResult> warm;
    std::string problem;
    Ledger off(false);
    for (const auto& design : designs) {
      auto replay = replay_flow(design, device, flow::FlowOptions{},
                                w.strategy, model.get(), off);
      const auto legality =
          place::Legalizer::check_macros(*replay.problem, replay.legal);
      if (!legality.empty()) problem += "illegal macros: " + legality + "; ";
      warm.push_back(replay.result);
    }
    result.op(problem + check_op(warm, {}));
    replay_scores.clear();
    for (const auto& r : warm) replay_scores.push_back(r.s_score);
    setup_ledger.end_op();
  };

  // Untraced ops time run(); in a traced run every second op is a traced
  // replay instead, so host drift hits both sides of the overhead estimate.
  Ledger ledger(args.trace);
  std::vector<double> untraced_ms;
  Counters traced_counts;
  const auto op = [&](std::int64_t i) {
    if (args.trace && i % 2 == 1) {
      const Counters before = Counters::read();
      std::vector<flow::FlowResult> runs;
      ledger.begin_op();
      for (const auto& design : designs)
        runs.push_back(replay_flow(design, device, flow::FlowOptions{},
                                   w.strategy, model.get(), ledger)
                           .result);
      ledger.end_op();
      traced_counts += Counters::read() - before;
      const auto problem = check_op(runs, reference);
      result.op(problem.empty() ? ""
                                : "ledger invalid: the stage replay does not "
                                  "reproduce run(): " + problem);
      return;
    }
    const auto t0 = Clock::now();
    std::vector<flow::FlowResult> runs;
    for (const auto& design : designs) {
      flow::RoutabilityDrivenPlacer flow(design, device, flow::FlowOptions{});
      runs.push_back(flow.run(w.strategy, model.get()));
    }
    untraced_ms.push_back(ms_since(t0));
    std::fprintf(stderr, "perfbench: %s op %lld: %.3f s\n",
                 args.workload.c_str(), static_cast<long long>(i),
                 untraced_ms.back() / 1000.0);
    if (reference.empty())
      for (const auto& r : runs) reference.push_back(r.s_score);
    result.op(check_op(runs, reference));
  };
  const auto n = op_count(args.seconds, w.nominal_op_s, kMinOps);
  const double setup_s = args.trace
                             ? run_rounds(1, 2 * ((n + 1) / 2), setup, op)
                             : run_rounds(kRounds, n, setup, op);

  if (!args.trace) {
    double log_sum = 0.0;
    for (const double s : reference) log_sum += std::log(s);
    const double op_ms = median(untraced_ms);
    result.set("setup_s", setup_s, "s");
    result.set("op_ms", op_ms, "ms");
    result.set("items_per_s",
               static_cast<double>(designs.size()) / (op_ms / 1000.0), "1/s");
    result.set("quality_cost",
               std::exp(log_sum / static_cast<double>(reference.size())), "1");
    for (size_t d = 0; d < reference.size(); ++d)
      if (!same_bits(replay_scores[d], reference[d]))
        std::fprintf(stderr,
                     "perfbench: note: stage replay of %s gives S_score "
                     "%.17g, run() %.17g; the ledger would be invalid\n",
                     w.designs[d].c_str(), replay_scores[d], reference[d]);
    return;
  }
  if (!result.correct) {
    result.metrics.clear();
    return;
  }
  if (const char* dir = std::getenv("PERFBENCH_TRACE_DIR"))
    ledger.write_chrome_trace(std::string(dir) + "/" + args.workload +
                              ".trace.json");

  const auto med = [&](const char* name) {
    return median(ledger.per_op(name));
  };
  const auto ratio_med = [&](const char* num, const char* den) {
    const auto a = ledger.per_op(num), b = ledger.per_op(den);
    std::vector<double> r;
    for (size_t i = 0; i < a.size(); ++i)
      if (b[i] > 0) r.push_back(a[i] / b[i]);
    return median(r);
  };
  result.set("netlist.generate_ms",
             median(setup_ledger.per_op("netlist.generate")), "ms");
  result.set("place.problem_ms", med("place.problem"), "ms");
  result.set("place.gp_ms", med("place.gp"), "ms");
  result.set("place.gp_iters", med("place.gp_iters"), "count");
  result.set("place.gp_ms_per_iter", ratio_med("place.gp", "place.gp_iters"),
             "ms");
  result.set("place.post_gp_ms", med("place.post_gp"), "ms");
  result.set("place.inflate_ms", med("place.inflate"), "ms");
  result.set("place.inflated_objects", med("place.inflated_objects"), "count");
  result.set("place.legalize_ms", med("place.legalize"), "ms");
  result.set("features.extract_ms", med("features.extract"), "ms");
  result.set("route.initial_ms", med("route.initial"), "ms");
  result.set("route.analyze_ms", med("route.analyze"), "ms");
  result.set("route.detailed_ms", med("route.detailed"), "ms");
  result.set("route.detailed_iters", med("route.detailed_iters"), "count");
  result.set("route.ms_per_iter",
             ratio_med("route.detailed", "route.detailed_iters"), "ms");
  result.set("route.connections", med("route.connections"), "count");
  result.set("route.ripups", med("route.ripups"), "count");
  if (w.train_predictor) {
    result.set("train.dataset_ms",
               median(setup_ledger.per_op("train.dataset")), "ms");
    result.set("models.predict_ms", med("models.predict"), "ms");
    result.set_counters(traced_counts,
                        static_cast<double>(ledger.op_ms().size()));
  } else {
    result.set("flow.analytic_ms", med("flow.analytic"), "ms");
  }
  result.set_coverage("flow", ledger, untraced_ms);
}

}  // namespace

void run_flow_ml(const Args& args, Result& result) {
  run_flow(args,
           {{"Design_116", "Design_227"}, flow::Strategy::Ours, true, 2.5},
           result);
}

void run_flow_route(const Args& args, Result& result) {
  run_flow(args, {{"Design_180"}, flow::Strategy::Utda, false, 2.6}, result);
}

}  // namespace perfbench
