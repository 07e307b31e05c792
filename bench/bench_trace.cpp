// Timeline capture driver: runs a small but complete pipeline — synthetic
// dataset -> 2-epoch training -> the full routability-driven flow with the
// trained model — with the observability layer forced on, then writes the
// span ring as Chrome trace_event JSON. Load the output in chrome://tracing
// (or ui.perfetto.dev) to see where the run spent its time: trainer epochs,
// flow rounds, predictor forwards, inflation, placer iterations and the
// router stages all appear as nested "X" slices.
//
// Exits 1, naming what is missing, unless the trace holds a span from each
// pipeline stage (trainer epoch, flow round, placer iteration, detailed
// route); ctest runs it as `trace_spans`.
//
// Usage: bench_trace <output.json>
// Knobs (environment): MFA_TRACE_EPOCHS (default 2), MFA_SEED (1).
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench_util.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "flow/flow.h"
#include "models/congestion_model.h"
#include "netlist/generator.h"
#include "train/dataset.h"
#include "train/trainer.h"

using namespace mfa;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_trace <output.json>\n");
    return 2;
  }
  const std::string out_path = argv[1];
  log::set_level(log::Level::Warn);
  obs::set_enabled(true);  // the timeline is the whole point of this binary
  obs::trace_reset();

  const auto seed = static_cast<std::uint64_t>(bench::env_int("MFA_SEED", 1));
  const auto epochs = bench::env_int("MFA_TRACE_EPOCHS", 2);
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(40, 32);
  netlist::DesignSpec spec = netlist::mlcad2023_spec("Design_116");
  spec.lut_util *= 0.4;
  spec.ff_util *= 0.4;
  spec.dsp_util *= 0.6;
  spec.bram_util *= 0.6;

  // ---- train a small model (trainer.fit / trainer.epoch spans) ----
  train::DatasetOptions dopt;
  dopt.grid = 32;
  dopt.placements_per_design = 2;
  dopt.augment_rotations = false;
  dopt.placer_iterations = 40;
  dopt.seed = seed + 6;
  const auto samples =
      train::DatasetBuilder::build_for_design(spec, device, dopt);

  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = seed + 2;
  auto model = models::make_model("ours", config);
  train::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = 2;
  topt.seed = seed;
  train::Trainer::fit(*model, samples, topt);

  // ---- full flow with the trained predictor (flow.* / placer.* /
  // router.* spans) ----
  const auto design = netlist::DesignGenerator::generate(spec, device);
  flow::FlowOptions fopt;
  fopt.grid = 32;
  fopt.placer.seed = seed + 4;
  fopt.placer.max_iterations = 60;
  fopt.min_gp_iterations = 60;
  fopt.inflation_rounds = 1;
  fopt.post_inflation_iterations = 15;
  flow::RoutabilityDrivenPlacer placer_flow(design, device, fopt);
  const auto result = placer_flow.run(flow::Strategy::Ours, model.get());

  if (!obs::write_chrome_trace(out_path)) {
    std::fprintf(stderr, "bench_trace: failed to write %s\n", out_path.c_str());
    return 1;
  }
  const auto spans = obs::trace_snapshot();
  std::printf("bench_trace: S_score %.1f, %lld spans (%lld recorded) -> %s\n",
              result.s_score, static_cast<long long>(spans.size()),
              static_cast<long long>(obs::trace_total_recorded()),
              out_path.c_str());
  std::set<std::string> names;
  for (const auto& e : spans) names.insert(e.name);
  int missing = 0;
  for (const char* required : {"trainer.epoch", "flow.round", "placer.iterate",
                               "router.detailed_route"}) {
    if (names.count(required) == 0) {
      std::fprintf(stderr, "bench_trace: no %s span in the trace\n", required);
      ++missing;
    }
  }
  return missing == 0 ? 0 : 1;
}
