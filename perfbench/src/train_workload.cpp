// train: one timed op is one Trainer::fit epoch of the "ours" model at 64^2,
// batch 4, over a dataset built in set-up. The traced run replays the epoch
// through train / models / tensor / nn public calls.
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/log.h"
#include "common/rng.h"
#include "models/congestion_model.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "tensor/tape.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

using namespace mfa;

constexpr std::int64_t kGrid = 64;
constexpr std::int64_t kMinOps = 10;
constexpr double kNominalEpochS = 0.4;
const std::vector<std::string> kDesigns = {"Design_116", "Design_227"};
// Placements per design (x4 rotations); every second placement is held out,
// so 8 samples train and 8 evaluate.
constexpr std::int64_t kPlacements = 2;
constexpr std::int64_t kHoldoutEvery = 2;
// The dataset, initial weights and epoch shuffles are a fixed instance, not
// drawn from the workload seed: eval_acc spans 0.16-0.40 over seeds 1-5
// (README.md, "Seeds"), far beyond any usable bound.
constexpr std::uint64_t kInstanceSeed = 1;
// The predictor recipe bench_table2 uses at MFA_SEED=1.
constexpr std::int64_t kPredictorEpochs = 4;
constexpr std::uint64_t kModelSeed = 8;
constexpr std::uint64_t kTrainSeed = 14;

train::TrainOptions epoch_options(std::uint64_t seed) {
  train::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 4;
  options.seed = seed;
  return options;
}

std::string check_epoch(const train::FitReport& report) {
  if (report.rollbacks > 0) return "epoch rolled back";
  if (report.diverged || report.epochs_run != 1) return "epoch did not finish";
  if (!std::isfinite(report.final_loss)) return "non-finite loss";
  return "";
}

/// One Trainer::fit epoch (epochs = 1) replayed call by call: the same
/// shuffle, batches, forward, loss, backward and Adam steps.
double replay_epoch(models::CongestionModel& model,
                    const std::vector<train::Sample>& samples,
                    const train::TrainOptions& options, Ledger& ledger,
                    double& parallel_tasks) {
  auto& net = model.network();
  net.train(true);
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng = Rng(options.seed).fork(1);  // the trainer's stream for epoch 0
  for (auto i = static_cast<std::int64_t>(order.size()) - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.uniform_int(0, i))]);
  std::optional<nn::Adam> optimizer;
  {
    auto s = ledger.span("nn.optim");
    optimizer.emplace(net.parameters(), options.learning_rate);
  }
  double loss_sum = 0.0;
  std::int64_t batches = 0;
  const auto batch = static_cast<size_t>(options.batch_size);
  for (size_t i0 = 0; i0 < order.size(); i0 += batch) {
    Tensor features, labels;
    {
      auto s = ledger.span("train.batch");
      train::stack_batch(samples, order, i0, std::min(order.size(), i0 + batch),
                         features, labels);
    }
    {
      auto s = ledger.span("nn.optim");
      optimizer->zero_grad();
    }
    Tensor logits;
    {
      auto s = ledger.span("models.forward");
      logits = model.forward(features);
    }
    Tensor loss;
    {
      auto s = ledger.span("tensor.loss");
      loss = ops::cross_entropy(logits, labels);
      loss_sum += loss.item();
    }
    {
      auto s = ledger.span("tensor.backward");
      loss.backward();
      parallel_tasks += static_cast<double>(
          tensor::Tape::current().last_plan().parallel_tasks);
    }
    auto s = ledger.span("nn.optim");
    optimizer->step();
    ++batches;
  }
  return loss_sum / static_cast<double>(batches);
}

}  // namespace

void build_split(const std::vector<std::string>& designs,
                 std::int64_t placements, const fpga::DeviceGrid& device,
                 std::vector<train::Sample>& train_set,
                 std::vector<train::Sample>& eval_set) {
  std::vector<train::Sample> all;
  for (const auto& name : designs) {
    train::DatasetOptions dopt;
    dopt.grid = kGrid;
    dopt.placements_per_design = placements;
    dopt.seed = derive_seed(kInstanceSeed, "dataset");
    const auto part = train::DatasetBuilder::build_for_design(
        netlist::mlcad2023_spec(name), device, dopt);
    all.insert(all.end(), part.begin(), part.end());
  }
  train_set.clear();
  eval_set.clear();
  train::DatasetBuilder::split(all, kHoldoutEvery, train_set, eval_set);
}

std::unique_ptr<models::CongestionModel> train_predictor(
    const std::vector<train::Sample>& samples, Result& result) {
  models::ModelConfig config;
  config.grid = kGrid;
  config.seed = kModelSeed;
  auto model = models::make_model("ours", config);
  train::TrainOptions topt;
  topt.epochs = kPredictorEpochs;
  topt.batch_size = 4;
  topt.seed = kTrainSeed;
  const auto report = train::Trainer::fit_resumable(*model, samples, topt);
  if (report.rollbacks > 0 || report.diverged ||
      !std::isfinite(report.final_loss))
    result.invalid("predictor training rolled back or diverged");
  return model;
}

void run_train(const Args& args, Result& result) {
  const std::uint64_t seed = kInstanceSeed;
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(60, 40);
  std::vector<train::Sample> train_set, eval_set;
  std::unique_ptr<models::CongestionModel> model;
  Ledger setup_ledger(args.trace);

  const auto setup = [&] {
    setup_ledger.begin_op();
    {
      auto s = setup_ledger.span("train.dataset");
      build_split(kDesigns, kPlacements, device, train_set, eval_set);
    }
    models::ModelConfig config;
    config.grid = kGrid;
    config.seed = derive_seed(seed, "model");
    model = models::make_model("ours", config);
    // Warm-up op: one epoch, so the pool and tape arena hold every shape.
    result.op(check_epoch(train::Trainer::fit_resumable(
        *model, train_set, epoch_options(derive_seed(seed, "warm-up")))));
    setup_ledger.end_op();
  };

  // Untraced ops are Trainer::fit epochs; in a traced run every second op
  // is a traced replay of one instead.
  Ledger ledger(args.trace);
  std::vector<double> untraced_ms;
  Counters counts;
  double parallel_tasks = 0.0;
  const auto op = [&](std::int64_t i) {
    const auto options =
        epoch_options(derive_seed(seed, "epoch:" + std::to_string(i)));
    if (args.trace && i % 2 == 1) {
      const Counters before = Counters::read();
      ledger.begin_op();
      const double loss =
          replay_epoch(*model, train_set, options, ledger, parallel_tasks);
      ledger.end_op();
      counts += Counters::read() - before;
      result.op(std::isfinite(loss) ? "" : "non-finite loss in replayed epoch");
      return;
    }
    const auto t0 = Clock::now();
    const auto report =
        train::Trainer::fit_resumable(*model, train_set, options);
    untraced_ms.push_back(ms_since(t0));
    result.op(check_epoch(report));
  };
  const auto n = op_count(args.seconds, kNominalEpochS, kMinOps);
  const double setup_s = args.trace
                             ? run_rounds(1, 2 * ((n + 1) / 2), setup, op)
                             : run_rounds(kRounds, n, setup, op);

  const auto t0 = Clock::now();
  const auto eval = train::Trainer::evaluate(*model, eval_set);
  const double evaluate_ms = ms_since(t0);
  if (!(eval.acc > 0.0 && eval.acc <= 1.0) || !std::isfinite(eval.nrms) ||
      eval.nrms <= 0.0)
    result.invalid(log::format("evaluation out of range: acc %g nrms %g",
                               eval.acc, eval.nrms));
  if (!args.trace) {
    std::vector<double> rate;
    for (const double ms : untraced_ms)
      rate.push_back(static_cast<double>(train_set.size()) / (ms / 1000.0));
    result.set("setup_s", setup_s, "s");
    result.set("op_ms", median(untraced_ms), "ms");
    result.set("items_per_s", median(rate), "1/s");
    result.set("quality_cost", eval.nrms, "1");
    result.note("eval_acc", eval.acc);
    return;
  }
  if (!result.correct) {
    result.metrics.clear();
    return;
  }
  if (const char* dir = std::getenv("PERFBENCH_TRACE_DIR"))
    ledger.write_chrome_trace(std::string(dir) + "/train.trace.json");

  const double epochs = static_cast<double>(ledger.op_ms().size());
  const auto med = [&](const char* name) {
    return median(ledger.per_op(name));
  };
  result.set("train.dataset_ms", median(setup_ledger.per_op("train.dataset")),
             "ms");
  result.set("train.batch_ms", med("train.batch"), "ms");
  result.set("train.evaluate_ms", evaluate_ms, "ms");
  result.set("models.forward_ms", med("models.forward"), "ms");
  result.set("tensor.loss_ms", med("tensor.loss"), "ms");
  result.set("tensor.backward_ms", med("tensor.backward"), "ms");
  result.set("nn.optim_ms", med("nn.optim"), "ms");
  result.set("tensor.backward_parallel_tasks", parallel_tasks / epochs,
             "count");
  result.set_counters(counts, epochs);
  result.set_coverage("train", ledger, untraced_ms);
}

}  // namespace perfbench
