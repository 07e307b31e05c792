#include "train/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace mfa::train {

namespace fs = std::filesystem;

void stack_batch(const std::vector<Sample>& samples,
                 const std::vector<size_t>& order, size_t i0, size_t i1,
                 Tensor& features, Tensor& labels) {
  const auto b = static_cast<std::int64_t>(i1 - i0);
  const auto& first = samples[order[i0]];
  const std::int64_t C = first.features.size(0);
  const std::int64_t H = first.features.size(1);
  const std::int64_t W = first.features.size(2);
  features = Tensor::zeros({b, C, H, W});
  labels = Tensor::zeros({b, H, W});
  for (size_t i = i0; i < i1; ++i) {
    const auto& s = samples[order[i]];
    std::copy(s.features.data(), s.features.data() + C * H * W,
              features.data() + static_cast<std::int64_t>(i - i0) * C * H * W);
    std::copy(s.label.data(), s.label.data() + H * W,
              labels.data() + static_cast<std::int64_t>(i - i0) * H * W);
  }
}

std::string checkpoint_path(const std::string& dir, std::int64_t epoch) {
  return (fs::path(dir) /
          log::format("checkpoint-%05lld.bin", static_cast<long long>(epoch)))
      .string();
}

std::string resume_from(nn::Module& module, const std::string& dir,
                        nn::CheckpointMeta* meta) {
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return "";
  // Collect candidates newest-first by epoch number in the filename.
  std::vector<std::pair<std::int64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // checkpoint-NNNNN.bin; anything else (including .tmp leftovers from an
    // interrupted atomic save) is not a valid snapshot.
    constexpr const char* kPrefix = "checkpoint-";
    constexpr const char* kSuffix = ".bin";
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) continue;
    if (name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix),
                     kSuffix) != 0)
      continue;
    const std::string digits = name.substr(
        std::strlen(kPrefix),
        name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    candidates.emplace_back(std::stoll(digits), entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [epoch, path] : candidates) {
    try {
      nn::CheckpointMeta parsed;
      nn::load_checkpoint(module, path, &parsed);
      if (meta) *meta = parsed;
      return path;
    } catch (const std::exception& e) {
      log::warn("resume_from: rejecting %s (%s)", path.c_str(), e.what());
    }
  }
  return "";
}

namespace {

/// Deterministic per-epoch shuffle stream: depends only on (seed, epoch), so
/// a resumed run replays the batch order of the uninterrupted run.
Rng epoch_rng(std::uint64_t seed, std::int64_t epoch) {
  return Rng(seed).fork(static_cast<std::uint64_t>(epoch) + 1);
}

void shuffle(std::vector<size_t>& order, Rng& rng) {
  for (auto i = static_cast<std::int64_t>(order.size()) - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.uniform_int(0, i))]);
}

}  // namespace

double Trainer::fit(models::CongestionModel& model,
                    const std::vector<Sample>& train_set,
                    const TrainOptions& options) {
  return fit_resumable(model, train_set, options).final_loss;
}

FitReport Trainer::fit_resumable(models::CongestionModel& model,
                                 const std::vector<Sample>& train_set,
                                 const TrainOptions& options) {
  FitReport report;
  report.final_learning_rate = options.learning_rate;
  if (train_set.empty()) return report;
  auto& net = model.network();
  net.train(true);

  float lr = options.learning_rate;
  std::int64_t start_epoch = 0;
  if (!options.checkpoint_dir.empty()) {
    fs::create_directories(options.checkpoint_dir);
    nn::CheckpointMeta meta;
    const auto loaded = resume_from(net, options.checkpoint_dir, &meta);
    if (!loaded.empty()) {
      start_epoch = meta.epoch + 1;
      if (meta.learning_rate > 0.0f) lr = meta.learning_rate;
      log::info("%s resuming from %s (epoch %lld, lr %g)", model.name(),
                loaded.c_str(), static_cast<long long>(meta.epoch),
                static_cast<double>(lr));
    }
  }
  report.start_epoch = start_epoch;

  // Last-good state for divergence rollback: the parameters and batch-norm
  // statistics after the most recent healthy epoch (initially the starting
  // state). A deep copy, since the optimizer and the forward passes write
  // the live tensors in place; held in pooled Storage that copy_from refills
  // in place, so re-snapshotting every epoch allocates nothing after the
  // first.
  auto state = net.state();
  std::vector<tensor::Storage> good(state.size());
  double good_loss = 0.0;
  bool have_good_loss = false;
  const auto snapshot = [&] {
    for (size_t i = 0; i < state.size(); ++i)
      good[i].copy_from(state[i].second.data(), state[i].second.numel());
  };
  const auto restore = [&] {
    for (size_t i = 0; i < state.size(); ++i)
      std::copy(good[i].begin(), good[i].end(), state[i].second.data());
    net.zero_grad();
  };
  snapshot();

  auto params = net.parameters();
  auto optimizer = std::make_unique<nn::Adam>(params, lr);
  std::vector<size_t> order(train_set.size());

  double final_loss = 0.0;
  const auto fit_start = std::chrono::steady_clock::now();
  const auto budget_spent = [&] {
    if (MFA_FAULT_POINT("trainer.budget")) return true;
    if (options.time_budget_seconds <= 0.0) return false;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fit_start)
            .count();
    return elapsed > options.time_budget_seconds;
  };
  MFA_TRACE_SCOPE("trainer.fit");
  static obs::Counter obs_epochs = obs::counter("trainer.epochs");
  static obs::Counter obs_batches = obs::counter("trainer.batches");
  static obs::Counter obs_rollbacks = obs::counter("trainer.rollbacks");
  static obs::Counter obs_checkpoints = obs::counter("trainer.checkpoints");
  static obs::Gauge obs_loss = obs::gauge("trainer.loss");
  std::int64_t epoch = start_epoch;
  while (epoch < options.epochs) {
    MFA_TRACE_SCOPE("trainer.epoch");
    if (budget_spent()) {
      report.budget_exhausted = true;
      log::warn("%s wall-clock budget (%g s) exhausted after %lld epochs; "
                "keeping the parameters trained so far",
                model.name(), options.time_budget_seconds,
                static_cast<long long>(report.epochs_run));
      break;
    }
    order.resize(train_set.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng rng = epoch_rng(options.seed, epoch);
    shuffle(order, rng);

    double epoch_loss = 0.0;
    std::int64_t batches = 0;
    bool failed = false;
    std::string why;
    try {
      for (size_t i0 = 0; i0 < order.size();
           i0 += static_cast<size_t>(options.batch_size)) {
        if (MFA_FAULT_POINT("trainer.crash"))
          throw std::runtime_error("trainer: fault-injected crash mid-epoch");
        const size_t i1 = std::min(
            order.size(), i0 + static_cast<size_t>(options.batch_size));
        Tensor features, labels;
        stack_batch(train_set, order, i0, i1, features, labels);
        optimizer->zero_grad();
        Tensor logits = model.forward(features);
        Tensor loss = ops::cross_entropy(logits, labels);
        // Auxiliary head (e.g. LHNN's net-level regression): both scalars
        // backpropagate in one multi-root pass over the shared subgraph,
        // and the auxiliary term joins the divergence monitor so a blowing
        // up side head triggers the same rollback as the main loss.
        Tensor aux = model.take_auxiliary_loss();
        double batch_loss = loss.item();
        if (aux.defined()) batch_loss += aux.item();
        if (!std::isfinite(batch_loss)) {
          failed = true;
          why = "non-finite batch loss";
          break;
        }
        if (aux.defined()) {
          Tensor::backward_multi({loss, aux});
        } else {
          loss.backward();
        }
        optimizer->step();
        epoch_loss += batch_loss;
        ++batches;
        obs_batches.add();
      }
    } catch (const check::CheckError& e) {
      // The numeric stack detected a broken invariant (e.g. the finite-grad
      // guard caught a NaN gradient): treat it like a diverged epoch.
      failed = true;
      why = e.what();
    }
    if (!failed) {
      epoch_loss /= static_cast<double>(std::max<std::int64_t>(1, batches));
      if (!std::isfinite(epoch_loss)) {
        failed = true;
        why = "non-finite epoch loss";
      } else if (have_good_loss &&
                 epoch_loss > options.divergence_factor * good_loss) {
        failed = true;
        why = log::format("loss spiked to %.4g (last good %.4g)", epoch_loss,
                          good_loss);
      }
    }

    if (failed) {
      restore();
      if (report.rollbacks >= options.max_rollbacks) {
        log::error("%s epoch %lld diverged (%s); rollback budget exhausted, "
                   "keeping last good parameters",
                   model.name(), static_cast<long long>(epoch + 1),
                   why.c_str());
        report.diverged = true;
        break;
      }
      ++report.rollbacks;
      obs_rollbacks.add();
      lr *= 0.5f;
      optimizer = std::make_unique<nn::Adam>(params, lr);
      log::warn("%s epoch %lld diverged (%s); rolled back, lr -> %g "
                "(retry %lld/%lld)",
                model.name(), static_cast<long long>(epoch + 1), why.c_str(),
                static_cast<double>(lr),
                static_cast<long long>(report.rollbacks),
                static_cast<long long>(options.max_rollbacks));
      continue;  // retry the same epoch
    }

    snapshot();
    good_loss = epoch_loss;
    have_good_loss = true;
    final_loss = epoch_loss;
    ++report.epochs_run;
    obs_epochs.add();
    obs_loss.set(epoch_loss);
    if (options.verbose)
      log::info("%s epoch %lld/%lld loss %.4f", model.name(),
                static_cast<long long>(epoch + 1),
                static_cast<long long>(options.epochs), epoch_loss);
    if (!options.checkpoint_dir.empty()) {
      nn::CheckpointMeta meta;
      meta.epoch = epoch;
      meta.learning_rate = lr;
      nn::save_checkpoint(net, checkpoint_path(options.checkpoint_dir, epoch),
                          meta);
      ++report.checkpoints_written;
      obs_checkpoints.add();
    }
    ++epoch;
  }
  report.final_loss = have_good_loss ? (report.diverged ? good_loss
                                                        : final_loss)
                                     : final_loss;
  report.final_learning_rate = lr;
  return report;
}

std::string FitReport::metrics_json() const {
  std::string out = "{\"report\":{";
  out += log::format(
      "\"final_loss\":%.17g,\"epochs_run\":%lld,\"start_epoch\":%lld,"
      "\"rollbacks\":%lld,\"checkpoints_written\":%lld,\"diverged\":%s,"
      "\"budget_exhausted\":%s,\"final_learning_rate\":%.9g",
      final_loss, static_cast<long long>(epochs_run),
      static_cast<long long>(start_epoch), static_cast<long long>(rollbacks),
      static_cast<long long>(checkpoints_written),
      diverged ? "true" : "false", budget_exhausted ? "true" : "false",
      static_cast<double>(final_learning_rate));
  out += "},\"metrics\":";
  out += obs::Registry::instance().metrics_json();
  out += "}";
  return out;
}

EvalResult Trainer::evaluate(models::CongestionModel& model,
                             const std::vector<Sample>& eval_set) {
  EvalResult result;
  if (eval_set.empty()) return result;
  // Concatenate predictions/labels over the whole set, then compute metrics
  // once (matches per-design averaging in Table I).
  const std::int64_t H = eval_set[0].label.size(0);
  const std::int64_t W = eval_set[0].label.size(1);
  const auto n = static_cast<std::int64_t>(eval_set.size());
  Tensor all_pred = Tensor::zeros({n, H, W});
  Tensor all_label = Tensor::zeros({n, H, W});
  std::vector<size_t> order(eval_set.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const std::int64_t batch = 8;
  for (std::int64_t i0 = 0; i0 < n; i0 += batch) {
    const auto i1 = std::min(n, i0 + batch);
    Tensor features, labels;
    stack_batch(eval_set, order, static_cast<size_t>(i0),
                static_cast<size_t>(i1), features, labels);
    Tensor pred = model.predict_levels(features);
    std::copy(pred.data(), pred.data() + (i1 - i0) * H * W,
              all_pred.data() + i0 * H * W);
    std::copy(labels.data(), labels.data() + (i1 - i0) * H * W,
              all_label.data() + i0 * H * W);
  }
  result.acc = metrics::accuracy(all_pred, all_label);
  result.r2 = metrics::r_squared(all_pred, all_label);
  result.nrms = metrics::nrms(all_pred, all_label);
  return result;
}

}  // namespace mfa::train
