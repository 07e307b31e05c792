// Training loop for congestion models: Adam at lr 1e-3 (paper §V-A),
// per-tile cross-entropy over the congestion-level classes (§III-D).
//
// Fault tolerance (see DESIGN.md, "Fault model"): with a checkpoint_dir set,
// fit() writes an atomic CRC-checked checkpoint after every healthy epoch
// and resumes from the latest valid one after a crash; a diverging epoch
// (non-finite or spiking loss, or a CheckError out of the numeric stack)
// rolls the model state (parameters and batch-norm statistics) back to the
// last good epoch and halves the learning rate, up to max_rollbacks times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "models/congestion_model.h"
#include "nn/checkpoint.h"
#include "train/dataset.h"
#include "train/metrics.h"

namespace mfa::train {

struct TrainOptions {
  std::int64_t epochs = 4;
  std::int64_t batch_size = 4;
  float learning_rate = 1e-3f;  // paper: Adam, lr 0.001
  std::uint64_t seed = 1;
  bool verbose = false;
  // ---- crash-safe training ----
  /// Directory for per-epoch checkpoints (created if missing). When set,
  /// fit resumes from the newest valid checkpoint-NNNNN.bin in it and writes
  /// one after every healthy epoch; empty disables both.
  std::string checkpoint_dir;
  // ---- divergence rollback ----
  /// An epoch whose mean loss exceeds divergence_factor x the last good
  /// epoch's loss (or is non-finite) is rolled back.
  double divergence_factor = 3.0;
  /// Rollback retries before giving up (each halves the learning rate).
  std::int64_t max_rollbacks = 3;
  // ---- wall-clock budget ----
  /// Budget for the whole fit (0 = unlimited), checked at epoch boundaries
  /// like the placer/router budgets: the epoch in flight when the clock runs
  /// out is the last one, the completed epochs' parameters are kept, and
  /// FitReport::budget_exhausted reports the cut.
  double time_budget_seconds = 0.0;
};

struct EvalResult {
  double acc = 0.0;
  double r2 = 0.0;
  double nrms = 0.0;
};

/// What fit() actually did — epochs run, recovery actions taken.
struct FitReport {
  double final_loss = 0.0;  // mean loss of the last completed epoch
  std::int64_t epochs_run = 0;
  std::int64_t start_epoch = 0;  // > 0 when resumed from a checkpoint
  std::int64_t rollbacks = 0;
  std::int64_t checkpoints_written = 0;
  /// True when max_rollbacks was exhausted; the model state is left at the
  /// last good epoch rather than the diverged state.
  bool diverged = false;
  /// True when time_budget_seconds stopped training before options.epochs.
  bool budget_exhausted = false;
  float final_learning_rate = 0.0f;

  /// JSON view of this report plus the process metrics registry snapshot:
  /// {"report":{...},"metrics":{...}}. The metrics half carries the obs
  /// counters/histograms the fit recorded (trainer.epoch timings, rollback
  /// counts, pool/thread-pool stats); with MFA_OBS=off it is just "{}".
  std::string metrics_json() const;
};

class Trainer {
 public:
  /// Trains the model in place; returns the mean loss of the final epoch.
  /// Thin wrapper over fit_resumable for callers that only want the loss.
  static double fit(models::CongestionModel& model,
                    const std::vector<Sample>& train_set,
                    const TrainOptions& options);

  /// Full fault-tolerant training loop: checkpoint / resume / rollback per
  /// TrainOptions. The per-epoch shuffle is derived from (seed, epoch), so a
  /// resumed run replays the same batch order the uninterrupted run saw.
  static FitReport fit_resumable(models::CongestionModel& model,
                                 const std::vector<Sample>& train_set,
                                 const TrainOptions& options);

  /// Computes ACC / R^2 / NRMS of the model over a sample set.
  static EvalResult evaluate(models::CongestionModel& model,
                             const std::vector<Sample>& eval_set);
};

/// Scans `dir` for checkpoint files (checkpoint-NNNNN.bin) and loads the
/// newest one that validates into `module` (corrupt or truncated candidates
/// are skipped with a warning; *.tmp leftovers from interrupted saves are
/// ignored). Returns the loaded path, or "" when nothing valid was found.
std::string resume_from(nn::Module& module, const std::string& dir,
                        nn::CheckpointMeta* meta = nullptr);

/// Path of the checkpoint for `epoch` inside `dir` (checkpoint-NNNNN.bin).
std::string checkpoint_path(const std::string& dir, std::int64_t epoch);

/// Stacks samples [i0, i1) into batched feature [B,6,H,W] and label [B,H,W]
/// tensors (exposed for tests).
void stack_batch(const std::vector<Sample>& samples,
                 const std::vector<size_t>& order, size_t i0, size_t i1,
                 Tensor& features, Tensor& labels);

}  // namespace mfa::train
