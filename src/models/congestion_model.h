// Common interface of all congestion predictors compared in Table I.
#pragma once

#include <memory>
#include <string>

#include "models/config.h"
#include "nn/module.h"

namespace mfa::models {

class CongestionModel {
 public:
  virtual ~CongestionModel() = default;
  virtual const char* name() const = 0;
  /// The underlying network (for parameters/optimizer/train-eval mode).
  virtual nn::Module& network() = 0;
  /// features [N, 6, H, W] -> per-class logits [N, num_classes, H, W].
  virtual Tensor forward(const Tensor& features) = 0;

  /// Auxiliary training loss produced by the last forward(), if any (LHNN's
  /// net-level head). Move-out semantics: returns the stored scalar and
  /// clears it, so the caller owns the only reference and the model does not
  /// keep the last step's graph alive. Default: none (undefined tensor). The
  /// trainer runs Tensor::backward_multi({loss, aux}) when this returns a
  /// defined tensor.
  virtual Tensor take_auxiliary_loss() { return Tensor(); }

  const ModelConfig& config() const { return config_; }

  /// Inference: argmax class per tile as a float level map [N, H, W].
  /// Switches to eval mode and back; no autograd tape is built.
  Tensor predict_levels(const Tensor& features);

 protected:
  explicit CongestionModel(ModelConfig config) : config_(config) {}
  ModelConfig config_;
};

/// Factory for the Table I model set: "ours", "unet", "pgnn", "pros2",
/// "lhnn".
std::unique_ptr<CongestionModel> make_model(const std::string& name,
                                            const ModelConfig& config);

}  // namespace mfa::models
