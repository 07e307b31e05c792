#include "models/congestion_model.h"

#include <stdexcept>

#include "common/trace.h"
#include "models/lhnn.h"
#include "models/mfa_net.h"
#include "models/pgnn.h"
#include "models/pros2.h"
#include "models/unet.h"
#include "tensor/ops.h"

namespace mfa::models {

Tensor CongestionModel::predict_levels(const Tensor& features) {
  MFA_TRACE_SCOPE("model.predict");
  auto& net = network();
  const bool was_training = net.is_training();
  net.train(false);
  Tensor levels;
  {
    NoGradGuard guard;
    Tensor logits = forward(features);  // [N, K, H, W]
    const std::int64_t N = logits.size(0);
    const std::int64_t H = logits.size(2);
    const std::int64_t W = logits.size(3);
    const auto arg = ops::argmax_dim(logits, 1);
    levels = Tensor::zeros({N, H, W});
    for (size_t i = 0; i < arg.size(); ++i)
      levels.data()[i] = static_cast<float>(arg[i]);
  }
  net.train(was_training);
  return levels;
}

std::unique_ptr<CongestionModel> make_model(const std::string& name,
                                            const ModelConfig& config) {
  if (name == "ours" || name == "mfa") {
    return std::make_unique<MfaTransformerNet>(config);
  }
  if (name == "unet") return std::make_unique<UNetModel>(config);
  if (name == "pgnn") return std::make_unique<PgnnModel>(config);
  if (name == "pros2") return std::make_unique<Pros2Model>(config);
  if (name == "lhnn") return std::make_unique<LhnnModel>(config);
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

}  // namespace mfa::models
