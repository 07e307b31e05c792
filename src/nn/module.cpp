#include "nn/module.h"

namespace mfa::nn {

void Module::collect(const std::string& prefix, bool buffers,
                     std::vector<NamedTensor>& out) const {
  for (const auto& [name, t] : buffers ? buffers_ : params_)
    out.emplace_back(prefix + name, t);
  for (const auto& [name, child] : children_)
    child->collect(prefix + name + ".", buffers, out);
}

std::vector<Tensor> Module::parameters() const {
  std::vector<NamedTensor> named;
  collect("", false, named);
  std::vector<Tensor> out;
  out.reserve(named.size());
  for (auto& [name, t] : named) out.push_back(t);
  return out;
}

std::vector<NamedTensor> Module::state() const {
  std::vector<NamedTensor> out;
  collect("", false, out);
  collect("", true, out);
  return out;
}

std::int64_t Module::num_parameters() const {
  std::int64_t n = 0;
  for (const auto& p : parameters()) n += p.numel();
  return n;
}

void Module::train(bool on) {
  training_ = on;
  for (auto& [name, child] : children_) child->train(on);
}

void Module::zero_grad() {
  for (auto& p : parameters()) p.zero_grad();
}

Tensor Module::register_parameter(std::string name, Tensor t) {
  t.set_requires_grad(true);
  params_.emplace_back(std::move(name), t);
  return t;
}

Tensor Module::register_buffer(std::string name, Tensor t) {
  buffers_.emplace_back(std::move(name), t);
  return t;
}

}  // namespace mfa::nn
