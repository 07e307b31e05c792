// Module base class: a named tree of parameters, buffers and sub-modules,
// mirroring the torch.nn.Module contract the paper's PyTorch reference
// relies on.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace mfa::nn {

/// One entry of a module's state: qualified name ("0.weight",
/// "enc.bn.running_mean") and the tensor it names.
using NamedTensor = std::pair<std::string, Tensor>;

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Tensor forward(const Tensor& x) = 0;
  Tensor operator()(const Tensor& x) { return forward(x); }

  /// All trainable parameters, depth first (stable order across runs).
  std::vector<Tensor> parameters() const;
  /// The whole state by qualified name: every parameter (in parameters()
  /// order), then every registered buffer (e.g. batch-norm running
  /// statistics), depth first. Checkpoints, weight snapshots and the
  /// trainer's rollback copy all walk this list.
  std::vector<NamedTensor> state() const;
  std::int64_t num_parameters() const;

  /// Switches train/eval mode for this module and all children (affects
  /// batch-norm statistics).
  void train(bool on = true);
  bool is_training() const { return training_; }

  void zero_grad();

 protected:
  /// Registers a trainable parameter; returns it for member initialisation.
  Tensor register_parameter(std::string name, Tensor t);
  /// Registers a non-trainable buffer (e.g. batch-norm running stats).
  Tensor register_buffer(std::string name, Tensor t);
  /// Registers a child module; returns the argument for chaining.
  template <typename M>
  std::shared_ptr<M> register_module(std::string name, std::shared_ptr<M> m) {
    children_.emplace_back(std::move(name), m);
    return m;
  }

 private:
  /// Appends this subtree's parameters (or, with `buffers`, its buffers).
  void collect(const std::string& prefix, bool buffers,
               std::vector<NamedTensor>& out) const;

  std::vector<NamedTensor> params_;
  std::vector<NamedTensor> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
  bool training_ = true;
};

}  // namespace mfa::nn
