#include "tensor/tensor.h"

#include <cstdio>
#include <stdexcept>

#include "common/check.h"
#include "common/log.h"
#include "common/sanitize.h"
#include "tensor/tape.h"

namespace mfa {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool GradMode::enabled() { return g_grad_enabled; }
void GradMode::set_enabled(bool on) { g_grad_enabled = on; }

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  // Single formatting source: MFA_CHECK_SHAPE messages use the same helper,
  // so op errors and check failures render shapes identically.
  return check::detail::vec_str(shape);
}

Tensor Tensor::wrap(std::shared_ptr<detail::TensorImpl> impl) {
  return Tensor(std::move(impl));
}

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::ones(Shape shape, bool requires_grad) {
  return full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto impl = std::make_shared<detail::TensorImpl>();
  const auto n = shape_numel(shape);
  impl->shape = std::move(shape);
  impl->data.assign(n, value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data,
                         bool requires_grad) {
  MFA_CHECK_EQ(shape_numel(shape), static_cast<std::int64_t>(data.size()))
      << " from_data: shape " << shape_str(shape)
      << " disagrees with the data length";
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.copy_from(data.data(), static_cast<std::int64_t>(data.size()));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return full({1}, value, requires_grad);
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev, bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.impl_->data)
    v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi,
                       bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.impl_->data) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

const Shape& Tensor::shape() const {
  MFA_CHECK(impl_) << " shape() on undefined tensor";
  return impl_->shape;
}

std::int64_t Tensor::dim() const {
  return static_cast<std::int64_t>(shape().size());
}

std::int64_t Tensor::size(std::int64_t d) const {
  const auto nd = dim();
  if (d < 0) d += nd;
  MFA_CHECK_BOUNDS(d, nd) << " size() dim on " << shape_str(shape());
  return impl_->shape[static_cast<size_t>(d)];
}

std::int64_t Tensor::numel() const {
  return impl_ ? static_cast<std::int64_t>(impl_->data.size()) : 0;
}

float* Tensor::data() {
  MFA_CHECK(impl_) << " data() on undefined tensor";
  return impl_->data.data();
}
const float* Tensor::data() const {
  MFA_CHECK(impl_) << " data() on undefined tensor";
  return impl_->data.data();
}

float Tensor::item() const {
  MFA_CHECK_EQ(numel(), 1) << " item() requires a single-element tensor";
  return impl_->data[0];
}

namespace {
size_t flat_index(const Shape& shape, std::initializer_list<std::int64_t> idx) {
  MFA_CHECK_EQ(static_cast<std::int64_t>(idx.size()),
               static_cast<std::int64_t>(shape.size()))
      << " index rank mismatch on " << shape_str(shape);
  size_t flat = 0;
  size_t d = 0;
  for (const auto i : idx) {
    MFA_CHECK_BOUNDS(i, shape[d])
        << " index in dim " << d << " of " << shape_str(shape);
    flat = flat * static_cast<size_t>(shape[d]) + static_cast<size_t>(i);
    ++d;
  }
  return flat;
}
}  // namespace

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  MFA_CHECK(impl_) << " at() on undefined tensor";
  return impl_->data[flat_index(impl_->shape, idx)];
}

void Tensor::set(std::initializer_list<std::int64_t> idx, float v) {
  MFA_CHECK(impl_) << " set() on undefined tensor";
  impl_->data[flat_index(impl_->shape, idx)] = v;
}

std::vector<float> Tensor::to_vector() const {
  MFA_CHECK(impl_) << " to_vector() on undefined tensor";
  return impl_->data.to_vector();
}

bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool on) {
  MFA_CHECK(impl_) << " set_requires_grad() on undefined tensor";
  impl_->requires_grad = on;
  return *this;
}

Tensor Tensor::grad() const {
  MFA_CHECK(impl_) << " grad() on undefined tensor";
  Tensor g = zeros(impl_->shape);
  if (impl_->grad.size() == impl_->data.size())
    g.impl_->data.copy_from(impl_->grad);
  return g;
}

void Tensor::zero_grad() {
  if (!impl_) return;
  impl_->grad.fill(0.0f);
}

void Tensor::backward() {
  MFA_CHECK(impl_) << " backward() on undefined tensor";
  MFA_CHECK_EQ(numel(), 1)
      << " backward() requires a scalar root, got shape "
      << shape_str(impl_->shape);
  // The calling thread's tape owns the recorded graph; it plans the
  // reverse-topological schedule, runs the closures one after another (see
  // tensor/tape.h), and retires the whole tape.
  tensor::Tape::current().execute_backward(impl_);
}

void Tensor::backward_multi(const std::vector<Tensor>& roots) {
  MFA_CHECK(!roots.empty()) << " backward_multi() with no roots";
  std::vector<std::shared_ptr<detail::TensorImpl>> impls;
  impls.reserve(roots.size());
  for (const Tensor& r : roots) {
    MFA_CHECK(r.impl_) << " backward_multi() on undefined tensor";
    MFA_CHECK_EQ(r.numel(), 1)
        << " backward_multi() requires scalar roots, got shape "
        << shape_str(r.impl_->shape);
    impls.push_back(r.impl_);
  }
  tensor::Tape::current().execute_backward(impls);
}

Tensor Tensor::detach() const {
  MFA_CHECK(impl_) << " detach() on undefined tensor";
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = impl_->shape;
  impl->data.copy_from(impl_->data);
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const { return detach(); }

void Tensor::add_(const Tensor& other, float alpha) {
  MFA_CHECK_EQ(numel(), other.numel()) << " add_: size mismatch";
  const float* src = other.data();
  float* dst = data();
  const auto n = numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::mul_(float s) {
  MFA_CHECK(impl_) << " mul_() on undefined tensor";
  for (auto& v : impl_->data) v *= s;
}

void Tensor::fill_(float v) {
  MFA_CHECK(impl_) << " fill_() on undefined tensor";
  impl_->data.fill(v);
}

void Tensor::copy_from(const Tensor& src) {
  MFA_CHECK_EQ(numel(), src.numel()) << " copy_from: size mismatch";
  impl_->data.copy_from(src.impl_->data);
}

Tensor Tensor::make_result(Shape shape, std::vector<Tensor> inputs,
                           std::function<void(detail::TensorImpl&)> backward) {
  bool needs = false;
  if (GradMode::enabled() && backward)
    for (const auto& in : inputs) needs = needs || in.requires_grad();
  auto impl = std::make_shared<detail::TensorImpl>();
  const auto n = shape_numel(shape);
  impl->shape = std::move(shape);
  impl->data.assign(n, 0.0f);
  Tensor out(std::move(impl));
  if (!needs) return out;
  auto& tape = tensor::Tape::current();
  out.impl_->requires_grad = true;
  out.impl_->tape_id = tape.record(sanitize::current_op(), out.impl_, inputs,
                                   std::move(backward));
  out.impl_->tape_epoch = tape.epoch();
  return out;
}

}  // namespace mfa
