#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "tensor/ops.h"
#include "tensor/softmax_row.h"

namespace mfa::kernels {

void softmax_row(const float* x, float* y, std::int64_t d,
                 std::int64_t stride) {
  // The max runs in kMaxLanes independent lanes (lane t takes j = t mod
  // kMaxLanes), then folds them, so no element waits on the previous
  // element's max. The max of a set is exact, so the lane order can only
  // pick a different zero among ±0 ties or skip NaNs in another order.
  // Neither reaches the output: a NaN never wins `v > m`, and
  // exp(v - (±0)) is 1 for v = ±0 and unchanged for any other v, so the
  // row is bit-identical to a one-lane scan.
  constexpr std::int64_t kMaxLanes = 16;
  float lane[kMaxLanes];
  for (auto& m : lane) m = -std::numeric_limits<float>::infinity();
  std::int64_t j = 0;
  for (; j + kMaxLanes <= d; j += kMaxLanes)
    for (std::int64_t t = 0; t < kMaxLanes; ++t)
      lane[t] = std::max(lane[t], x[(j + t) * stride]);
  float mx = -std::numeric_limits<float>::infinity();
  for (const float m : lane) mx = std::max(mx, m);
  for (; j < d; ++j) mx = std::max(mx, x[j * stride]);
  double z = 0.0;
  for (j = 0; j < d; ++j) {
    const float e = std::exp(x[j * stride] - mx);
    y[j * stride] = e;
    z += e;
  }
  const float inv = static_cast<float>(1.0 / z);
  for (j = 0; j < d; ++j) y[j * stride] *= inv;
}

void softmax_row_backward(const float* y, const float* g, float* gx,
                          std::int64_t d, std::int64_t stride) {
  double dot = 0.0;
  for (std::int64_t j = 0; j < d; ++j)
    dot += static_cast<double>(g[j * stride]) * y[j * stride];
  const float dotf = static_cast<float>(dot);
  for (std::int64_t j = 0; j < d; ++j)
    gx[j * stride] += y[j * stride] * (g[j * stride] - dotf);
}

}  // namespace mfa::kernels

namespace mfa::ops {
namespace {

// Elements per parallel softmax chunk, at least: smaller maps run inline.
constexpr std::int64_t kSoftmaxGrainElems = 1 << 15;

// Decomposes a shape around `dim` into [outer, d, inner] so reductions can be
// expressed as three nested loops over contiguous memory.
struct Split {
  std::int64_t outer = 1;
  std::int64_t d = 1;
  std::int64_t inner = 1;
};

Split split_at(const Tensor& a, std::int64_t& dim) {
  const auto nd = a.dim();
  if (dim < 0) dim += nd;
  MFA_CHECK_BOUNDS(dim, nd) << " reduce dim on " << shape_str(a.shape());
  Split s;
  for (std::int64_t d = 0; d < dim; ++d) s.outer *= a.size(d);
  s.d = a.size(dim);
  for (std::int64_t d = dim + 1; d < nd; ++d) s.inner *= a.size(d);
  return s;
}

Shape reduced_shape(const Tensor& a, std::int64_t dim, bool keepdim) {
  Shape out = a.shape();
  if (keepdim) {
    out[static_cast<size_t>(dim)] = 1;
  } else {
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(dim));
    if (out.empty()) out = {1};
  }
  return out;
}

}  // namespace

Tensor sum(const Tensor& a) {
  Tensor out = Tensor::make_result({1}, {a}, [a](detail::TensorImpl& o) {
    auto ai = a.impl();
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    const float g = o.grad[0];
    for (auto& v : ai->grad) v += g;
  });
  double acc = 0.0;
  const float* av = a.data();
  const auto n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += av[i];
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor mean(const Tensor& a) {
  return mul_scalar(sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const Split sp = split_at(a, dim);
  Tensor out = Tensor::make_result(
      reduced_shape(a, dim, keepdim), {a}, [a, sp](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < sp.outer; ++r)
          for (std::int64_t j = 0; j < sp.d; ++j)
            for (std::int64_t k = 0; k < sp.inner; ++k)
              ga[(r * sp.d + j) * sp.inner + k] += go[r * sp.inner + k];
      });
  const float* av = a.data();
  float* ov = out.data();  // make_result zero-filled it
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t j = 0; j < sp.d; ++j)
      for (std::int64_t k = 0; k < sp.inner; ++k)
        ov[r * sp.inner + k] += av[(r * sp.d + j) * sp.inner + k];
  return out;
}

Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const auto nd = a.dim();
  const std::int64_t d = dim < 0 ? dim + nd : dim;
  return mul_scalar(sum_dim(a, dim, keepdim),
                    1.0f / static_cast<float>(a.size(d)));
}

Tensor max_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const Split sp = split_at(a, dim);
  // Record argmax positions for the backward scatter.
  auto arg = std::make_shared<std::vector<std::int64_t>>(
      static_cast<size_t>(sp.outer * sp.inner));
  Tensor out = Tensor::make_result(
      reduced_shape(a, dim, keepdim), {a}, [a, sp, arg](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < sp.outer; ++r)
          for (std::int64_t k = 0; k < sp.inner; ++k) {
            const std::int64_t j = (*arg)[static_cast<size_t>(r * sp.inner + k)];
            ga[(r * sp.d + j) * sp.inner + k] += go[r * sp.inner + k];
          }
      });
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t k = 0; k < sp.inner; ++k) {
      float best = -std::numeric_limits<float>::infinity();
      std::int64_t bj = 0;
      for (std::int64_t j = 0; j < sp.d; ++j) {
        const float v = av[(r * sp.d + j) * sp.inner + k];
        if (v > best) {
          best = v;
          bj = j;
        }
      }
      ov[r * sp.inner + k] = best;
      (*arg)[static_cast<size_t>(r * sp.inner + k)] = bj;
    }
  return out;
}

std::vector<std::int64_t> argmax_dim(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  std::vector<std::int64_t> out(static_cast<size_t>(sp.outer * sp.inner));
  const float* av = a.data();
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t k = 0; k < sp.inner; ++k) {
      float best = -std::numeric_limits<float>::infinity();
      std::int64_t bj = 0;
      for (std::int64_t j = 0; j < sp.d; ++j) {
        const float v = av[(r * sp.d + j) * sp.inner + k];
        if (v > best) {
          best = v;
          bj = j;
        }
      }
      out[static_cast<size_t>(r * sp.inner + k)] = bj;
    }
  return out;
}

Tensor softmax(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  // Rows are independent, so chunks of whole outer slices (one contiguous
  // [d, inner] block each) run in parallel with each row's arithmetic
  // unchanged. The grain keeps small maps (MSA's 16 x 16 scores, CAM's
  // r x r) inline.
  const std::int64_t slice = sp.d * sp.inner;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kSoftmaxGrainElems / std::max<std::int64_t>(1, slice));
  // Fused kernel: softmax backward is y * (g - sum(g*y)).
  Tensor out = Tensor::make_result(
      a.shape(), {a}, [a, sp, slice, grain](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* y = o.data.data();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        parallel_for(
            sp.outer,
            [&](std::int64_t r0, std::int64_t r1) {
              sanitize::note_parallel_write(ga, r0 * slice, r1 * slice);
              for (std::int64_t r = r0; r < r1; ++r)
                for (std::int64_t k = 0; k < sp.inner; ++k) {
                  const auto ix = r * slice + k;
                  kernels::softmax_row_backward(y + ix, go + ix, ga + ix, sp.d,
                                               sp.inner);
                }
            },
            grain);
      });
  const float* av = a.data();
  float* ov = out.data();
  parallel_for(
      sp.outer,
      [&](std::int64_t r0, std::int64_t r1) {
        sanitize::note_parallel_write(ov, r0 * slice, r1 * slice);
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t k = 0; k < sp.inner; ++k) {
            const auto ix = r * slice + k;
            kernels::softmax_row(av + ix, ov + ix, sp.d, sp.inner);
          }
      },
      grain);
  return out;
}

Tensor log_softmax(const Tensor& a, std::int64_t dim) {
  const Split sp = split_at(a, dim);
  // Backward: ga += g - exp(y) * sum(g).
  Tensor out = Tensor::make_result(
      a.shape(), {a}, [a, sp](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* y = o.data.data();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < sp.outer; ++r)
          for (std::int64_t k = 0; k < sp.inner; ++k) {
            double gs = 0.0;
            for (std::int64_t j = 0; j < sp.d; ++j)
              gs += go[(r * sp.d + j) * sp.inner + k];
            for (std::int64_t j = 0; j < sp.d; ++j) {
              const auto ix = (r * sp.d + j) * sp.inner + k;
              ga[ix] += go[ix] - std::exp(y[ix]) * static_cast<float>(gs);
            }
          }
      });
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < sp.outer; ++r)
    for (std::int64_t k = 0; k < sp.inner; ++k) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < sp.d; ++j)
        mx = std::max(mx, av[(r * sp.d + j) * sp.inner + k]);
      double z = 0.0;
      for (std::int64_t j = 0; j < sp.d; ++j)
        z += std::exp(av[(r * sp.d + j) * sp.inner + k] - mx);
      const float lz = mx + static_cast<float>(std::log(z));
      for (std::int64_t j = 0; j < sp.d; ++j) {
        const auto ix = (r * sp.d + j) * sp.inner + k;
        ov[ix] = av[ix] - lz;
      }
    }
  return out;
}

}  // namespace mfa::ops
