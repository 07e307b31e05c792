#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mfa {
namespace {

using namespace mfa::ops;

TEST(Tensor, FactoriesProduceExpectedValues) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (const float v : z.to_vector()) EXPECT_EQ(v, 0.0f);

  Tensor o = Tensor::ones({4});
  for (const float v : o.to_vector()) EXPECT_EQ(v, 1.0f);

  Tensor f = Tensor::full({2, 2}, 3.5f);
  for (const float v : f.to_vector()) EXPECT_EQ(v, 3.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_THROW(t.size(3), mfa::check::CheckError);
}

TEST(Tensor, AtAndSetRoundTrip) {
  Tensor t = Tensor::zeros({2, 3});
  t.set({1, 2}, 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_THROW(t.at({2, 0}), mfa::check::CheckError);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_EQ(Tensor::scalar(2.5f).item(), 2.5f);
  EXPECT_THROW(Tensor::zeros({2}).item(), std::logic_error);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Rng r1(3), r2(3);
  Tensor a = Tensor::randn({10}, r1);
  Tensor b = Tensor::randn({10}, r2);
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(Tensor, DetachSharesNothing) {
  Tensor a = Tensor::ones({3}, /*requires_grad=*/true);
  Tensor d = a.detach();
  EXPECT_FALSE(d.requires_grad());
  d.data()[0] = 9.0f;
  EXPECT_EQ(a.at({0}), 1.0f);
}

TEST(TensorOps, AddSameShape) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {10, 20, 30, 40});
  Tensor c = a + b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(TensorOps, BroadcastAddRowVector) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(TensorOps, BroadcastMulColumn) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({2, 1}, {2, 3});
  Tensor c = a * b;
  EXPECT_EQ(c.to_vector(), (std::vector<float>{2, 4, 6, 12, 15, 18}));
}

TEST(TensorOps, BroadcastShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(TensorOps, Matmul2D) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.to_vector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(TensorOps, MatmulBatched) {
  Tensor a = Tensor::from_data({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2, 1}, {1, 1, 2, 2});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{3, 14}));
}

TEST(TensorOps, MatmulBatchedSharedRhs) {
  Tensor a = Tensor::from_data({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 1}, {1, 1});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{3, 7}));
}

TEST(TensorOps, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               std::invalid_argument);
}

TEST(TensorOps, ReshapeWithInference) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = reshape(a, {3, -1});
  ASSERT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_EQ(b.to_vector(), a.to_vector());
  EXPECT_THROW(reshape(a, {4, 2}), std::invalid_argument);
}

TEST(TensorOps, PermuteTransposes) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = permute(a, {1, 0});
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.to_vector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorOps, PermuteNCHWToTokens) {
  // [1, 2, 2, 2] -> [1, 2*2, 2] tokens-by-channel as the ViT embedding does.
  Tensor a = Tensor::from_data({1, 2, 2, 2}, {0, 1, 2, 3, 10, 11, 12, 13});
  Tensor t = permute(reshape(a, {1, 2, 4}), {0, 2, 1});
  ASSERT_EQ(t.shape(), (Shape{1, 4, 2}));
  EXPECT_EQ(t.to_vector(),
            (std::vector<float>{0, 10, 1, 11, 2, 12, 3, 13}));
}

TEST(TensorOps, PermuteRejectsDimsThatAreNotAPermutation) {
  // A repeated, negative or out-of-range dim would index past the stride
  // table or read one input element twice.
  const Tensor a = Tensor::zeros({4, 2});
  EXPECT_THROW(permute(a, {0, 0}), check::CheckError);
  EXPECT_THROW(permute(a, {-1, 0}), check::CheckError);
  EXPECT_THROW(permute(a, {0, 2}), check::CheckError);
  EXPECT_THROW(permute(a, {0}), check::CheckError);
}

// Reference permute: walks the output in order and steps the source offset
// odometer-style, one element at a time. Calls f(output index, source index).
template <typename F>
void odometer_permute(const Shape& in_shape,
                      const std::vector<std::int64_t>& dims, F f) {
  const auto nd = static_cast<std::int64_t>(in_shape.size());
  std::vector<std::int64_t> in_strides(in_shape.size(), 1);
  for (auto d = nd - 2; d >= 0; --d)
    in_strides[static_cast<size_t>(d)] =
        in_strides[static_cast<size_t>(d) + 1] *
        in_shape[static_cast<size_t>(d) + 1];
  Shape out_shape(in_shape.size());
  std::vector<std::int64_t> src_stride(in_shape.size());
  for (std::int64_t d = 0; d < nd; ++d) {
    const auto src = static_cast<size_t>(dims[static_cast<size_t>(d)]);
    out_shape[static_cast<size_t>(d)] = in_shape[src];
    src_stride[static_cast<size_t>(d)] = in_strides[src];
  }
  std::vector<std::int64_t> idx(in_shape.size(), 0);
  std::int64_t src = 0;
  const std::int64_t n = shape_numel(out_shape);
  for (std::int64_t i = 0; i < n; ++i) {
    f(i, src);
    for (std::int64_t d = nd - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      ++idx[du];
      src += src_stride[du];
      if (idx[du] < out_shape[du]) break;
      src -= src_stride[du] * out_shape[du];
      idx[du] = 0;
    }
  }
}

TEST(TensorOps, PermuteBitIdenticalToOdometerReference) {
  // The tiled kernel must reproduce the element-wise walk bit for bit, in
  // the forward copy and in the backward accumulation into a grad that
  // already holds values. Sizes straddle the 64-wide tile.
  struct Case {
    Shape shape;
    std::vector<std::int64_t> dims;
  };
  const std::vector<Case> cases = {
      {{17, 33}, {1, 0}},
      {{130, 67}, {1, 0}},
      {{3, 16, 130}, {0, 2, 1}},
      {{2, 129, 70}, {0, 2, 1}},
      {{2, 5, 4, 3}, {0, 2, 1, 3}},
      {{5, 7, 67}, {2, 0, 1}},
      {{3, 70, 9}, {2, 1, 0}},   // three dims stay apart
      {{66, 5, 3}, {1, 2, 0}},   // dims 1, 2 merge: one transpose
      {{1, 65, 1}, {0, 2, 1}},   // one dim above size 1: a plain copy
      {{1, 70, 3, 1}, {2, 0, 1, 3}},
      {{4, 1, 130}, {2, 1, 0}},
      {{1, 100}, {1, 0}},
      {{37}, {0}},
  };
  Rng rng(12);
  for (const auto& c : cases) {
    SCOPED_TRACE(shape_str(c.shape));
    Tensor a = Tensor::randn(c.shape, rng, 1.0f, /*requires_grad=*/true);
    const Tensor prefill = Tensor::randn(c.shape, rng);
    a.impl()->ensure_grad();
    std::memcpy(a.impl()->grad.data(), prefill.data(),
                static_cast<size_t>(a.numel()) * sizeof(float));
    Tensor out = permute(a, c.dims);
    const Tensor w = Tensor::randn(out.shape(), rng);
    sum(mul(out, w)).backward();  // d out = w, exactly

    std::vector<float> want(static_cast<size_t>(a.numel()));
    std::vector<float> want_grad = prefill.to_vector();
    const float* av = a.data();
    const float* wv = w.data();
    odometer_permute(c.shape, c.dims, [&](std::int64_t i, std::int64_t src) {
      want[static_cast<size_t>(i)] = av[src];
      want_grad[static_cast<size_t>(src)] += wv[i];
    });
    ASSERT_EQ(out.numel(), a.numel());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
    const Tensor got_grad = a.grad();
    EXPECT_EQ(std::memcmp(got_grad.data(), want_grad.data(),
                          want_grad.size() * sizeof(float)),
              0);
  }
}

TEST(TensorOps, ConcatDim1) {
  Tensor a = Tensor::from_data({2, 1}, {1, 2});
  Tensor b = Tensor::from_data({2, 2}, {3, 4, 5, 6});
  Tensor c = concat({a, b}, 1);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(TensorOps, NarrowSelectsSlice) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = narrow(a, 1, 1, 2);
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.to_vector(), (std::vector<float>{2, 3, 5, 6}));
  EXPECT_THROW(narrow(a, 1, 2, 2), mfa::check::CheckError);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(mean(a).item(), 3.5f);
  Tensor s0 = sum_dim(a, 0);
  EXPECT_EQ(s0.to_vector(), (std::vector<float>{5, 7, 9}));
  Tensor s1 = sum_dim(a, 1, /*keepdim=*/true);
  ASSERT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1.to_vector(), (std::vector<float>{6, 15}));
  Tensor m = max_dim(a, 1);
  EXPECT_EQ(m.to_vector(), (std::vector<float>{3, 6}));
  EXPECT_EQ(argmax_dim(a, 1), (std::vector<std::int64_t>{2, 2}));
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::randn({4, 7}, rng, 3.0f);
  Tensor s = softmax(a, 1);
  for (std::int64_t r = 0; r < 4; ++r) {
    float acc = 0.0f;
    for (std::int64_t c = 0; c < 7; ++c) acc += s.at({r, c});
    EXPECT_NEAR(acc, 1.0f, 1e-5f);
  }
}

TEST(TensorOps, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::from_data({1, 2}, {1000.0f, 1001.0f});
  Tensor s = softmax(a, 1);
  EXPECT_NEAR(s.at({0, 0}) + s.at({0, 1}), 1.0f, 1e-5f);
  EXPECT_GT(s.at({0, 1}), s.at({0, 0}));
}

// Reference softmax: the row loops ops::softmax ran before its arithmetic
// moved into one shared row routine, forward and backward, over the
// [outer, d, inner] split around the softmax dim.
void reference_softmax(const float* av, float* ov, std::int64_t outer,
                       std::int64_t d, std::int64_t inner) {
  for (std::int64_t r = 0; r < outer; ++r)
    for (std::int64_t k = 0; k < inner; ++k) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < d; ++j)
        mx = std::max(mx, av[(r * d + j) * inner + k]);
      double z = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        const auto ix = (r * d + j) * inner + k;
        ov[ix] = std::exp(av[ix] - mx);
        z += ov[ix];
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < d; ++j) ov[(r * d + j) * inner + k] *= inv;
    }
}

void reference_softmax_backward(const float* y, const float* go, float* ga,
                                std::int64_t outer, std::int64_t d,
                                std::int64_t inner) {
  for (std::int64_t r = 0; r < outer; ++r)
    for (std::int64_t k = 0; k < inner; ++k) {
      double dot = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        const auto ix = (r * d + j) * inner + k;
        dot += static_cast<double>(go[ix]) * y[ix];
      }
      for (std::int64_t j = 0; j < d; ++j) {
        const auto ix = (r * d + j) * inner + k;
        ga[ix] += y[ix] * (go[ix] - static_cast<float>(dot));
      }
    }
}

TEST(TensorOps, SoftmaxBitIdenticalToRowLoopReference) {
  // The shared row routine takes its max over 16 independent lanes; the
  // rows below are built to catch any lane-order effect: ties of +0 and -0
  // at the max, a -inf entry, an all -inf row and a NaN entry, at lengths
  // around the lane count. Forward and backward (into a pre-filled grad)
  // must match the one-lane reference bit for bit, over the last dim and a
  // middle dim.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr std::int64_t kPatterns = 6;
  // The NaN and all -inf rows have NaN gradients by design, so the
  // finite-grad scan (MFA_CHECK_FINITE_GRADS=1) is off for this test.
  struct FiniteGradScanOff {
    bool prev = check::finite_grad_checks_enabled();
    FiniteGradScanOff() { check::set_finite_grad_checks(false); }
    ~FiniteGradScanOff() { check::set_finite_grad_checks(prev); }
  } scan_off;
  Rng rng(31);
  // Row `pattern` of length d, written at stride `stride` from `out`.
  const auto fill_row = [&](float* out, std::int64_t d, std::int64_t stride,
                            int pattern) {
    for (std::int64_t j = 0; j < d; ++j) {
      const float v = static_cast<float>(rng.normal(0.0, 3.0));
      float x = v;
      switch (pattern) {
        case 1:  // max 0 held by both signs of zero
          x = j % 3 == 0 ? 0.0f : j % 3 == 1 ? -0.0f : -std::fabs(v) - 0.5f;
          break;
        case 2:  // max -0 first, +0 later
          x = j == 0 ? -0.0f : j == d - 1 ? 0.0f : -std::fabs(v) - 0.5f;
          break;
        case 3:  // one -inf entry
          x = j == d / 2 ? -kInf : v;
          break;
        case 4:  // all -inf
          x = -kInf;
          break;
        case 5:  // one NaN entry
          x = j == d / 3 ? kNaN : v;
          break;
        default:
          break;
      }
      out[j * stride] = x;
    }
  };
  for (const std::int64_t d : {1, 15, 16, 17, 1024}) {
    // Shape [outer, d, inner]: inner 1 is the last dim, inner 3 a middle one.
    for (const std::int64_t inner : {1, 3}) {
      SCOPED_TRACE("d=" + std::to_string(d) +
                   " inner=" + std::to_string(inner));
      const std::int64_t outer = kPatterns;
      const Shape shape = inner == 1 ? Shape{outer, d} : Shape{outer, d, inner};
      Tensor a = Tensor::zeros(shape, /*requires_grad=*/true);
      for (std::int64_t r = 0; r < outer; ++r)
        for (std::int64_t k = 0; k < inner; ++k)
          fill_row(a.data() + r * d * inner + k, d, inner,
                   static_cast<int>((r + k) % kPatterns));
      const Tensor prefill = Tensor::randn(shape, rng);
      a.impl()->ensure_grad();
      std::memcpy(a.impl()->grad.data(), prefill.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float));
      Tensor y = softmax(a, 1);
      const Tensor w = Tensor::randn(shape, rng);
      sum(mul(y, w)).backward();  // d y = w, exactly

      std::vector<float> want(static_cast<size_t>(a.numel()));
      reference_softmax(a.data(), want.data(), outer, d, inner);
      std::vector<float> want_grad = prefill.to_vector();
      reference_softmax_backward(want.data(), w.data(), want_grad.data(),
                                 outer, d, inner);
      EXPECT_EQ(std::memcmp(y.data(), want.data(), want.size() * sizeof(float)),
                0);
      const Tensor got_grad = a.grad();
      EXPECT_EQ(std::memcmp(got_grad.data(), want_grad.data(),
                            want_grad.size() * sizeof(float)),
                0);
    }
  }
}

// Leaves b, c, d [N, r, L] with the same values on every call for a given
// seed; each one that requires grad starts from a pre-filled gradient, so a
// result that overwrote instead of accumulating would show.
struct AttentionInputs {
  Tensor b, c, d, w;
};

AttentionInputs attention_inputs(std::int64_t N, std::int64_t r,
                                 std::int64_t L, bool grad_b, bool grad_c,
                                 bool grad_d) {
  Rng rng(static_cast<std::uint64_t>(1000 * N + 100 * r + L));
  AttentionInputs in;
  const Shape shape{N, r, L};
  // A spread of 2 makes the softmax rows peaked and flat in turn.
  in.b = Tensor::randn(shape, rng, 2.0f, grad_b);
  in.c = Tensor::randn(shape, rng, 2.0f, grad_c);
  in.d = Tensor::randn(shape, rng, 1.0f, grad_d);
  in.w = Tensor::randn(shape, rng);
  for (Tensor* t : {&in.b, &in.c, &in.d}) {
    if (!t->requires_grad()) continue;
    const Tensor prefill = Tensor::randn(shape, rng, 0.5f);
    t->impl()->ensure_grad();
    std::memcpy(t->impl()->grad.data(), prefill.data(),
                static_cast<size_t>(t->numel()) * sizeof(float));
  }
  return in;
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

/// Runs the fused op and the chain it replaces on equal inputs and compares
/// the forward values and every gradient bit for bit.
void expect_attention_matches_chain(std::int64_t N, std::int64_t r,
                                    std::int64_t L, bool grad_b, bool grad_c,
                                    bool grad_d) {
  SCOPED_TRACE("N=" + std::to_string(N) + " r=" + std::to_string(r) +
               " L=" + std::to_string(L) + " grads b/c/d=" +
               std::to_string(grad_b) + std::to_string(grad_c) +
               std::to_string(grad_d));
  AttentionInputs ref = attention_inputs(N, r, L, grad_b, grad_c, grad_d);
  AttentionInputs got = attention_inputs(N, r, L, grad_b, grad_c, grad_d);
  // One graph at a time: backward() retires the thread's whole tape.
  Tensor want = matmul(
      ref.d, transpose2d(softmax(matmul(transpose2d(ref.b), ref.c), 2)));
  sum(mul(want, ref.w)).backward();  // d want = w, exactly
  Tensor out = position_attention(got.b, got.c, got.d);
  sum(mul(out, got.w)).backward();
  ASSERT_EQ(out.shape(), want.shape());
  EXPECT_TRUE(same_bits(out, want)) << "forward";
  EXPECT_TRUE(same_bits(got.b.grad(), ref.b.grad())) << "b.grad";
  EXPECT_TRUE(same_bits(got.c.grad(), ref.c.grad())) << "c.grad";
  EXPECT_TRUE(same_bits(got.d.grad(), ref.d.grad())) << "d.grad";
}

/// The same with one leaf passed as b, c and d.
void expect_shared_input_matches_chain(std::int64_t N, std::int64_t r,
                                       std::int64_t L) {
  SCOPED_TRACE("shared input N=" + std::to_string(N) + " r=" +
               std::to_string(r) + " L=" + std::to_string(L));
  AttentionInputs ref = attention_inputs(N, r, L, true, false, false);
  AttentionInputs got = attention_inputs(N, r, L, true, false, false);
  const Tensor& x = ref.b;
  Tensor want = matmul(x, transpose2d(softmax(matmul(transpose2d(x), x), 2)));
  sum(mul(want, ref.w)).backward();
  Tensor out = position_attention(got.b, got.b, got.b);
  sum(mul(out, got.w)).backward();
  EXPECT_TRUE(same_bits(out, want)) << "forward";
  EXPECT_TRUE(same_bits(got.b.grad(), ref.b.grad())) << "grad";
}

TEST(TensorOps, PositionAttentionBitIdenticalToUnfusedChain) {
  // The fused op reproduces each reduction of the chain with the same GEMM
  // kernel on row blocks, so it must match it bit for bit on every kernel
  // variant and pool size, at lengths that are and are not multiples of
  // its 32-row blocks and 64-column panels (100 is neither).
  const int prev_threads = common::ThreadPool::instance().size();
  for (int v = 0; v < kernels::kNumVariants; ++v) {
    if (!kernels::variant_supported(static_cast<kernels::Variant>(v)))
      continue;
    ASSERT_TRUE(kernels::set_variant_override(v));
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(kernels::variant_name(
                       static_cast<kernels::Variant>(v))) +
                   " threads=" + std::to_string(threads));
      common::ThreadPool::instance().resize_for_testing(threads);
      for (const std::int64_t N : {1, 3})
        for (const std::int64_t r : {1, 2, 4})
          for (const std::int64_t L : {16, 64, 100, 1024})
            expect_attention_matches_chain(N, r, L, true, true, true);
      // d alone requires grad, and everything but d does.
      expect_attention_matches_chain(3, 2, 100, false, false, true);
      expect_attention_matches_chain(3, 2, 100, true, true, false);
      // One tensor as b, c and d: its grad sums the three parts in the
      // chain's order.
      expect_shared_input_matches_chain(3, 2, 100);
    }
  }
  kernels::set_variant_override(-1);
  common::ThreadPool::instance().resize_for_testing(prev_threads);
}

TEST(TensorOps, PositionAttentionRejectsMismatchedShapes) {
  const Tensor x = Tensor::zeros({2, 3, 16});
  EXPECT_NO_THROW(position_attention(x, x, x));
  const Tensor flat = Tensor::zeros({6, 16});
  EXPECT_THROW(position_attention(flat, flat, flat), check::CheckError);
  const Tensor rank4 = Tensor::zeros({2, 3, 4, 4});
  EXPECT_THROW(position_attention(rank4, rank4, rank4), check::CheckError);
  for (const Shape& other :
       {Shape{3, 3, 16}, Shape{2, 4, 16}, Shape{2, 3, 17}, Shape{2, 48}}) {
    SCOPED_TRACE(shape_str(other));
    const Tensor y = Tensor::zeros(other);
    EXPECT_THROW(position_attention(y, x, x), check::CheckError);
    EXPECT_THROW(position_attention(x, y, x), check::CheckError);
    EXPECT_THROW(position_attention(x, x, y), check::CheckError);
  }
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(9);
  Tensor a = Tensor::randn({3, 5}, rng);
  Tensor ls = log_softmax(a, 1);
  Tensor s = softmax(a, 1);
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-5f);
}

TEST(TensorOps, Conv2dIdentityKernel) {
  Tensor x = Tensor::from_data({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::zeros({1, 1, 3, 3});
  w.set({0, 0, 1, 1}, 1.0f);  // centre tap
  Tensor y = conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/1);
  ASSERT_EQ(y.shape(), x.shape());
  EXPECT_EQ(y.to_vector(), x.to_vector());
}

TEST(TensorOps, Conv2dStrideHalvesSpatialDims) {
  Tensor x = Tensor::ones({2, 3, 8, 8});
  Rng rng(1);
  Tensor w = Tensor::randn({5, 3, 3, 3}, rng);
  Tensor y = conv2d(x, w, Tensor(), /*stride=*/2, /*padding=*/1);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4, 4}));
}

TEST(TensorOps, Conv2dBiasAdds) {
  Tensor x = Tensor::zeros({1, 1, 2, 2});
  Tensor w = Tensor::zeros({2, 1, 1, 1});
  Tensor b = Tensor::from_data({2}, {1.5f, -2.0f});
  Tensor y = conv2d(x, w, b);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(y.data()[i], 1.5f);
    EXPECT_EQ(y.data()[4 + i], -2.0f);
  }
}

TEST(TensorOps, MaxPoolPicksMaxima) {
  Tensor x = Tensor::from_data({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 7});
  Tensor y = max_pool2d(x, 2, 2);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(y.to_vector(), (std::vector<float>{5, 8}));
}

TEST(TensorOps, AvgPoolAverages) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 6});
  Tensor y = avg_pool2d(x, 2, 2);
  EXPECT_FLOAT_EQ(y.item(), 3.0f);
}

TEST(TensorOps, UpsampleNearestDoubles) {
  Tensor x = Tensor::from_data({1, 1, 1, 2}, {1, 2});
  Tensor y = upsample_nearest2x(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 4}));
  EXPECT_EQ(y.to_vector(), (std::vector<float>{1, 1, 2, 2, 1, 1, 2, 2}));
}

TEST(TensorOps, CrossEntropyPerfectPredictionNearZero) {
  Tensor logits = Tensor::from_data({2, 3}, {20, 0, 0, 0, 20, 0});
  Tensor targets = Tensor::from_data({2}, {0, 1});
  EXPECT_NEAR(cross_entropy(logits, targets).item(), 0.0f, 1e-4f);
}

TEST(TensorOps, CrossEntropyUniformIsLogC) {
  Tensor logits = Tensor::zeros({1, 8});
  Tensor targets = Tensor::from_data({1}, {3});
  EXPECT_NEAR(cross_entropy(logits, targets).item(), std::log(8.0f), 1e-5f);
}

TEST(TensorOps, CrossEntropyRejectsBadTarget) {
  Tensor logits = Tensor::zeros({1, 4});
  Tensor targets = Tensor::from_data({1}, {4});
  EXPECT_THROW(cross_entropy(logits, targets), mfa::check::CheckError);
}

TEST(TensorOps, MseLossZeroWhenEqual) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  EXPECT_FLOAT_EQ(mse_loss(a, a).item(), 0.0f);
  Tensor b = Tensor::from_data({3}, {2, 3, 4});
  EXPECT_FLOAT_EQ(mse_loss(a, b).item(), 1.0f);
}

TEST(TensorOps, BatchNormEvalUsesRunningStats) {
  Tensor x = Tensor::from_data({1, 1, 1, 2}, {2.0f, 4.0f});
  Tensor gamma = Tensor::ones({1});
  Tensor beta = Tensor::zeros({1});
  Tensor rm = Tensor::from_data({1}, {3.0f});
  Tensor rv = Tensor::from_data({1}, {1.0f});
  Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/false);
  EXPECT_NEAR(y.data()[0], -1.0f, 1e-3f);
  EXPECT_NEAR(y.data()[1], 1.0f, 1e-3f);
}

TEST(TensorOps, BatchNormTrainingNormalises) {
  Rng rng(17);
  Tensor x = Tensor::randn({4, 2, 8, 8}, rng, 5.0f);
  Tensor gamma = Tensor::ones({2});
  Tensor beta = Tensor::zeros({2});
  Tensor rm = Tensor::zeros({2});
  Tensor rv = Tensor::ones({2});
  Tensor y = ops::batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true);
  // Per-channel mean ~0, var ~1.
  for (std::int64_t c = 0; c < 2; ++c) {
    double acc = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t i = 0; i < 64; ++i) {
        const float v = y.data()[(n * 2 + c) * 64 + i];
        acc += v;
        sq += v * v;
        ++count;
      }
    EXPECT_NEAR(acc / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(TensorOps, LayerNormNormalisesRows) {
  Rng rng(23);
  Tensor x = Tensor::randn({3, 16}, rng, 4.0f);
  Tensor gamma = Tensor::ones({16});
  Tensor beta = Tensor::zeros({16});
  Tensor y = ops::layer_norm(x, gamma, beta);
  for (std::int64_t r = 0; r < 3; ++r) {
    double acc = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) {
      const float v = y.at({r, i});
      acc += v;
      sq += v * v;
    }
    EXPECT_NEAR(acc / 16, 0.0, 1e-4);
    EXPECT_NEAR(sq / 16, 1.0, 1e-2);
  }
}

TEST(TensorOps, GlobalAvgPool) {
  Tensor x = Tensor::from_data({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = ops::global_avg_pool(x);
  ASSERT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y.data()[0], 2.5f);
  EXPECT_FLOAT_EQ(y.data()[1], 10.0f);
}

TEST(TensorInPlace, AddScaledAccumulates) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a.add_(b, 0.5f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{6, 12, 18}));
  EXPECT_THROW(a.add_(Tensor::zeros({2})), std::invalid_argument);
}

TEST(TensorInPlace, MulAndFill) {
  Tensor a = Tensor::from_data({2}, {2, 4});
  a.mul_(1.5f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{3, 6}));
  a.fill_(7.0f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{7, 7}));
}

TEST(TensorInPlace, CopyFromChecksSize) {
  Tensor a = Tensor::zeros({4});
  Tensor b = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  a.copy_from(b);  // same element count, different shape is fine
  EXPECT_EQ(a.to_vector(), b.to_vector());
  EXPECT_THROW(a.copy_from(Tensor::zeros({3})), std::invalid_argument);
}

TEST(TensorOps, ClampMinThresholds) {
  Tensor a = Tensor::from_data({4}, {-2, -0.5f, 0.5f, 2});
  Tensor y = clamp_min(a, 0.0f);
  EXPECT_EQ(y.to_vector(), (std::vector<float>{0, 0, 0.5f, 2}));
}

TEST(TensorOps, PowScalarMatchesRepeatedMul) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor y = pow_scalar(a, 2.0f);
  EXPECT_EQ(y.to_vector(), (std::vector<float>{1, 4, 9}));
}

}  // namespace
}  // namespace mfa
