// Differentiable tensor operations.
//
// Every function returns a fresh tensor; when autograd recording is active
// and any input requires gradients, the result carries a backward closure.
// Binary elementwise ops support full NumPy-style broadcasting; gradients of
// broadcast inputs are reduced back to the input shape.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace mfa::ops {

// ---- elementwise binary (broadcasting) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- scalar variants ----
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
/// a^p elementwise (a must be positive when p is non-integral).
Tensor pow_scalar(const Tensor& a, float p);

// ---- elementwise unary ----
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float slope = 0.01f);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
/// Gaussian error linear unit (tanh approximation).
Tensor gelu(const Tensor& a);
/// max(a, lo) elementwise; gradient passes where a > lo.
Tensor clamp_min(const Tensor& a, float lo);

// ---- linear algebra ----
/// [m,k] x [k,n] -> [m,n], or batched [b,m,k] x [b,k,n] -> [b,m,n].
/// A 2-D rhs with a 3-D lhs broadcasts over the batch.
Tensor matmul(const Tensor& a, const Tensor& b);
/// Position attention (DANet PAM): b, c, d [N, r, L] -> [N, r, L], equal
/// bit for bit, forward and backward, to
/// matmul(d, transpose2d(softmax(matmul(transpose2d(b), c), 2))). Walks the
/// [L, L] map P in row blocks: inference holds no [N, L, L] buffer, and
/// training keeps only P for the backward.
Tensor position_attention(const Tensor& b, const Tensor& c, const Tensor& d);

// ---- shape ----
Tensor reshape(const Tensor& a, Shape new_shape);
/// Generic dimension permutation (copies).
Tensor permute(const Tensor& a, const std::vector<std::int64_t>& dims);
/// Swap the last two dims.
Tensor transpose2d(const Tensor& a);
Tensor concat(const std::vector<Tensor>& parts, std::int64_t dim);
/// Slice `len` entries of `dim` starting at `start` (copies).
Tensor narrow(const Tensor& a, std::int64_t dim, std::int64_t start,
              std::int64_t len);

// ---- reductions ----
Tensor sum(const Tensor& a);
Tensor mean(const Tensor& a);
Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim = false);
Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim = false);
/// Max over `dim` (values only; gradient routed to the arg-max element).
Tensor max_dim(const Tensor& a, std::int64_t dim, bool keepdim = false);
/// Index of the maximum along `dim` (not differentiable).
std::vector<std::int64_t> argmax_dim(const Tensor& a, std::int64_t dim);

// ---- sparse / hypergraph (index tensors hold integral ids as floats) ----
//
// Determinism contract: the scatter-style reductions (gather_rows backward,
// scatter_add_rows / segment_sum / segment_mean forward) accumulate through
// a fixed number of contiguous index slots with a sequential slot-order
// reduce after the join — like conv2d's dW reduction — so results are
// bit-identical across MFA_THREADS x MFA_POOL. Index values are validated
// once per op call with always-on MFA_CHECKs during the float->int decode
// pass; the inner kernels then run unchecked (the Release fast path — see
// DESIGN.md, "Sparse ops and hypergraph models").

/// Row gather: x [R, ...], index [M] with ids in [0, R) -> out [M, ...]
/// where out[m] = x[index[m]]. Duplicate and out-of-order ids are fine.
Tensor gather_rows(const Tensor& x, const Tensor& index);
/// Row scatter-add: src [M, ...], index [M] with ids in [0, num_rows) ->
/// out [num_rows, ...] with out[index[m]] += src[m] (deterministic order).
/// Rows never referenced by `index` are zero.
Tensor scatter_add_rows(const Tensor& src, const Tensor& index,
                        std::int64_t num_rows);
/// Segment sum: src [M, ...], segment_ids [M] in [0, num_segments) ->
/// out [num_segments, ...]. Ids need not be sorted or contiguous.
Tensor segment_sum(const Tensor& src, const Tensor& segment_ids,
                   std::int64_t num_segments);
/// Segment mean: like segment_sum divided by the segment sizes; empty
/// segments stay zero.
Tensor segment_mean(const Tensor& src, const Tensor& segment_ids,
                    std::int64_t num_segments);
/// General gather along `dim` (supports negative dim): out shape equals
/// x.shape() with shape[dim] = index.numel(). index_select(x, 0, i) is
/// gather_rows(x, i).
Tensor index_select(const Tensor& x, std::int64_t dim, const Tensor& index);

// ---- normalising / losses ----
Tensor softmax(const Tensor& a, std::int64_t dim);
Tensor log_softmax(const Tensor& a, std::int64_t dim);
/// Mean cross-entropy. logits: [N, C] with targets [N], or [N, C, H, W] with
/// targets [N, H, W] (targets hold integral class ids as floats).
Tensor cross_entropy(const Tensor& logits, const Tensor& targets);
/// Mean squared error.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

// ---- convolution / pooling / resampling (NCHW) ----
/// 2-D convolution; w: [Cout, Cin, Kh, Kw], optional bias [Cout].
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::int64_t stride = 1, std::int64_t padding = 0);
Tensor max_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);
Tensor avg_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);
/// Nearest-neighbour 2x upsampling.
Tensor upsample_nearest2x(const Tensor& x);
/// Global average pool: [N,C,H,W] -> [N,C,1,1].
Tensor global_avg_pool(const Tensor& x);

// ---- fused normalisation layers ----
/// Batch norm over (N,H,W) per channel. In training mode uses batch stats and
/// updates running stats in place; in eval mode uses the running stats.
Tensor batch_norm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    Tensor& running_mean, Tensor& running_var, bool training,
                    float momentum = 0.1f, float eps = 1e-5f);
/// Layer norm over the last dimension.
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

// ---- operators ----
inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return add_scalar(a, s); }
inline Tensor operator*(const Tensor& a, float s) { return mul_scalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return mul_scalar(a, s); }
inline Tensor operator-(const Tensor& a) { return neg(a); }

}  // namespace mfa::ops
