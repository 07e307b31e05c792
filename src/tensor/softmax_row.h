// The one softmax row arithmetic, shared by ops::softmax (any dim) and
// ops::position_attention (rows of the attention map). Internal to
// src/tensor — include tensor/ops.h for the public ops.
//
// A row is d floats `stride` apart. Both routines fix every rounding: the
// max is exact, exp is glibc's std::exp per element, sums run in double in
// ascending index order, and the reciprocal is rounded to float once. Any
// caller that hands in the same row gets the same bits.
#pragma once

#include <cstdint>

namespace mfa::kernels {

/// y = softmax(x) over one row. x and y may be the same row (in place).
void softmax_row(const float* x, float* y, std::int64_t d, std::int64_t stride);

/// gx += y * (g - sum(g * y)) over one row: softmax's backward, accumulated
/// into gx. y is the forward output, g the gradient of that output.
void softmax_row_backward(const float* y, const float* g, float* gx,
                          std::int64_t d, std::int64_t stride);

}  // namespace mfa::kernels
