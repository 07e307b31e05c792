#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/log.h"
#include "tensor/ops.h"

namespace mfa::ops {
namespace {

std::vector<std::int64_t> contiguous_strides(const Shape& s) {
  std::vector<std::int64_t> st(s.size(), 1);
  for (auto d = static_cast<std::int64_t>(s.size()) - 2; d >= 0; --d)
    st[static_cast<size_t>(d)] =
        st[static_cast<size_t>(d) + 1] * s[static_cast<size_t>(d) + 1];
  return st;
}

// Edge of the square tiles for a permute that moves the innermost dim. A
// 64 x 64 float tile is 16 KiB, so the staging copy below stays in L1.
constexpr std::int64_t kPermuteTile = 64;

// dst = permute(src, dims), or dst += permute(src, dims) when kAdd. dims must
// be a permutation (permute() checks). Each dst element is written exactly
// once, so every traversal order below yields the same bits.
template <bool kAdd>
void permute_kernel(const float* src, const Shape& src_shape,
                    const std::vector<std::int64_t>& dims, float* dst) {
  if (shape_numel(src_shape) == 0) return;
  // Output dims in order as (size n, source stride s): size-1 dims dropped,
  // and output neighbours that are also input neighbours merged into one.
  const auto in_strides = contiguous_strides(src_shape);
  std::vector<std::int64_t> n, s;
  for (const std::int64_t dim : dims) {
    const std::int64_t size = src_shape[static_cast<size_t>(dim)];
    const std::int64_t stride = in_strides[static_cast<size_t>(dim)];
    if (size == 1) continue;
    if (!s.empty() && s.back() == stride * size) {
      n.back() *= size;
      s.back() = stride;
    } else {
      n.push_back(size);
      s.push_back(stride);
    }
  }
  const auto put = [](float& o, float v) {
    if constexpr (kAdd) {
      o += v;
    } else {
      o = v;
    }
  };
  const auto k = static_cast<std::int64_t>(n.size());
  if (k == 0) {  // a single element
    put(dst[0], src[0]);
    return;
  }
  std::vector<std::int64_t> os(n.size(), 1);  // output strides
  for (auto d = k - 2; d >= 0; --d)
    os[static_cast<size_t>(d)] =
        os[static_cast<size_t>(d) + 1] * n[static_cast<size_t>(d) + 1];
  // The input's innermost dim (source stride 1) sits at output dim p.
  const auto last = static_cast<size_t>(k - 1);
  const auto p = static_cast<size_t>(
      std::find(s.begin(), s.end(), std::int64_t{1}) - s.begin());
  // The loop body covers dims p and last; the other dims step once per run
  // or tile set (their extents in `ext`, with p and last pinned to 1).
  std::vector<std::int64_t> ext = n;
  ext[last] = 1;
  ext[p] = 1;
  std::vector<std::int64_t> idx(n.size(), 0);
  const std::int64_t outer = shape_numel(ext);
  const std::int64_t nl = n[last];
  std::int64_t so = 0, dO = 0;
  alignas(64) float tile[kPermuteTile * kPermuteTile] = {};
  for (std::int64_t it = 0; it < outer; ++it) {
    if (p == last) {
      // The innermost dim stays innermost: one contiguous run.
      const float* in = src + so;
      float* o = dst + dO;
      if constexpr (kAdd) {
        for (std::int64_t i = 0; i < nl; ++i) o[i] += in[i];
      } else {
        std::copy(in, in + nl, o);
      }
    } else {
      // B x B tiles over (p, last). Each tile is first staged row by row
      // (contiguous reads along p), then written out row by row (contiguous
      // writes along last): a direct strided walk would touch B lines a
      // power-of-two stride apart, which share one L1 set.
      const std::int64_t np = n[p], osp = os[p], sl = s[last];
      for (std::int64_t i0 = 0; i0 < np; i0 += kPermuteTile) {
        const std::int64_t i1 = std::min(np, i0 + kPermuteTile);
        for (std::int64_t j0 = 0; j0 < nl; j0 += kPermuteTile) {
          const std::int64_t j1 = std::min(nl, j0 + kPermuteTile);
          for (std::int64_t j = j0; j < j1; ++j) {
            const float* in = src + so + j * sl;
            std::copy(in + i0, in + i1, tile + (j - j0) * kPermuteTile);
          }
          for (std::int64_t i = i0; i < i1; ++i) {
            const float* in = tile + (i - i0);
            float* o = dst + dO + i * osp + j0;
            for (std::int64_t j = 0; j < j1 - j0; ++j)
              put(o[j], in[j * kPermuteTile]);
          }
        }
      }
    }
    for (auto d = k - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      if (++idx[du] < ext[du]) {
        so += s[du];
        dO += os[du];
        break;
      }
      so -= s[du] * (ext[du] - 1);
      dO -= os[du] * (ext[du] - 1);
      idx[du] = 0;
    }
  }
}

}  // namespace

Tensor reshape(const Tensor& a, Shape new_shape) {
  // One entry may be -1 (inferred).
  std::int64_t known = 1;
  std::int64_t infer = -1;
  for (size_t d = 0; d < new_shape.size(); ++d) {
    if (new_shape[d] == -1) {
      MFA_CHECK(infer < 0) << " reshape: two -1 dims in "
                           << shape_str(new_shape);
      infer = static_cast<std::int64_t>(d);
    } else {
      known *= new_shape[d];
    }
  }
  if (infer >= 0) new_shape[static_cast<size_t>(infer)] = a.numel() / known;
  MFA_CHECK_EQ(shape_numel(new_shape), a.numel())
      << " reshape: " << shape_str(a.shape()) << " -> "
      << shape_str(new_shape) << " element mismatch";
  Tensor out = Tensor::make_result(
      new_shape, {a}, [a](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const auto n = static_cast<std::int64_t>(o.data.size());
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t i = 0; i < n; ++i) ga[i] += go[i];
      });
  std::copy(a.data(), a.data() + a.numel(), out.data());
  return out;
}

Tensor permute(const Tensor& a, const std::vector<std::int64_t>& dims) {
  const auto nd = a.dim();
  MFA_CHECK_EQ(static_cast<std::int64_t>(dims.size()), nd)
      << " permute: rank mismatch for " << shape_str(a.shape());
  // dims must hold each of 0..nd-1 exactly once: the kernel indexes the
  // stride table with them and relies on every element moving exactly once.
  std::vector<std::int64_t> inv(static_cast<size_t>(nd), -1);
  for (std::int64_t d = 0; d < nd; ++d) {
    const std::int64_t src = dims[static_cast<size_t>(d)];
    MFA_CHECK_BOUNDS(src, nd) << " permute: dim " << d << " of "
                              << shape_str(a.shape());
    MFA_CHECK_EQ(inv[static_cast<size_t>(src)], -1)
        << " permute: dim " << src << " repeats in the permutation of "
        << shape_str(a.shape());
    inv[static_cast<size_t>(src)] = d;
  }
  Shape out_shape(static_cast<size_t>(nd));
  for (std::int64_t d = 0; d < nd; ++d)
    out_shape[static_cast<size_t>(d)] = a.size(dims[static_cast<size_t>(d)]);

  // The grad of a permute is the inverse permute of the output's grad.
  Tensor out = Tensor::make_result(
      out_shape, {a}, [a, inv](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        permute_kernel<true>(o.grad.data(), o.shape, inv, ai->grad.data());
      });
  permute_kernel<false>(a.data(), a.shape(), dims, out.data());
  return out;
}

Tensor transpose2d(const Tensor& a) {
  const auto nd = a.dim();
  MFA_CHECK_GE(nd, 2) << " transpose2d on " << shape_str(a.shape());
  std::vector<std::int64_t> dims(static_cast<size_t>(nd));
  std::iota(dims.begin(), dims.end(), 0);
  std::swap(dims[static_cast<size_t>(nd - 1)], dims[static_cast<size_t>(nd - 2)]);
  return permute(a, dims);
}

Tensor concat(const std::vector<Tensor>& parts, std::int64_t dim) {
  MFA_CHECK(!parts.empty()) << " concat: no inputs";
  const auto nd = parts[0].dim();
  if (dim < 0) dim += nd;
  MFA_CHECK_BOUNDS(dim, nd) << " concat dim";
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(dim)] = 0;
  for (const auto& p : parts) {
    MFA_CHECK_EQ(p.dim(), nd) << " concat: rank mismatch, "
                              << shape_str(p.shape()) << " vs "
                              << shape_str(parts[0].shape());
    for (std::int64_t d = 0; d < nd; ++d) {
      MFA_CHECK(d == dim || p.size(d) == parts[0].size(d))
          << " concat: off-dim mismatch, " << shape_str(p.shape()) << " vs "
          << shape_str(parts[0].shape()) << " along dim " << dim;
    }
    out_shape[static_cast<size_t>(dim)] += p.size(dim);
  }
  // outer = product of dims before `dim`; inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < dim; ++d) outer *= out_shape[static_cast<size_t>(d)];
  for (std::int64_t d = dim + 1; d < nd; ++d)
    inner *= out_shape[static_cast<size_t>(d)];
  const std::int64_t out_dim = out_shape[static_cast<size_t>(dim)];

  Tensor out = Tensor::make_result(
      out_shape, parts,
      [parts, outer, inner, out_dim, dim](detail::TensorImpl& o) {
        const float* go = o.grad.data();
        std::int64_t off = 0;
        for (const auto& p : parts) {
          auto pi = p.impl();
          const std::int64_t pd = p.size(dim);
          if (pi->requires_grad) {
            pi->ensure_grad();
            float* gp = pi->grad.data();
            for (std::int64_t r = 0; r < outer; ++r) {
              const float* src = go + (r * out_dim + off) * inner;
              float* dst = gp + r * pd * inner;
              for (std::int64_t k = 0; k < pd * inner; ++k) dst[k] += src[k];
            }
          }
          off += pd;
        }
      });
  float* ov = out.data();
  std::int64_t off = 0;
  for (const auto& p : parts) {
    const std::int64_t pd = p.size(dim);
    const float* pv = p.data();
    for (std::int64_t r = 0; r < outer; ++r) {
      std::copy(pv + r * pd * inner, pv + (r + 1) * pd * inner,
                ov + (r * out_dim + off) * inner);
    }
    off += pd;
  }
  return out;
}

Tensor narrow(const Tensor& a, std::int64_t dim, std::int64_t start,
              std::int64_t len) {
  const auto nd = a.dim();
  if (dim < 0) dim += nd;
  MFA_CHECK(start >= 0 && len > 0 && start + len <= a.size(dim))
      << " narrow: slice [" << start << ", " << start + len
      << ") out of range for dim " << dim << " of " << shape_str(a.shape());
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(dim)] = len;
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < dim; ++d) outer *= a.size(d);
  for (std::int64_t d = dim + 1; d < nd; ++d) inner *= a.size(d);
  const std::int64_t in_dim = a.size(dim);

  Tensor out = Tensor::make_result(
      out_shape, {a},
      [a, outer, inner, in_dim, start, len](detail::TensorImpl& o) {
        auto ai = a.impl();
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        const float* go = o.grad.data();
        float* ga = ai->grad.data();
        for (std::int64_t r = 0; r < outer; ++r) {
          float* dst = ga + (r * in_dim + start) * inner;
          const float* src = go + r * len * inner;
          for (std::int64_t k = 0; k < len * inner; ++k) dst[k] += src[k];
        }
      });
  const float* av = a.data();
  float* ov = out.data();
  for (std::int64_t r = 0; r < outer; ++r) {
    std::copy(av + (r * in_dim + start) * inner,
              av + (r * in_dim + start + len) * inner, ov + r * len * inner);
  }
  return out;
}

}  // namespace mfa::ops
