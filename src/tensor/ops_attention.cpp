// ops::position_attention: the MFA block's position attention (Eqs. 4-5)
// as one op that walks the [L, L] attention map in blocks of rows.
//
// It is bit-identical, forward and backward, to the chain
//   matmul(d, transpose2d(softmax(matmul(transpose2d(b), c), 2)))
// because every reduction of that chain is run by the same kernel on the
// same operands in the same k order, only on row blocks (DESIGN.md,
// "Position attention, permute and softmax", has the table). Inference
// never holds an [N, L, L] buffer; training keeps P = softmax(bᵀc) and
// nothing else of that size.
#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/softmax_row.h"

namespace mfa::ops {
namespace {

using kernels::gemm_nn;
using kernels::gemm_nt;
using kernels::gemm_tn;

// Rows of P per block (forward task, backward step) and columns of P per
// d.grad panel. Any values give the same bits; these keep a block's
// working set (a few R x L or L x K float panels) in L2 at L = 1024.
constexpr std::int64_t kRowBlock = 32;
constexpr std::int64_t kColPanel = 64;

void zero(float* p, std::int64_t n) {
  std::memset(p, 0, static_cast<std::size_t>(n) * sizeof(float));
}

// dst[j * ld_dst + i] = src[i * ld_src + j] for i < rows, j < cols: an
// [rows, cols] block moved into its transpose, 64 x 64 tiles at a time.
// Each tile is staged row by row (contiguous reads), then written out row
// by row (contiguous writes): a direct walk down a 4 KiB-strided column
// keeps every line in one L1 set (see ops_shape.cpp's permute).
void transpose_into(const float* src, std::int64_t ld_src, float* dst,
                    std::int64_t ld_dst, std::int64_t rows,
                    std::int64_t cols) {
  constexpr std::int64_t kTile = 64;
  alignas(64) float tile[kTile * kTile] = {};
  for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
    const std::int64_t nj = std::min(kTile, cols - j0);
    for (std::int64_t i0 = 0; i0 < rows; i0 += kTile) {
      const std::int64_t ni = std::min(kTile, rows - i0);
      for (std::int64_t i = 0; i < ni; ++i)
        std::memcpy(tile + i * kTile, src + (i0 + i) * ld_src + j0,
                    static_cast<std::size_t>(nj) * sizeof(float));
      for (std::int64_t j = 0; j < nj; ++j) {
        float* o = dst + (j0 + j) * ld_dst + i0;
        for (std::int64_t i = 0; i < ni; ++i) o[i] = tile[i * kTile + j];
      }
    }
  }
}

// Score rows j0 .. j0 + rows of one sample, then their share of the
// output. bn, cn: the sample's b and c [r, L]; dt: its dᵀ [L, r]; s: the
// rows' zeroed [rows, L] target (rows of P when training keeps it); on: the
// sample's output [r, L].
void forward_rows(const float* bn, const float* cn, const float* dt,
                  float* s, float* on, std::int64_t r, std::int64_t L,
                  std::int64_t j0, std::int64_t rows) {
  float* bt = kernels::scratch(0, 2 * kRowBlock * r);  // [rows, r] of bᵀ
  float* ob = bt + kRowBlock * r;                      // [rows, r] of outᵀ
  // S = bᵀ[rows] · c, accumulated into zero, then softmax in place.
  transpose_into(bn + j0, L, bt, r, r, rows);
  gemm_nn(bt, cn, s, rows, r, L);
  for (std::int64_t i = 0; i < rows; ++i)
    kernels::softmax_row(s + i * L, s + i * L, L, 1);
  // outᵀ rows = S · dᵀ from zero. Each element is the chain's k-ascending
  // FMA chain of d · Pᵀ with the factors swapped (fma(a, b, c) =
  // fma(b, a, c)), so S needs no transpose.
  zero(ob, rows * r);
  gemm_nn(s, dt, ob, rows, L, r);
  for (std::int64_t q = 0; q < r; ++q)
    for (std::int64_t i = 0; i < rows; ++i) on[q * L + j0 + i] = ob[i * r + q];
}

// d.grad += g · P for one sample: the chain's gemm_nt(g, Pᵀ), on panels of
// kColPanel columns of P moved into rows, and staged through a copy of the
// matching d.grad columns. pn: P [L, L]; gn: g [r, L]; gdn: d.grad [r, L].
void d_grad(const float* pn, const float* gn, float* gdn, std::int64_t r,
            std::int64_t L) {
  constexpr std::int64_t K = kColPanel;
  float* panel = kernels::scratch(3, K * L);  // [cols, L] of Pᵀ
  float* stage = kernels::scratch(0, r * K);  // [r, cols] of d.grad
  const auto bytes = [](std::int64_t n) {
    return static_cast<std::size_t>(n) * sizeof(float);
  };
  for (std::int64_t j0 = 0; j0 < L; j0 += K) {
    const std::int64_t cols = std::min(K, L - j0);
    transpose_into(pn + j0, L, panel, L, L, cols);
    for (std::int64_t q = 0; q < r; ++q)
      std::memcpy(stage + q * cols, gdn + q * L + j0, bytes(cols));
    gemm_nt(gn, panel, stage, r, L, cols);
    for (std::int64_t q = 0; q < r; ++q)
      std::memcpy(gdn + q * L + j0, stage + q * cols, bytes(cols));
  }
}

// b.grad and c.grad of one sample, row block by row block in ascending
// order (c.grad's FMA chain runs through them). gbn / gcn may be null when
// that input needs no gradient. b.grad is added after c.grad's chain, in
// the chain's order, so the bits hold even when b, c or d share a tensor.
void bc_grad(const float* pn, const float* gn, const float* bn,
             const float* cn, const float* dn, float* gbn, float* gcn,
             std::int64_t r, std::int64_t L) {
  constexpr std::int64_t R = kRowBlock;
  float* gt = kernels::scratch(0, 2 * R * r + L * r);  // [rows, r] of gᵀ
  float* bt = gt + R * r;                              // [rows, r] of bᵀ
  float* gbt = bt + R * r;                             // [L, r] bᵀ.grad
  float* pg = kernels::scratch(1, 2 * R * L);  // [rows, L] of P.grad
  float* sg = pg + R * L;                      // [rows, L] of scores.grad
  for (std::int64_t j0 = 0; j0 < L; j0 += R) {
    const std::int64_t rows = std::min(R, L - j0);
    // P.grad rows = gᵀ · d from zero: the chain's gemm_tn(d, g) into a
    // zeroed Pᵀ.grad with the factors swapped.
    transpose_into(gn + j0, L, gt, r, r, rows);
    zero(pg, rows * L);
    gemm_nn(gt, dn, pg, rows, r, L);
    // Score-grad rows into zero, like the chain's zeroed scores.grad.
    zero(sg, rows * L);
    for (std::int64_t i = 0; i < rows; ++i)
      kernels::softmax_row_backward(pn + (j0 + i) * L, pg + i * L, sg + i * L,
                                    L, 1);
    transpose_into(bn + j0, L, bt, r, r, rows);
    // bᵀ.grad rows = sg · cᵀ into zero, as into the chain's zeroed bᵀ.grad.
    if (gbn) {
      zero(gbt + j0 * r, rows * r);
      gemm_nt(sg, cn, gbt + j0 * r, rows, L, r);
    }
    // c.grad += bᵀ[rows]ᵀ · sg: the chain's one k-ascending FMA chain,
    // continued block by block.
    if (gcn) gemm_tn(bt, sg, gcn, r, rows, L);
  }
  // b.grad += (bᵀ.grad)ᵀ, as transpose2d(b)'s backward did.
  if (gbn)
    for (std::int64_t q = 0; q < r; ++q)
      for (std::int64_t i = 0; i < L; ++i) gbn[q * L + i] += gbt[i * r + q];
}

}  // namespace

Tensor position_attention(const Tensor& b, const Tensor& c, const Tensor& d) {
  const sanitize::OpScope op_scope("position_attention");
  MFA_CHECK(b.dim() == 3 && c.shape() == b.shape() && d.shape() == b.shape())
      << " position_attention: b, c and d must share one [N, r, L] shape, got "
      << shape_str(b.shape()) << ", " << shape_str(c.shape()) << ", "
      << shape_str(d.shape());
  const std::int64_t N = b.size(0);
  const std::int64_t r = b.size(1);
  const std::int64_t L = b.size(2);

  // P is kept exactly when make_result records a node. Its rows are the
  // zeroed GEMM targets of the score blocks, as make_result left the
  // chain's score map.
  const bool keep_p = GradMode::enabled() &&
                      (b.requires_grad() || c.requires_grad() ||
                       d.requires_grad());
  tensor::Storage p;
  if (keep_p) p = tensor::Storage::full(N * L * L, 0.0f);

  // Inputs in the chain's tape order: its DFS reached d first (matmul(d,
  // ...)), then b (inside transpose2d(b)), then c. The op's grads are the
  // same either way, but the order fixes how the three producers' backward
  // closures later accumulate into their shared input.
  Tensor out = Tensor::make_result(
      {N, r, L}, {d, b, c}, [b, c, d, p, N, r, L](detail::TensorImpl& o) {
        // The grad buffer of an input that needs one, else null.
        const auto grad_of = [](const Tensor& t) -> float* {
          auto ti = t.impl();
          if (!ti->requires_grad) return nullptr;
          ti->ensure_grad();
          return ti->grad.data();
        };
        float* gb = grad_of(b);
        float* gc = grad_of(c);
        float* gd = grad_of(d);
        const float* go = o.grad.data();
        // One sample per task: its grad slices are its own, and c.grad's
        // FMA chain keeps the sample's row blocks in order.
        parallel_for(
            N,
            [&](std::int64_t n0, std::int64_t n1) {
              for (std::int64_t n = n0; n < n1; ++n) {
                const std::int64_t off = n * r * L;
                const float* pn = p.data() + n * L * L;
                for (float* g : {gb, gc, gd})
                  if (g) sanitize::note_parallel_write(g, off, off + r * L);
                if (gd) d_grad(pn, go + off, gd + off, r, L);
                if (gb || gc)
                  bc_grad(pn, go + off, b.data() + off, c.data() + off,
                          d.data() + off, gb ? gb + off : nullptr,
                          gc ? gc + off : nullptr, r, L);
              }
            },
            1);
      });

  // One task per (sample, block of kRowBlock rows of P).
  const std::int64_t blocks = (L + kRowBlock - 1) / kRowBlock;
  float* ov = out.data();
  parallel_for(
      N * blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        float* dt = kernels::scratch(3, L * r);  // dᵀ [L, r] of sample dt_n
        float* rows_buf =
            keep_p ? nullptr : kernels::scratch(1, kRowBlock * L);
        std::int64_t dt_n = -1;
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t n = t / blocks;
          const std::int64_t j0 = (t % blocks) * kRowBlock;
          const std::int64_t rows = std::min(kRowBlock, L - j0);
          const std::int64_t off = n * r * L;
          if (dt_n != n) {
            transpose_into(d.data() + off, L, dt, r, r, L);
            dt_n = n;
          }
          float* s = rows_buf;
          if (keep_p) {
            const std::int64_t p0 = (n * L + j0) * L;
            sanitize::note_parallel_write(p.data(), p0, p0 + rows * L);
            s = p.data() + p0;
          } else {
            zero(s, rows * L);
          }
          for (std::int64_t q = 0; q < r; ++q)
            sanitize::note_parallel_write(ov, off + q * L + j0,
                                          off + q * L + j0 + rows);
          forward_rows(b.data() + off, c.data() + off, dt, s, ov + off, r, L,
                       j0, rows);
        }
      },
      1);
  return out;
}

}  // namespace mfa::ops
