// Sparse row ops over an index tensor: the gather/scatter/segment family
// that graph-native models (LHNN's lattice hypergraph) are built from.
//
// Index tensors follow the cross_entropy-targets idiom: a 1-D float tensor
// holding integral ids. Every op decodes the ids once per call into a shared
// int64 vector — an O(M) pass that also bounds-checks each id with always-on
// MFA_CHECKs (out-of-range ids throw check::CheckError in every build type).
// The decoded vector is captured by the backward closure, so the inner
// kernels (forward and backward) run without per-element checks: that is the
// documented Release fast path. Integrality (id == floor(id)) is an
// MFA_DCHECK — a Debug-only diagnosis of a malformed index tensor, since a
// truncated fractional id is still in range and memory-safe.
//
// Determinism contract (same scheme as conv2d's dW reduction): every
// scatter-style reduction partitions the index dimension into a fixed number
// of contiguous slots — kScatterSlots, never MFA_THREADS — accumulates each
// slot into a private dense buffer under a declared-write range, and reduces
// the slots sequentially in slot order after the join. The floating-point
// grouping therefore depends only on the problem size, making results
// bit-identical across MFA_THREADS x MFA_POOL (pinned by the property suite
// and the LHNN golden hash). Gathers parallelise over the output rows, which
// are disjoint by construction.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "tensor/ops.h"
#include "tensor/storage.h"

namespace mfa::ops {
namespace {

// Fixed slot count for scatter reductions; see the file comment.
constexpr std::int64_t kScatterSlots = 16;

using IndexVec = std::shared_ptr<const std::vector<std::int64_t>>;

/// Decodes a float index tensor into int64 ids, validating every id against
/// [0, limit). `what` names the op and operand for the error message.
IndexVec decode_index(const Tensor& index, std::int64_t limit,
                      const char* what) {
  MFA_CHECK(index.defined()) << " " << what << ": undefined index tensor";
  MFA_CHECK_EQ(index.dim(), 1)
      << " " << what << ": index must be 1-D, got "
      << shape_str(index.shape());
  const std::int64_t m = index.numel();
  auto ids = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(m));
  const float* iv = index.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float v = iv[i];
    MFA_DCHECK_EQ(v, std::floor(v))
        << " " << what << ": non-integral id " << v << " at position " << i;
    const auto id = static_cast<std::int64_t>(v);
    MFA_CHECK(id >= 0 && id < limit)
        << " " << what << ": id " << id << " at position " << i
        << " out of range [0, " << limit << ")";
    (*ids)[static_cast<std::size_t>(i)] = id;
  }
  return ids;
}

/// Row width (floats per row) of a tensor whose leading dim is the row dim.
std::int64_t row_width(const Tensor& t) {
  std::int64_t d = 1;
  for (std::int64_t i = 1; i < t.dim(); ++i) d *= t.size(i);
  return d;
}

/// out[ids[m]] += src[m] for every m, deterministically: contiguous m-slots
/// accumulate into private buffers, then a sequential slot-order reduce.
/// `scale` (optional, length num_rows) scales src row m by scale[ids[m]]
/// — the segment_mean forward reuses the sum kernel with 1/count weights.
void scatter_add_slotted(const float* src, const std::vector<std::int64_t>& ids,
                         std::int64_t d, float* out, std::int64_t num_rows,
                         const float* scale = nullptr) {
  const auto m = static_cast<std::int64_t>(ids.size());
  const std::int64_t rd = num_rows * d;
  if (m == 0 || rd == 0) return;
  const std::int64_t slots = std::max<std::int64_t>(
      1, std::min<std::int64_t>(m, kScatterSlots));
  if (slots == 1) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* s = src + i * d;
      float* o = out + ids[static_cast<std::size_t>(i)] * d;
      const float w =
          scale ? scale[ids[static_cast<std::size_t>(i)]] : 1.0f;
      for (std::int64_t k = 0; k < d; ++k) o[k] += w * s[k];
    }
    return;
  }
  const std::int64_t per_slot = (m + slots - 1) / slots;
  tensor::Storage acc;
  acc.assign(slots * rd, 0.0f);
  float* av = acc.data();
  parallel_for(
      slots,
      [&](std::int64_t s0, std::int64_t s1) {
        sanitize::note_parallel_write(av, s0 * rd, s1 * rd);
        for (std::int64_t s = s0; s < s1; ++s) {
          float* slot = av + s * rd;
          const std::int64_t i0 = s * per_slot;
          const std::int64_t i1 = std::min(m, i0 + per_slot);
          for (std::int64_t i = i0; i < i1; ++i) {
            const float* sp = src + i * d;
            float* o = slot + ids[static_cast<std::size_t>(i)] * d;
            const float w =
                scale ? scale[ids[static_cast<std::size_t>(i)]] : 1.0f;
            for (std::int64_t k = 0; k < d; ++k) o[k] += w * sp[k];
          }
        }
      },
      /*grain=*/1);
  // Sequential slot-order reduce: the grouping is fixed by (m, slots), so
  // the sum is bit-identical for any thread count.
  for (std::int64_t s = 0; s < slots; ++s) {
    const float* slot = av + s * rd;
    for (std::int64_t i = 0; i < rd; ++i) out[i] += slot[i];
  }
}

/// out[m] += weight(m) * table[ids[m]] for every m — the gather kernel, also
/// the backward of every scatter-style op. Output rows are disjoint, so it
/// parallelises over m directly.
void gather_kernel(const float* table, const std::vector<std::int64_t>& ids,
                   std::int64_t d, float* out, const float* scale = nullptr) {
  const auto m = static_cast<std::int64_t>(ids.size());
  if (m == 0 || d == 0) return;
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        sanitize::note_parallel_write(out, i0 * d, i1 * d);
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* s = table + ids[static_cast<std::size_t>(i)] * d;
          const float w =
              scale ? scale[ids[static_cast<std::size_t>(i)]] : 1.0f;
          float* o = out + i * d;
          for (std::int64_t k = 0; k < d; ++k) o[k] += w * s[k];
        }
      },
      /*grain=*/std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, d)));
}

/// Per-segment reciprocal sizes for segment_mean (empty segments -> 0).
std::shared_ptr<const std::vector<float>> segment_inv_counts(
    const std::vector<std::int64_t>& ids, std::int64_t num_segments) {
  auto inv = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(num_segments), 0.0f);
  for (const std::int64_t id : ids) (*inv)[static_cast<std::size_t>(id)] += 1.0f;
  for (float& v : *inv) v = v > 0.0f ? 1.0f / v : 0.0f;
  return inv;
}

Shape rows_shape(const Tensor& like, std::int64_t rows) {
  Shape out = like.shape();
  out[0] = rows;
  return out;
}

/// Shared forward+backward of segment_sum / segment_mean / scatter_add_rows:
/// mean passes the 1/count weights, sum passes none.
Tensor scatter_like(const char* op_name, const Tensor& src,
                    const Tensor& index, std::int64_t num_rows, bool mean) {
  const sanitize::OpScope op_scope(op_name);
  MFA_CHECK(src.defined()) << " " << op_name << ": undefined source";
  MFA_CHECK_GE(src.dim(), 1) << " " << op_name << ": source must have a row "
                             << "dim, got " << shape_str(src.shape());
  MFA_CHECK_GT(num_rows, 0) << " " << op_name << ": num_rows";
  const IndexVec ids = decode_index(index, num_rows, op_name);
  MFA_CHECK_EQ(static_cast<std::int64_t>(ids->size()), src.size(0))
      << " " << op_name << ": index length vs source rows, source "
      << shape_str(src.shape());
  const std::int64_t d = row_width(src);
  std::shared_ptr<const std::vector<float>> inv;
  if (mean) inv = segment_inv_counts(*ids, num_rows);
  Tensor out = Tensor::make_result(
      rows_shape(src, num_rows), {src},
      [src, ids, inv, d](detail::TensorImpl& o) {
        auto si = src.impl();
        if (!si->requires_grad) return;
        si->ensure_grad();
        gather_kernel(o.grad.data(), *ids, d, si->grad.data(),
                      inv ? inv->data() : nullptr);
      });
  scatter_add_slotted(src.data(), *ids, d, out.data(), num_rows,
                      inv ? inv->data() : nullptr);
  return out;
}

}  // namespace

Tensor gather_rows(const Tensor& x, const Tensor& index) {
  const sanitize::OpScope op_scope("gather_rows");
  MFA_CHECK(x.defined()) << " gather_rows: undefined source";
  MFA_CHECK_GE(x.dim(), 1)
      << " gather_rows: source must have a row dim, got "
      << shape_str(x.shape());
  const std::int64_t rows = x.size(0);
  const IndexVec ids = decode_index(index, rows, "gather_rows");
  const std::int64_t d = row_width(x);
  Tensor out = Tensor::make_result(
      rows_shape(x, static_cast<std::int64_t>(ids->size())), {x},
      [x, ids, d, rows](detail::TensorImpl& o) {
        auto xi = x.impl();
        if (!xi->requires_grad) return;
        xi->ensure_grad();
        scatter_add_slotted(o.grad.data(), *ids, d, xi->grad.data(), rows);
      });
  gather_kernel(x.data(), *ids, d, out.data());
  return out;
}

Tensor scatter_add_rows(const Tensor& src, const Tensor& index,
                        std::int64_t num_rows) {
  return scatter_like("scatter_add_rows", src, index, num_rows, false);
}

Tensor segment_sum(const Tensor& src, const Tensor& segment_ids,
                   std::int64_t num_segments) {
  return scatter_like("segment_sum", src, segment_ids, num_segments, false);
}

Tensor segment_mean(const Tensor& src, const Tensor& segment_ids,
                    std::int64_t num_segments) {
  return scatter_like("segment_mean", src, segment_ids, num_segments, true);
}

Tensor index_select(const Tensor& x, std::int64_t dim, const Tensor& index) {
  const sanitize::OpScope op_scope("index_select");
  MFA_CHECK(x.defined()) << " index_select: undefined source";
  const std::int64_t nd = x.dim();
  const std::int64_t dd = dim < 0 ? dim + nd : dim;
  MFA_CHECK_BOUNDS(dd, nd)
      << " index_select dim on " << shape_str(x.shape());
  if (dd == 0) return gather_rows(x, index);
  const std::int64_t extent = x.size(dd);
  const IndexVec ids = decode_index(index, extent, "index_select");
  const auto m = static_cast<std::int64_t>(ids->size());
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t i = 0; i < dd; ++i) outer *= x.size(i);
  for (std::int64_t i = dd + 1; i < nd; ++i) inner *= x.size(i);
  Shape out_shape = x.shape();
  out_shape[static_cast<std::size_t>(dd)] = m;
  Tensor out = Tensor::make_result(
      std::move(out_shape), {x},
      [x, ids, m, extent, outer, inner](detail::TensorImpl& o) {
        auto xi = x.impl();
        if (!xi->requires_grad) return;
        xi->ensure_grad();
        const float* go = o.grad.data();
        float* gx = xi->grad.data();
        // Outer slices write disjoint [extent, inner] blocks; within one
        // slice the m-loop runs sequentially, so the accumulation order into
        // a duplicated id matches the sequential walk exactly.
        parallel_for(
            outer,
            [&](std::int64_t r0, std::int64_t r1) {
              sanitize::note_parallel_write(gx, r0 * extent * inner,
                                            r1 * extent * inner);
              for (std::int64_t r = r0; r < r1; ++r)
                for (std::int64_t i = 0; i < m; ++i) {
                  const std::int64_t id = (*ids)[static_cast<std::size_t>(i)];
                  const float* g = go + (r * m + i) * inner;
                  float* dst = gx + (r * extent + id) * inner;
                  for (std::int64_t k = 0; k < inner; ++k) dst[k] += g[k];
                }
            },
            /*grain=*/1);
      });
  const float* xv = x.data();
  float* ov = out.data();
  parallel_for(
      outer,
      [&](std::int64_t r0, std::int64_t r1) {
        sanitize::note_parallel_write(ov, r0 * m * inner, r1 * m * inner);
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t i = 0; i < m; ++i) {
            const std::int64_t id = (*ids)[static_cast<std::size_t>(i)];
            const float* s = xv + (r * extent + id) * inner;
            float* o = ov + (r * m + i) * inner;
            for (std::int64_t k = 0; k < inner; ++k) o[k] = s[k];
          }
      },
      /*grain=*/1);
  return out;
}

}  // namespace mfa::ops
