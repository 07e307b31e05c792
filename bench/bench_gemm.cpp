// GEMM shape sweep for the dispatched kernel family (tensor/gemm.h): prints
// a per-variant GFLOP/s table, one row per shape, for every variant this CPU
// supports.
//
// The shape set is the model's real GEMM work: per-sample conv im2col
// products (forward nn, dW nt, dcol tn) at the paper model's channel widths,
// plus the transformer block's token matmuls. Timing is best-of-reps
// wall-clock per shape.
//
// Usage: bench_gemm
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "tensor/gemm.h"

using namespace mfa;

namespace {

using kernels::Variant;

enum class OpKind { kNN, kNT, kTN };

struct Shape {
  OpKind op;
  std::int64_t m, k, n;
  const char* note;
};

// Conv shapes are gemm(Cout, CKK, HW) per sample at 64x64 and 32x32 maps
// (base_channels 8..32, 3x3 kernels); matmul shapes are the transformer
// tokens x channels products; the 512-cubed entry sizes the packed path.
const Shape kShapes[] = {
    {OpKind::kNN, 8, 72, 4096, "conv fwd c8"},
    {OpKind::kNN, 32, 288, 4096, "conv fwd c32"},
    {OpKind::kNN, 64, 576, 1024, "conv fwd deep"},
    {OpKind::kNT, 32, 4096, 288, "conv dW c32"},
    {OpKind::kTN, 288, 32, 4096, "conv dcol c32"},
    {OpKind::kNN, 1024, 64, 64, "attn tokens"},
    {OpKind::kNN, 512, 512, 512, "large nn"},
    {OpKind::kNT, 512, 512, 512, "large nt"},
    {OpKind::kTN, 512, 512, 512, "large tn"},
};

void run_shape(const Shape& s, const float* A, const float* B, float* C) {
  switch (s.op) {
    case OpKind::kNN:
      kernels::gemm_nn(A, B, C, s.m, s.k, s.n);
      break;
    case OpKind::kNT:
      kernels::gemm_nt(A, B, C, s.m, s.k, s.n);
      break;
    case OpKind::kTN:
      kernels::gemm_tn(A, B, C, s.m, s.k, s.n);
      break;
  }
}

struct ShapeData {
  std::vector<float> a, b, c;
};

ShapeData make_data(const Shape& s, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  ShapeData d;
  d.a.resize(static_cast<size_t>(s.m * s.k));
  d.b.resize(static_cast<size_t>(s.k * s.n));
  d.c.resize(static_cast<size_t>(s.m * s.n));
  for (auto& x : d.a) x = dist(rng);
  for (auto& x : d.b) x = dist(rng);
  return d;
}

/// Best-of-`reps` seconds for one shape under the current dispatch state.
double time_shape(const Shape& s, ShapeData& d, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::fill(d.c.begin(), d.c.end(), 0.0f);
    const auto t0 = std::chrono::steady_clock::now();
    run_shape(s, d.a.data(), d.b.data(), d.c.data());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

double gflops(const Shape& s, double sec) {
  return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
         static_cast<double>(s.n) / sec * 1e-9;
}

std::vector<Variant> supported() {
  std::vector<Variant> out;
  for (int v = 0; v < kernels::kNumVariants; ++v)
    if (kernels::variant_supported(static_cast<Variant>(v)))
      out.push_back(static_cast<Variant>(v));
  return out;
}

int reps_for(const Shape& s) {
  // Keep per-config cost bounded: tiny shapes need more reps for a stable
  // best-of, big ones are stable at three.
  return s.m * s.k * s.n >= (1 << 24) ? 3 : 7;
}

}  // namespace

int main() {
  std::printf("%-16s", "shape");
  for (Variant v : supported())
    std::printf("  %12s", kernels::variant_name(v));
  std::printf("   (GFLOP/s, best-of-reps)\n");
  for (const Shape& s : kShapes) {
    ShapeData d = make_data(s, 42);
    std::printf("%-16s", s.note);
    for (Variant v : supported()) {
      kernels::set_variant_override(static_cast<int>(v));
      std::printf("  %12.2f", gflops(s, time_shape(s, d, reps_for(s))));
    }
    std::printf("\n");
  }
  kernels::set_variant_override(-1);
  return 0;
}
