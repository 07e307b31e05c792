// GEMM shape sweep and SIMD-vs-scalar envelope for the dispatched kernel
// family (tensor/gemm.h).
//
// The shape set is the model's real GEMM work: per-sample conv im2col
// products (forward nn, dW nt, dcol tn) at the paper model's channel widths,
// plus the transformer block's token matmuls. Timing is best-of-reps
// wall-clock per shape.
//
// Modes (driven by scripts/bench.sh):
//   --sweep               per-variant GFLOP/s table over the shape set
//   --envelope            JSON line: best-SIMD vs scalar speedup on the
//                         large shapes (bench.sh --check asserts >= 2x on
//                         the fingerprinted host)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
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

// The envelope compares SIMD to scalar only where SIMD should pay —
// the packing-scale shapes.
bool is_large(const Shape& s) { return s.m * s.k * s.n >= (1 << 26); }

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

void mode_sweep() {
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
}

int mode_envelope() {
  const auto vs = supported();
  const Variant best = vs.back();
  if (best == Variant::kScalar) {
    std::printf("GEMM_ENVELOPE {\"simd\": \"scalar\", \"speedup\": 1.0}\n");
    return 0;
  }
  double worst = 1e30;
  for (const Shape& s : kShapes) {
    if (!is_large(s)) continue;
    ShapeData d = make_data(s, 7);
    kernels::set_variant_override(static_cast<int>(Variant::kScalar));
    const double t_scalar = time_shape(s, d, reps_for(s));
    kernels::set_variant_override(static_cast<int>(best));
    const double t_simd = time_shape(s, d, reps_for(s));
    worst = std::min(worst, t_scalar / t_simd);
  }
  kernels::set_variant_override(-1);
  std::printf("GEMM_ENVELOPE {\"simd\": \"%s\", \"speedup\": %.3f}\n",
              kernels::variant_name(best), worst);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "--sweep";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep" || arg == "--envelope") {
      mode = arg;
    } else {
      std::fprintf(stderr, "usage: bench_gemm [--sweep|--envelope]\n");
      return 2;
    }
  }
  if (mode == "--envelope") return mode_envelope();
  mode_sweep();
  return 0;
}
