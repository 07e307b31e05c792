// Dispatched-GEMM kernel family tests (tensor/gemm.h).
//
// Covers, per compiled-and-supported variant (scalar / avx2 / avx512):
//  * correctness of all three kernels against a double-precision reference
//    on edge shapes (0, 1, 3, tile-1, tile, tile+1, large prime) plus a
//    packing-sized shape;
//  * bit-identical results across MFA_THREADS {1, 4}, across tile
//    parameters, and across the pack / no-pack decision — the determinism
//    contract of gemm_tiles.h;
//  * dispatch control: MFA_SIMD resolution (pure resolver + live env),
//    override honored for supported variants and rejected gracefully for
//    unsupported ones;
//  * the 64-byte alignment guarantee of the kernels::scratch arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"

namespace mfa {
namespace {

using kernels::GemmTiles;
using kernels::Variant;

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t);

struct Op {
  const char* name;
  GemmFn fn;
};

const Op kOps[] = {
    {"nn", kernels::gemm_nn},
    {"nt", kernels::gemm_nt},
    {"tn", kernels::gemm_tn},
};

/// Restores dispatch overrides and the ambient pool size on scope exit.
struct DispatchGuard {
  ~DispatchGuard() {
    kernels::set_variant_override(-1);
    for (int v = 0; v < kernels::kNumVariants; ++v)
      kernels::set_tiles_override(static_cast<Variant>(v), nullptr);
    common::ThreadPool::instance().resize_for_testing(1);
  }
};

std::vector<Variant> supported_variants() {
  std::vector<Variant> out;
  for (int v = 0; v < kernels::kNumVariants; ++v)
    if (kernels::variant_supported(static_cast<Variant>(v)))
      out.push_back(static_cast<Variant>(v));
  return out;
}

std::vector<float> random_vec(std::int64_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Double-precision reference for all three layouts; accumulates into C.
void ref_gemm(const char* op, const std::vector<float>& A,
              const std::vector<float>& B, std::vector<float>* C,
              std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        const double a = std::strcmp(op, "tn") == 0 ? A[l * m + i]
                                                    : A[i * k + l];
        const double b = std::strcmp(op, "nt") == 0 ? B[j * k + l]
                                                    : B[l * n + j];
        s += a * b;
      }
      (*C)[i * n + j] += static_cast<float>(s);
    }
}

void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  std::int64_t k, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  // Error budget: k float roundings against a double reference.
  const double tol = 1e-5 * (1.0 + std::sqrt(static_cast<double>(k)));
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(1.0, std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], tol * denom) << what << " at " << i;
  }
}

TEST(GemmCorrectness, AllKernelsMatchDoubleReferenceOnEdgeShapes) {
  DispatchGuard guard;
  // 0 = empty, 1/3 = sub-vector tails, 15/16/17 = around the AVX-512 lane
  // count (and past AVX2's 8), 97 = large prime that tiles never divide.
  const std::int64_t dims[] = {0, 1, 3, 15, 16, 17, 97};
  for (Variant v : supported_variants()) {
    ASSERT_TRUE(kernels::set_variant_override(static_cast<int>(v)));
    for (const Op& op : kOps) {
      for (std::int64_t m : dims)
        for (std::int64_t k : dims)
          for (std::int64_t n : dims) {
            const auto A = random_vec(std::max<std::int64_t>(m * k, 1), 1);
            const auto B = random_vec(std::max<std::int64_t>(k * n, 1), 2);
            auto C = random_vec(std::max<std::int64_t>(m * n, 1), 3);
            C.resize(static_cast<size_t>(m * n));
            auto want = C;
            op.fn(A.data(), B.data(), C.data(), m, k, n);
            ref_gemm(op.name, A, B, &want, m, k, n);
            expect_close(C, want, k,
                         std::string(kernels::variant_name(v)) + " " +
                             op.name + " m=" + std::to_string(m) +
                             " k=" + std::to_string(k) +
                             " n=" + std::to_string(n));
          }
    }
  }
}

TEST(GemmCorrectness, PackedPathMatchesReferenceOnLargeShape) {
  DispatchGuard guard;
  const std::int64_t m = 64, k = 256, n = 640;  // k*n > default pack_min
  for (Variant v : supported_variants()) {
    ASSERT_TRUE(kernels::set_variant_override(static_cast<int>(v)));
    const auto A = random_vec(m * k, 11);
    const auto B = random_vec(k * n, 12);
    auto C = std::vector<float>(static_cast<size_t>(m * n), 0.5f);
    auto want = C;
    kernels::gemm_nn(A.data(), B.data(), C.data(), m, k, n);
    ref_gemm("nn", A, B, &want, m, k, n);
    expect_close(C, want, k,
                 std::string("packed nn ") + kernels::variant_name(v));
  }
}

std::vector<float> run_once(const Op& op, Variant v, const GemmTiles* tiles,
                            int threads, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  EXPECT_TRUE(kernels::set_variant_override(static_cast<int>(v)));
  kernels::set_tiles_override(v, tiles);
  common::ThreadPool::instance().resize_for_testing(threads);
  const auto A = random_vec(
      std::max<std::int64_t>(std::strcmp(op.name, "tn") == 0 ? k * m : m * k,
                             1),
      21);
  const auto B = random_vec(std::max<std::int64_t>(k * n, 1), 22);
  std::vector<float> C(static_cast<size_t>(m * n), 0.25f);
  op.fn(A.data(), B.data(), C.data(), m, k, n);
  return C;
}

TEST(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  DispatchGuard guard;
  const std::int64_t m = 128, k = 64, n = 96;
  for (Variant v : supported_variants()) {
    for (const Op& op : kOps) {
      const auto one = run_once(op, v, nullptr, 1, m, k, n);
      const auto four = run_once(op, v, nullptr, 4, m, k, n);
      ASSERT_EQ(0, std::memcmp(one.data(), four.data(),
                               one.size() * sizeof(float)))
          << kernels::variant_name(v) << " " << op.name
          << ": threads 1 vs 4 diverged";
    }
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossTileParametersAndPacking) {
  DispatchGuard guard;
  const std::int64_t m = 96, k = 80, n = 112;
  // Configs straddle every lever: register tile shape, panel sizes,
  // pack_min at both extremes (0 = always pack, huge = never pack), and
  // pack_min_a at both extremes (A panel always / never copied).
  GemmTiles configs[6];
  configs[0] = GemmTiles{};
  configs[1].mr = 1;
  configs[1].nv = 1;
  configs[1].nc = 64;
  configs[1].kc = 32;
  configs[1].pack_min = 0;
  configs[1].pack_min_a = 0;
  configs[2].mr = 8;
  configs[2].nv = 4;
  configs[2].nc = 128;
  configs[2].kc = 48;
  configs[2].pack_min = 0;
  configs[2].pack_min_a = std::int64_t{1} << 40;
  configs[3].mr = 2;
  configs[3].nv = 2;
  configs[3].nc = 4096;
  configs[3].kc = 8192;
  configs[3].pack_min = std::int64_t{1} << 40;
  configs[4].mr = 4;
  configs[4].nv = 2;
  configs[4].nc = 48;
  configs[4].kc = 16;
  configs[4].pack_min = 1;
  configs[4].pack_min_a = 1;
  configs[5] = GemmTiles{};
  configs[5].pack_min = 0;
  configs[5].pack_min_a = 0;
  for (Variant v : supported_variants()) {
    for (const Op& op : kOps) {
      const auto base = run_once(op, v, &configs[0], 1, m, k, n);
      for (size_t c = 1; c < 6; ++c) {
        const auto got = run_once(op, v, &configs[c], 1, m, k, n);
        ASSERT_EQ(0, std::memcmp(base.data(), got.data(),
                                 base.size() * sizeof(float)))
            << kernels::variant_name(v) << " " << op.name
            << ": tile config " << c << " changed the bits";
      }
    }
  }
}

TEST(GemmDispatch, ResolveVariantPicksWidestAndHonoursForcing) {
  using kernels::detail::resolve_variant;
  EXPECT_EQ(Variant::kAvx512, resolve_variant(nullptr, true, true));
  EXPECT_EQ(Variant::kAvx2, resolve_variant(nullptr, true, false));
  EXPECT_EQ(Variant::kScalar, resolve_variant(nullptr, false, false));
  EXPECT_EQ(Variant::kAvx512, resolve_variant("", true, true));
  EXPECT_EQ(Variant::kAvx512, resolve_variant("auto", true, true));
  EXPECT_EQ(Variant::kScalar, resolve_variant("scalar", true, true));
  EXPECT_EQ(Variant::kAvx2, resolve_variant("avx2", true, true));
  EXPECT_EQ(Variant::kAvx512, resolve_variant("avx512", true, true));
  // Forced ISA the host lacks degrades to the widest supported, not a crash.
  EXPECT_EQ(Variant::kScalar, resolve_variant("avx2", false, false));
  EXPECT_EQ(Variant::kAvx2, resolve_variant("avx512", true, false));
  EXPECT_EQ(Variant::kScalar, resolve_variant("avx512", false, false));
  // Unrecognised values keep the widest supported variant.
  EXPECT_EQ(Variant::kAvx512, resolve_variant("sse9", true, true));
  EXPECT_EQ(Variant::kScalar, resolve_variant("sse9", false, false));
}

TEST(GemmDispatch, StartupResolutionMatchesLiveEnvironment) {
  // With MFA_SIMD set (the scripts/ci.sh MFA_SIMD=scalar pass), this pins
  // the live dispatch to what the resolver says; without it, it still
  // asserts startup agreement between cpuid and the chosen variant.
  const Variant expect = kernels::detail::resolve_variant(
      std::getenv("MFA_SIMD"), kernels::variant_supported(Variant::kAvx2),
      kernels::variant_supported(Variant::kAvx512));
  kernels::set_variant_override(-1);
  EXPECT_EQ(expect, kernels::active_variant());
}

TEST(GemmDispatch, OverrideHonoredForSupportedRejectedForUnsupported) {
  DispatchGuard guard;
  for (Variant v : supported_variants()) {
    EXPECT_TRUE(kernels::set_variant_override(static_cast<int>(v)));
    EXPECT_EQ(v, kernels::active_variant());
  }
  EXPECT_FALSE(kernels::set_variant_override(kernels::kNumVariants));
  EXPECT_FALSE(kernels::set_variant_override(99));
  for (int v = 0; v < kernels::kNumVariants; ++v) {
    if (!kernels::variant_supported(static_cast<Variant>(v))) {
      EXPECT_FALSE(kernels::set_variant_override(v));
    }
  }
  EXPECT_TRUE(kernels::set_variant_override(-1));
}

TEST(GemmScratch, AllSlotsAre64ByteAlignedAndGrowOnly) {
  for (int slot = 0; slot < kernels::kScratchSlots; ++slot) {
    float* small = kernels::scratch(slot, 7);
    ASSERT_NE(nullptr, small);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(small) % 64)
        << "slot " << slot;
    // Growing re-allocates but stays aligned; a smaller request reuses the
    // grown buffer.
    float* big = kernels::scratch(slot, 4096);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(big) % 64)
        << "slot " << slot;
    big[0] = 1.0f;
    big[4095] = 2.0f;
    EXPECT_EQ(big, kernels::scratch(slot, 64)) << "slot " << slot;
  }
}

TEST(GemmObs, DispatchVariantTilesAndCountersAreExported) {
  DispatchGuard guard;
  // One call guarantees the gemm.calls counter cell exists and counts.
  const auto A = random_vec(4, 31);
  const auto B = random_vec(4, 32);
  std::vector<float> C(4, 0.0f);
  kernels::gemm_nn(A.data(), B.data(), C.data(), 2, 2, 2);

  const std::string json = obs::Registry::instance().metrics_json();
  const std::string dispatch_entry =
      "\"gemm.dispatch\":" +
      std::to_string(static_cast<int>(kernels::active_variant()));
  EXPECT_NE(std::string::npos, json.find(dispatch_entry)) << json;
  EXPECT_NE(std::string::npos, json.find("\"gemm.supported.avx2\":"));
  EXPECT_NE(std::string::npos, json.find("\"gemm.supported.avx512\":"));
  EXPECT_NE(std::string::npos, json.find("\"gemm.calls\":"));

  // The source tracks a live override.
  for (Variant v : supported_variants()) {
    ASSERT_TRUE(kernels::set_variant_override(static_cast<int>(v)));
    const std::string after = obs::Registry::instance().metrics_json();
    EXPECT_NE(std::string::npos,
              after.find("\"gemm.dispatch\":" +
                         std::to_string(static_cast<int>(v))));
  }
}

TEST(GemmObs, PackedPanelCounterCountsOnlyPackedCalls) {
  DispatchGuard guard;
  if (!obs::enabled()) GTEST_SKIP() << "MFA_OBS off";
  const auto before = obs::counter("gemm.packed_panels").value();
  // Small shape: below any sane pack_min, must not pack.
  const auto A = random_vec(8 * 8, 41);
  const auto B = random_vec(8 * 8, 42);
  std::vector<float> C(8 * 8, 0.0f);
  kernels::gemm_nn(A.data(), B.data(), C.data(), 8, 8, 8);
  EXPECT_EQ(before, obs::counter("gemm.packed_panels").value());

  // Force packing via tiles on a SIMD variant (the scalar strips never
  // pack); skip on a scalar-only host.
  const auto vs = supported_variants();
  if (vs.back() == Variant::kScalar) GTEST_SKIP() << "no SIMD variant";
  GemmTiles t;
  t.pack_min = 0;
  ASSERT_TRUE(kernels::set_variant_override(static_cast<int>(vs.back())));
  kernels::set_tiles_override(vs.back(), &t);
  const auto big_a = random_vec(32 * 64, 43);
  const auto big_b = random_vec(64 * 96, 44);
  std::vector<float> big_c(32 * 96, 0.0f);
  kernels::gemm_nn(big_a.data(), big_b.data(), big_c.data(), 32, 64, 96);
  EXPECT_GT(obs::counter("gemm.packed_panels").value(), before);
}

}  // namespace
}  // namespace mfa
