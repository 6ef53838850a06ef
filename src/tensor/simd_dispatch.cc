// All ISA-specific code in the tree lives in this translation unit: cpuid
// probing, the per-level kernel variants, and the dispatch tables. The
// determinism lint (scripts/lint_determinism.py, rule raw-cpu-dispatch)
// enforces that nothing outside tensor/simd_dispatch.* touches
// __builtin_cpu_supports or ISA preprocessor conditionals, so every kernel
// selection decision is auditable in one place.
//
// Layout of this file:
//   1. Portable canonical kernels — the kGeneric tier, and the only tier
//     on non-x86 hosts. They define the canonical accumulation patterns (4
//     double lanes for reductions, the 256-double L1 tile for the reduce
//     kernels, one ascending chain per cell for the GEMM micro-tile).
//   2. x86 variants (AVX2+FMA, AVX-512F) behind target attributes, so a
//     baseline build still carries them and picks them at runtime.
//   3. Table construction (fallback ladder) and level resolution.
//
// Determinism: each variant commits to one fixed accumulation pattern, so
// results are bit-deterministic for a fixed level. The wide variants run
// 16/32 independent double lanes instead of the canonical 4 — reductions
// across levels therefore agree only to parity tolerance (the latency-bound
// 4-lane chain is the very thing being fixed; see bench/BENCH_kernels.json).
// The reduce_scale variants keep the canonical per-element pairing order
// (element-wise operations leave no reassociation freedom).

#include "tensor/simd_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEDRA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fedra {
namespace simd {

namespace {

// ------------------------------------------------------------------------
// 1. Portable canonical kernels (the kGeneric tier).
// ------------------------------------------------------------------------

void AxpyPortable(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double DotPortable(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    acc1 += static_cast<double>(a[i + 1]) * static_cast<double>(b[i + 1]);
    acc2 += static_cast<double>(a[i + 2]) * static_cast<double>(b[i + 2]);
    acc3 += static_cast<double>(a[i + 3]) * static_cast<double>(b[i + 3]);
  }
  for (; i < n; ++i) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double SquaredNormPortable(const float* x, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
    acc0 += x0 * x0;
    acc1 += x1 * x1;
    acc2 += x2 * x2;
    acc3 += x3 * x3;
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    acc0 += xi * xi;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double SubSquaredNormPortable(const float* a, const float* b, float* out,
                              size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    out[i] = d0;
    out[i + 1] = d1;
    out[i + 2] = d2;
    out[i + 3] = d3;
    acc0 += static_cast<double>(d0) * static_cast<double>(d0);
    acc1 += static_cast<double>(d1) * static_cast<double>(d1);
    acc2 += static_cast<double>(d2) * static_cast<double>(d2);
    acc3 += static_cast<double>(d3) * static_cast<double>(d3);
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    out[i] = d;
    acc0 += static_cast<double>(d) * static_cast<double>(d);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double AxpyNormPortable(float alpha, const float* x, float* y, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float y0 = y[i] + alpha * x[i];
    const float y1 = y[i + 1] + alpha * x[i + 1];
    const float y2 = y[i + 2] + alpha * x[i + 2];
    const float y3 = y[i + 3] + alpha * x[i + 3];
    y[i] = y0;
    y[i + 1] = y1;
    y[i + 2] = y2;
    y[i + 3] = y3;
    acc0 += static_cast<double>(y0) * static_cast<double>(y0);
    acc1 += static_cast<double>(y1) * static_cast<double>(y1);
    acc2 += static_cast<double>(y2) * static_cast<double>(y2);
    acc3 += static_cast<double>(y3) * static_cast<double>(y3);
  }
  for (; i < n; ++i) {
    const float yi = y[i] + alpha * x[i];
    y[i] = yi;
    acc0 += static_cast<double>(yi) * static_cast<double>(yi);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

// Block size for the reduction kernels: the double accumulator tile stays in
// L1 (2 KB) while every input buffer streams through exactly once. Every
// variant keeps this tiling and the fixed buffer-pairing order, so the
// reduce kernels agree bitwise across levels.
constexpr size_t kReduceBlock = 256;

void ReduceScalePortable(const float* const* bufs, size_t num_bufs, size_t n,
                         double scale, float* out) {
  if (num_bufs == 0) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = 0.0f;
    }
    return;
  }
  double acc[kReduceBlock];
  for (size_t base = 0; base < n; base += kReduceBlock) {
    const size_t len = (kReduceBlock < n - base) ? kReduceBlock : n - base;
    // Seed from the first pair, then fold the remaining buffers in pairs —
    // a fixed-order tree that halves the passes over the accumulator tile.
    if (num_bufs == 1) {
      const float* b0 = bufs[0] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]);
      }
    } else {
      const float* b0 = bufs[0] + base;
      const float* b1 = bufs[1] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]) + static_cast<double>(b1[j]);
      }
    }
    size_t k = 2;
    for (; k + 1 < num_bufs; k += 2) {
      const float* ba = bufs[k] + base;
      const float* bb = bufs[k + 1] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]) + static_cast<double>(bb[j]);
      }
    }
    if (k < num_bufs) {
      const float* ba = bufs[k] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]);
      }
    }
    float* o = out + base;
    for (size_t j = 0; j < len; ++j) {
      o[j] = static_cast<float>(acc[j] * scale);
    }
  }
}

// GEMM micro-kernel: a plain loop the compiler vectorizes for whatever ISA
// the build targets (built -march=native on an AVX-512 host it runs as fast
// as the explicit-zmm AVX-512 kernel). It computes each acc[i][j] as one
// chain over p in ascending order, as do the intrinsics variants below —
// the micro-kernel has no reduction reassociation freedom, only different
// tiling of the same per-cell chains.

void GemmMicroPortable(int kc, const float* apanel, const float* bpanel,
                       float* acc) {
  float local[kGemmMr][kGemmNr] = {};
  for (int p = 0; p < kc; ++p, apanel += kGemmMr, bpanel += kGemmNr) {
    for (int i = 0; i < kGemmMr; ++i) {
      const float ai = apanel[i];
      for (int j = 0; j < kGemmNr; ++j) {
        local[i][j] += ai * bpanel[j];
      }
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

// ------------------------------------------------------------------------
// 2. x86 variants: AVX2+FMA and AVX-512F, selected at runtime. Target
// attributes keep them compilable in baseline (-march=x86-64) builds.
// ------------------------------------------------------------------------

#if defined(FEDRA_SIMD_X86)

// GCC 12's avx512fintrin.h lowers the unmasked _mm512_cvtps_pd/_mm512_cvtpd_ps
// forms through a masked builtin whose passthrough operand is intentionally
// left undefined; -Wmaybe-uninitialized flags that from inside the system
// header at every inlined use, so silence it for the intrinsics section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// --- AVX2+FMA ---
//
// Reductions run 16 independent double lanes (4 x __m256d): the canonical
// 4-lane pattern is one latency-bound FMA chain per 4 elements; 4 chains of
// 4-wide vectors keep the FMA pipes full and leave the loads/converts as
// the bottleneck.

__attribute__((target("avx2,fma"))) double HSum16(__m256d acc0, __m256d acc1,
                                                  __m256d acc2,
                                                  __m256d acc3) {
  // Fixed combine order: pairwise across accumulators, then left-to-right
  // over the 4 lanes of the combined vector.
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha, const float* x,
                                                  float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                      _mm256_loadu_ps(y + i));
    const __m256 y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                      _mm256_loadu_ps(y + i + 8));
    _mm256_storeu_ps(y + i, y0);
    _mm256_storeu_ps(y + i + 8, y1);
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a,
                                                   const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 8)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 8)), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 12)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 12)), acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

__attribute__((target("avx2,fma"))) double SquaredNormAvx2(const float* x,
                                                           size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4));
    const __m256d x2 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 8));
    const __m256d x3 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 12));
    acc0 = _mm256_fmadd_pd(x0, x0, acc0);
    acc1 = _mm256_fmadd_pd(x1, x1, acc1);
    acc2 = _mm256_fmadd_pd(x2, x2, acc2);
    acc3 = _mm256_fmadd_pd(x3, x3, acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const double xi = x[i];
    total += xi * xi;
  }
  return total;
}

__attribute__((target("avx2,fma"))) double SubSquaredNormAvx2(
    const float* a, const float* b, float* out, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                    _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    _mm256_storeu_ps(out + i, d0);
    _mm256_storeu_ps(out + i + 8, d1);
    const __m256d w0 = _mm256_cvtps_pd(_mm256_castps256_ps128(d0));
    const __m256d w1 = _mm256_cvtps_pd(_mm256_extractf128_ps(d0, 1));
    const __m256d w2 = _mm256_cvtps_pd(_mm256_castps256_ps128(d1));
    const __m256d w3 = _mm256_cvtps_pd(_mm256_extractf128_ps(d1, 1));
    acc0 = _mm256_fmadd_pd(w0, w0, acc0);
    acc1 = _mm256_fmadd_pd(w1, w1, acc1);
    acc2 = _mm256_fmadd_pd(w2, w2, acc2);
    acc3 = _mm256_fmadd_pd(w3, w3, acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    out[i] = d;
    total += static_cast<double>(d) * static_cast<double>(d);
  }
  return total;
}

__attribute__((target("avx2,fma"))) double AxpyNormAvx2(float alpha,
                                                        const float* x,
                                                        float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                      _mm256_loadu_ps(y + i));
    const __m256 y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                      _mm256_loadu_ps(y + i + 8));
    _mm256_storeu_ps(y + i, y0);
    _mm256_storeu_ps(y + i + 8, y1);
    const __m256d w0 = _mm256_cvtps_pd(_mm256_castps256_ps128(y0));
    const __m256d w1 = _mm256_cvtps_pd(_mm256_extractf128_ps(y0, 1));
    const __m256d w2 = _mm256_cvtps_pd(_mm256_castps256_ps128(y1));
    const __m256d w3 = _mm256_cvtps_pd(_mm256_extractf128_ps(y1, 1));
    acc0 = _mm256_fmadd_pd(w0, w0, acc0);
    acc1 = _mm256_fmadd_pd(w1, w1, acc1);
    acc2 = _mm256_fmadd_pd(w2, w2, acc2);
    acc3 = _mm256_fmadd_pd(w3, w3, acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const float yi = y[i] + alpha * x[i];
    y[i] = yi;
    total += static_cast<double>(yi) * static_cast<double>(yi);
  }
  return total;
}

// 8x32 micro-tile as four 4x16 register sub-tiles (8 ymm accumulators + 2
// B vectors + 1 broadcast fits the 16-register AVX2 file; the full 8x32
// tile would need 32 ymm accumulators and spill every iteration — which is
// exactly what the generic 64-byte-vector kernel degrades to on AVX2-only
// hardware). Each sub-tile sweeps the whole L1-resident packed panel pair.
__attribute__((target("avx2,fma"))) void GemmMicroAvx2(int kc,
                                                       const float* apanel,
                                                       const float* bpanel,
                                                       float* acc) {
  for (int i0 = 0; i0 < kGemmMr; i0 += 4) {
    for (int j0 = 0; j0 < kGemmNr; j0 += 16) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      const float* ap = apanel + i0;
      const float* bp = bpanel + j0;
      for (int p = 0; p < kc; ++p, ap += kGemmMr, bp += kGemmNr) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 ai = _mm256_broadcast_ss(ap);
        c00 = _mm256_fmadd_ps(ai, b0, c00);
        c01 = _mm256_fmadd_ps(ai, b1, c01);
        ai = _mm256_broadcast_ss(ap + 1);
        c10 = _mm256_fmadd_ps(ai, b0, c10);
        c11 = _mm256_fmadd_ps(ai, b1, c11);
        ai = _mm256_broadcast_ss(ap + 2);
        c20 = _mm256_fmadd_ps(ai, b0, c20);
        c21 = _mm256_fmadd_ps(ai, b1, c21);
        ai = _mm256_broadcast_ss(ap + 3);
        c30 = _mm256_fmadd_ps(ai, b0, c30);
        c31 = _mm256_fmadd_ps(ai, b1, c31);
      }
      float* row = acc + i0 * kGemmNr + j0;
      _mm256_storeu_ps(row, c00);
      _mm256_storeu_ps(row + 8, c01);
      _mm256_storeu_ps(row + kGemmNr, c10);
      _mm256_storeu_ps(row + kGemmNr + 8, c11);
      _mm256_storeu_ps(row + 2 * kGemmNr, c20);
      _mm256_storeu_ps(row + 2 * kGemmNr + 8, c21);
      _mm256_storeu_ps(row + 3 * kGemmNr, c30);
      _mm256_storeu_ps(row + 3 * kGemmNr + 8, c31);
    }
  }
}

// --- AVX-512F ---
//
// Reductions run 32 independent double lanes (4 x __m512d); the converts
// (vcvtps2pd) become the throughput limit, roughly 8 elements/cycle against
// the canonical pattern's ~2.

// Upper 8 floats of a zmm. _mm512_extractf32x8_ps would be the direct spelling
// but needs AVX512DQ, which the avx512f probe does not check; the 64x4
// extract is AVX-512F and moves the same bits.
__attribute__((target("avx512f"))) __m256 UpperHalf(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

__attribute__((target("avx512f"))) double HSum32(__m512d acc0, __m512d acc1,
                                                 __m512d acc2, __m512d acc3) {
  const __m512d sum = _mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3));
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, sum);
  return (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])));
}

__attribute__((target("avx512f"))) void AxpyAvx512(float alpha,
                                                   const float* x, float* y,
                                                   size_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 y0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                                      _mm512_loadu_ps(y + i));
    const __m512 y1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i + 16),
                                      _mm512_loadu_ps(y + i + 16));
    _mm512_storeu_ps(y + i, y0);
    _mm512_storeu_ps(y + i + 16, y1);
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx512f"))) double DotAvx512(const float* a,
                                                    const float* b,
                                                    size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i)), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 8)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 8)),
                           acc1);
    acc2 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 16)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 16)),
                           acc2);
    acc3 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 24)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 24)),
                           acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

__attribute__((target("avx512f"))) double SquaredNormAvx512(const float* x,
                                                            size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512d x0 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __m512d x1 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 8));
    const __m512d x2 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 16));
    const __m512d x3 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 24));
    acc0 = _mm512_fmadd_pd(x0, x0, acc0);
    acc1 = _mm512_fmadd_pd(x1, x1, acc1);
    acc2 = _mm512_fmadd_pd(x2, x2, acc2);
    acc3 = _mm512_fmadd_pd(x3, x3, acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const double xi = x[i];
    total += xi * xi;
  }
  return total;
}

__attribute__((target("avx512f"))) double SubSquaredNormAvx512(
    const float* a, const float* b, float* out, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i),
                                    _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    _mm512_storeu_ps(out + i, d0);
    _mm512_storeu_ps(out + i + 16, d1);
    const __m512d w0 = _mm512_cvtps_pd(_mm512_castps512_ps256(d0));
    const __m512d w1 = _mm512_cvtps_pd(UpperHalf(d0));
    const __m512d w2 = _mm512_cvtps_pd(_mm512_castps512_ps256(d1));
    const __m512d w3 = _mm512_cvtps_pd(UpperHalf(d1));
    acc0 = _mm512_fmadd_pd(w0, w0, acc0);
    acc1 = _mm512_fmadd_pd(w1, w1, acc1);
    acc2 = _mm512_fmadd_pd(w2, w2, acc2);
    acc3 = _mm512_fmadd_pd(w3, w3, acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    out[i] = d;
    total += static_cast<double>(d) * static_cast<double>(d);
  }
  return total;
}

__attribute__((target("avx512f"))) double AxpyNormAvx512(float alpha,
                                                         const float* x,
                                                         float* y, size_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 y0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                                      _mm512_loadu_ps(y + i));
    const __m512 y1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i + 16),
                                      _mm512_loadu_ps(y + i + 16));
    _mm512_storeu_ps(y + i, y0);
    _mm512_storeu_ps(y + i + 16, y1);
    const __m512d w0 = _mm512_cvtps_pd(_mm512_castps512_ps256(y0));
    const __m512d w1 = _mm512_cvtps_pd(UpperHalf(y0));
    const __m512d w2 = _mm512_cvtps_pd(_mm512_castps512_ps256(y1));
    const __m512d w3 = _mm512_cvtps_pd(UpperHalf(y1));
    acc0 = _mm512_fmadd_pd(w0, w0, acc0);
    acc1 = _mm512_fmadd_pd(w1, w1, acc1);
    acc2 = _mm512_fmadd_pd(w2, w2, acc2);
    acc3 = _mm512_fmadd_pd(w3, w3, acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const float yi = y[i] + alpha * x[i];
    y[i] = yi;
    total += static_cast<double>(yi) * static_cast<double>(yi);
  }
  return total;
}

// reduce_scale: same L1 tile, same fixed buffer-pairing order as the
// portable kernel — every per-element add chain is identical, so this is
// bit-identical to the canonical result; the win is the vectorized
// float<->double conversion traffic over the tile.

__attribute__((target("avx512f"))) void ReduceScaleAvx512(
    const float* const* bufs, size_t num_bufs, size_t n, double scale,
    float* out) {
  if (num_bufs == 0) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = 0.0f;
    }
    return;
  }
  alignas(64) double acc[kReduceBlock];
  for (size_t base = 0; base < n; base += kReduceBlock) {
    const size_t len = (kReduceBlock < n - base) ? kReduceBlock : n - base;
    const size_t vec_len = len - len % 8;
    if (num_bufs == 1) {
      const float* b0 = bufs[0] + base;
      size_t j = 0;
      for (; j < vec_len; j += 8) {
        _mm512_store_pd(acc + j, _mm512_cvtps_pd(_mm256_loadu_ps(b0 + j)));
      }
      for (; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]);
      }
    } else {
      const float* b0 = bufs[0] + base;
      const float* b1 = bufs[1] + base;
      size_t j = 0;
      for (; j < vec_len; j += 8) {
        _mm512_store_pd(
            acc + j,
            _mm512_add_pd(_mm512_cvtps_pd(_mm256_loadu_ps(b0 + j)),
                          _mm512_cvtps_pd(_mm256_loadu_ps(b1 + j))));
      }
      for (; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]) + static_cast<double>(b1[j]);
      }
    }
    size_t k = 2;
    for (; k + 1 < num_bufs; k += 2) {
      const float* ba = bufs[k] + base;
      const float* bb = bufs[k + 1] + base;
      size_t j = 0;
      for (; j < vec_len; j += 8) {
        const __m512d sum =
            _mm512_add_pd(_mm512_cvtps_pd(_mm256_loadu_ps(ba + j)),
                          _mm512_cvtps_pd(_mm256_loadu_ps(bb + j)));
        _mm512_store_pd(acc + j, _mm512_add_pd(_mm512_load_pd(acc + j), sum));
      }
      for (; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]) + static_cast<double>(bb[j]);
      }
    }
    if (k < num_bufs) {
      const float* ba = bufs[k] + base;
      size_t j = 0;
      for (; j < vec_len; j += 8) {
        _mm512_store_pd(
            acc + j,
            _mm512_add_pd(_mm512_load_pd(acc + j),
                          _mm512_cvtps_pd(_mm256_loadu_ps(ba + j))));
      }
      for (; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]);
      }
    }
    float* o = out + base;
    const __m512d sv = _mm512_set1_pd(scale);
    size_t j = 0;
    for (; j < vec_len; j += 8) {
      _mm256_storeu_ps(
          o + j, _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_load_pd(acc + j), sv)));
    }
    for (; j < len; ++j) {
      o[j] = static_cast<float>(acc[j] * scale);
    }
  }
}

// The explicit-zmm formulation of the portable micro-kernel (16 accumulator
// vectors + 2 B vectors in the 32-register file). On a -march=native
// AVX-512 build this matches what the compiler emits for the portable
// kernel; on a baseline build — where the portable kernel lowers to 4-wide
// SSE — it is the difference between shipping one binary and shipping one
// per machine.
__attribute__((target("avx512f"))) void GemmMicroAvx512(int kc,
                                                        const float* apanel,
                                                        const float* bpanel,
                                                        float* acc) {
  __m512 c[kGemmMr][2];
  for (int i = 0; i < kGemmMr; ++i) {
    c[i][0] = _mm512_setzero_ps();
    c[i][1] = _mm512_setzero_ps();
  }
  for (int p = 0; p < kc; ++p, apanel += kGemmMr, bpanel += kGemmNr) {
    const __m512 b0 = _mm512_loadu_ps(bpanel);
    const __m512 b1 = _mm512_loadu_ps(bpanel + 16);
    for (int i = 0; i < kGemmMr; ++i) {
      const __m512 ai = _mm512_set1_ps(apanel[i]);
      c[i][0] = _mm512_fmadd_ps(ai, b0, c[i][0]);
      c[i][1] = _mm512_fmadd_ps(ai, b1, c[i][1]);
    }
  }
  for (int i = 0; i < kGemmMr; ++i) {
    _mm512_storeu_ps(acc + i * kGemmNr, c[i][0]);
    _mm512_storeu_ps(acc + i * kGemmNr + 16, c[i][1]);
  }
}

#pragma GCC diagnostic pop

#endif  // FEDRA_SIMD_X86

// ------------------------------------------------------------------------
// 3. Tables and resolution.
// ------------------------------------------------------------------------

constexpr Level kAllLevels[] = {Level::kGeneric, Level::kAvx2,
                                Level::kAvx512};

bool CpuSupportsAvx2() {
#if defined(FEDRA_SIMD_X86)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(FEDRA_SIMD_X86)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

struct Tables {
  // Indexed by static_cast<int>(Level). Each level starts from the tier
  // below it and overrides the kernels it has a variant for.
  KernelTable per_level[3];

  Tables() {
    KernelTable generic;
    generic.axpy = AxpyPortable;
    generic.dot = DotPortable;
    generic.squared_norm = SquaredNormPortable;
    generic.sub_squared_norm = SubSquaredNormPortable;
    generic.axpy_norm = AxpyNormPortable;
    generic.reduce_scale = ReduceScalePortable;
    generic.gemm_micro_8x32 = GemmMicroPortable;

    KernelTable avx2 = generic;
    KernelTable avx512 = generic;
#if defined(FEDRA_SIMD_X86)
    avx2.axpy = AxpyAvx2;
    avx2.dot = DotAvx2;
    avx2.squared_norm = SquaredNormAvx2;
    avx2.sub_squared_norm = SubSquaredNormAvx2;
    avx2.axpy_norm = AxpyNormAvx2;
    avx2.gemm_micro_8x32 = GemmMicroAvx2;

    avx512 = avx2;
    avx512.axpy = AxpyAvx512;
    avx512.dot = DotAvx512;
    avx512.squared_norm = SquaredNormAvx512;
    avx512.sub_squared_norm = SubSquaredNormAvx512;
    avx512.axpy_norm = AxpyNormAvx512;
    avx512.reduce_scale = ReduceScaleAvx512;
    avx512.gemm_micro_8x32 = GemmMicroAvx512;
#endif

    per_level[static_cast<int>(Level::kGeneric)] = generic;
    per_level[static_cast<int>(Level::kAvx2)] = avx2;
    per_level[static_cast<int>(Level::kAvx512)] = avx512;
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

std::atomic<const KernelTable*> g_active_table{nullptr};
std::atomic<int> g_active_level{-1};
std::mutex g_resolve_mutex;

std::string SupportedLevelList() {
  std::string names;
  for (Level level : SupportedLevels()) {
    if (!names.empty()) {
      names += "|";
    }
    names += LevelName(level);
  }
  return names;
}

Level ResolveDefaultLevel() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read-only env probe, no setenv
  // runs concurrently; resolution happens once under g_resolve_mutex.
  if (const char* env = std::getenv("FEDRA_SIMD")) {
    if (*env != '\0') {
      Level level;
      FEDRA_CHECK(ParseLevelName(env, &level))
          << "FEDRA_SIMD=" << env
          << "is not a SIMD level (want generic|avx2|avx512)";
      FEDRA_CHECK(LevelSupported(level))
          << "FEDRA_SIMD=" << env
          << "is not supported on this CPU/build; supported:"
          << SupportedLevelList();
      return level;
    }
  }
  if (LevelSupported(Level::kAvx512)) {
    return Level::kAvx512;
  }
  if (LevelSupported(Level::kAvx2)) {
    return Level::kAvx2;
  }
  return Level::kGeneric;
}

}  // namespace

bool LevelSupported(Level level) {
  switch (level) {
    case Level::kGeneric:
      return true;
    case Level::kAvx2:
      return CpuSupportsAvx2();
    case Level::kAvx512:
      return CpuSupportsAvx512();
  }
  return false;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels;
  for (Level level : kAllLevels) {
    if (LevelSupported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kGeneric:
      return "generic";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseLevelName(const std::string& name, Level* level) {
  for (Level candidate : kAllLevels) {
    if (name == LevelName(candidate)) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

void SetLevel(Level level) {
  FEDRA_CHECK(LevelSupported(level))
      << "SIMD level" << LevelName(level)
      << "not supported on this CPU/build; supported:" << SupportedLevelList();
  // Publish the table before the level so a racing reader never pairs the
  // new level with a stale table.
  g_active_table.store(&GetTables().per_level[static_cast<int>(level)],
                       std::memory_order_release);
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
}

const KernelTable& Kernels() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table != nullptr) {
    return *table;
  }
  std::lock_guard<std::mutex> lock(g_resolve_mutex);
  table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    SetLevel(ResolveDefaultLevel());
    table = g_active_table.load(std::memory_order_acquire);
  }
  return *table;
}

Level ActiveLevel() {
  Kernels();  // force resolution
  return static_cast<Level>(g_active_level.load(std::memory_order_acquire));
}

}  // namespace simd
}  // namespace fedra
