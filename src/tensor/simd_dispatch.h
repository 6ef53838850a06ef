// Runtime SIMD dispatch for the hot flat-span kernels and the GEMM
// micro-kernel.
//
// The library is built once and must run well on whatever CPU it lands on:
// a -march=native build cannot ship, and a baseline build leaves 4-16x of
// vector throughput on the table. This header centralizes the solution —
// every ISA-specific decision in the tree lives behind it (the determinism
// lint bans cpuid/ISA-#ifdef use anywhere else in src/):
//
//   * `Level` enumerates the compiled-in implementation tiers: kGeneric
//     (portable C++ loops the compiler vectorizes for the build's target —
//     the only tier on non-x86 hosts), kAvx2 (AVX2+FMA intrinsics), kAvx512
//     (AVX-512F intrinsics). The intrinsic tiers are what a baseline
//     (-march=x86-64) build runs fast: there the portable GEMM lowers to
//     4-wide SSE, and under AVX2-only codegen the intrinsic AVX2 GEMM is
//     1.2-1.5x faster than the portable one (bench/README.md).
//   * Resolution happens once, lazily: the best runtime-supported level via
//     cpuid (`__builtin_cpu_supports`), overridable by FEDRA_SIMD=
//     generic|avx2|avx512 (requesting an unsupported level aborts with the
//     supported list — a silent downgrade would invalidate recorded
//     benchmarks).
//   * `Kernels()` returns the active function-pointer table; vec_ops.cc and
//     ops.cc route the hot kernels through it. A level runs each kernel at
//     the highest variant <= the level that exists for that kernel, so e.g.
//     kAvx2 runs the portable reduce_scale.
//
// Determinism contract (docs/determinism.md): results are bit-deterministic
// for a fixed level — every variant has a fixed accumulation pattern, and
// the 32768-element parallel chunk boundaries are level-independent.
// Different levels may reassociate reductions differently and agree only to
// parity-test tolerance (tests/simd_dispatch_test.cc drives every
// compiled-in level against the ref:: oracles). Golden-history suites pin
// kGeneric so their hard-coded arrays hold on any machine.

#ifndef FEDRA_TENSOR_SIMD_DISPATCH_H_
#define FEDRA_TENSOR_SIMD_DISPATCH_H_

#include <cstddef>
#include <string>
#include <vector>

namespace fedra {
namespace simd {

enum class Level {
  kGeneric = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Rows/cols of the packed GEMM micro-tile. ops.cc packs panels to this
/// shape; every micro-kernel variant consumes it.
inline constexpr int kGemmMr = 8;
inline constexpr int kGemmNr = 32;

/// Function-pointer table for the dispatched kernels. Signatures mirror the
/// vec:: declarations; `gemm_micro_8x32` computes
/// acc[kGemmMr][kGemmNr] = apanel * bpanel over kc depth steps of packed
/// panels (apanel stride kGemmMr, bpanel stride kGemmNr).
struct KernelTable {
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  double (*dot)(const float* a, const float* b, size_t n);
  double (*squared_norm)(const float* x, size_t n);
  double (*sub_squared_norm)(const float* a, const float* b, float* out,
                             size_t n);
  double (*axpy_norm)(float alpha, const float* x, float* y, size_t n);
  void (*reduce_scale)(const float* const* bufs, size_t num_bufs, size_t n,
                       double scale, float* out);
  void (*gemm_micro_8x32)(int kc, const float* apanel, const float* bpanel,
                          float* acc);
};

/// The table for the active level. First call resolves the level (FEDRA_SIMD
/// override, else best runtime-supported); later calls are one atomic load.
const KernelTable& Kernels();

/// The resolved level (resolving it on first use, like Kernels()).
Level ActiveLevel();

/// Forces a level, e.g. from the dispatch-matrix parity tests or the
/// bench_micro per-level sweep. Aborts if the level is not supported on
/// this machine (see LevelSupported). Takes effect for subsequent kernel
/// calls; not intended to race in-flight kernels.
void SetLevel(Level level);

/// True when `level` is both compiled in and executable on this CPU.
/// kGeneric is always supported.
bool LevelSupported(Level level);

/// All supported levels, ascending (the bench sweep iterates this).
std::vector<Level> SupportedLevels();

const char* LevelName(Level level);

/// Parses a FEDRA_SIMD-style name ("avx2"). Returns false on unknown names.
bool ParseLevelName(const std::string& name, Level* level);

}  // namespace simd
}  // namespace fedra

#endif  // FEDRA_TENSOR_SIMD_DISPATCH_H_
