// Runtime SIMD dispatch for the hot flat-span kernels and the GEMM
// micro-kernel.
//
// The library is built once and must run well on whatever CPU it lands on:
// a -march=native build cannot ship, and a baseline build leaves 4-16x of
// vector throughput on the table. This header centralizes the solution —
// every ISA-specific decision in the tree lives behind it (the determinism
// lint bans cpuid/ISA-#ifdef use anywhere else in src/):
//
//   * `Level` enumerates the compiled-in implementation tiers: kScalar
//     (plain loops), kGeneric (GCC/Clang generic-vector code, the portable
//     default), kAvx2 (AVX2+FMA intrinsics), kAvx512 (AVX-512F
//     intrinsics), kNeon (AArch64 NEON intrinsics).
//   * Resolution happens once, lazily: the best runtime-supported level via
//     cpuid (`__builtin_cpu_supports`), overridable by FEDRA_SIMD=
//     scalar|generic|avx2|avx512|neon (requesting an unsupported level
//     aborts with the supported list — a silent downgrade would invalidate
//     recorded benchmarks).
//   * `Kernels()` returns the active function-pointer table; vec_ops.cc and
//     ops.cc route the hot kernels through it. A level runs each kernel at
//     the highest variant <= the level that exists for that kernel, so e.g.
//     kNeon uses NEON flat-span kernels but the generic-vector GEMM
//     micro-kernel.
//
// Determinism contract (docs/determinism.md): results are bit-deterministic
// for a fixed level — every variant has a fixed accumulation pattern, and
// the 32768-element parallel chunk boundaries are level-independent.
// Different levels may reassociate reductions differently and agree only to
// parity-test tolerance (tests/simd_dispatch_test.cc drives every
// compiled-in level against the ref:: oracles). kScalar and kGeneric share
// the portable canonical implementations for the flat-span kernels and are
// bit-identical by construction; golden-history suites pin kGeneric so
// their hard-coded arrays hold on any machine.

#ifndef FEDRA_TENSOR_SIMD_DISPATCH_H_
#define FEDRA_TENSOR_SIMD_DISPATCH_H_

#include <cstddef>
#include <string>
#include <vector>

namespace fedra {
namespace simd {

enum class Level {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
  kAvx512 = 3,
  kNeon = 4,
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
/// kScalar/kGeneric are always supported.
bool LevelSupported(Level level);

/// All supported levels, ascending (the bench sweep iterates this).
std::vector<Level> SupportedLevels();

const char* LevelName(Level level);

/// Parses a FEDRA_SIMD-style name ("avx2"). Returns false on unknown names.
bool ParseLevelName(const std::string& name, Level* level);

}  // namespace simd
}  // namespace fedra

#endif  // FEDRA_TENSOR_SIMD_DISPATCH_H_
