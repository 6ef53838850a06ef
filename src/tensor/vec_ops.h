// Flat float-vector kernels.
//
// Model parameters, gradients, drifts (u_k = w_k - w_sync), and AllReduce
// payloads are all contiguous float spans; these kernels are the numeric
// backbone shared by the optimizers, the FDA monitors, and the simulator.
//
// The hot kernels (Axpy, Dot, SquaredNorm, the fused SubSquaredNorm /
// AxpyNorm, and the collective reductions) route through the runtime SIMD
// dispatch table in tensor/simd_dispatch.h — resolved once per process to
// the best ISA tier the CPU supports (or FEDRA_SIMD), bit-deterministic per
// tier. Reductions accumulate in double across independent lanes (four at
// the portable tier, more under AVX2/AVX-512) so results differ from
// a single-accumulator loop — and across tiers — only by floating-point
// reassociation. The fused kernels (SubSquaredNorm, AxpyNorm) exist for the
// FDA hot path: every local step computes a drift and its squared norm, and
// fusing the two halves the memory traffic over the model-sized spans.
// Scalar oracles live in tensor/ref_ops.h.

#ifndef FEDRA_TENSOR_VEC_OPS_H_
#define FEDRA_TENSOR_VEC_OPS_H_

#include <cstddef>

namespace fedra {
namespace vec {

/// dst[i] = src[i]
void Copy(const float* src, float* dst, size_t n);

/// dst[i] = value
void Fill(float* dst, size_t n, float value);

/// x[i] *= alpha
void Scale(float* x, size_t n, float alpha);

/// y[i] += alpha * x[i]
void Axpy(float alpha, const float* x, float* y, size_t n);

/// out[i] = a[i] + b[i]
void Add(const float* a, const float* b, float* out, size_t n);

/// out[i] = a[i] - b[i]
void Sub(const float* a, const float* b, float* out, size_t n);

/// out[i] = a[i] * b[i]
void Mul(const float* a, const float* b, float* out, size_t n);

/// Returns sum_i a[i] * b[i] (accumulated in double for stability).
double Dot(const float* a, const float* b, size_t n);

/// Returns sum_i x[i]^2 (accumulated in double).
double SquaredNorm(const float* x, size_t n);

/// Returns sum_i x[i].
double Sum(const float* x, size_t n);

/// Returns sqrt(SquaredNorm(x)).
double Norm(const float* x, size_t n);

/// Returns max_i |a[i] - b[i]|.
double MaxAbsDiff(const float* a, const float* b, size_t n);

/// Fused drift kernel: out[i] = a[i] - b[i], returns sum_i out[i]^2.
/// One pass instead of Sub + SquaredNorm (FDA computes u_k = w_k - w_sync
/// and ||u_k||^2 on every local step).
double SubSquaredNorm(const float* a, const float* b, float* out, size_t n);

/// Fused update kernel: y[i] += alpha * x[i], returns sum_i y[i]^2 of the
/// updated y. One pass instead of Axpy + SquaredNorm.
double AxpyNorm(float alpha, const float* x, float* y, size_t n);

/// Fused moment kernel: *sum += sum_i x[i], *sum_sq += sum_i x[i]^2 in one
/// pass. BatchNorm's statistics pass needs both over every channel plane.
void SumAndSquaredNorm(const float* x, size_t n, double* sum, double* sum_sq);

/// Fused normalize kernel: xhat[i] = (x[i] - mean) * inv_std and
/// y[i] = gamma * xhat[i] + beta. The BatchNorm forward normalize pass.
/// `xhat` may alias `y`: each y[i] is written after its xhat[i].
void NormalizeAffine(const float* x, float mean, float inv_std, float gamma,
                     float beta, float* xhat, float* y, size_t n);

/// BatchNorm backward input-gradient kernel:
/// dx[i] = scale * (dy[i] - mean_dy - xhat[i] * mean_dy_xhat).
void NormBackwardDx(const float* dy, const float* xhat, float scale,
                    float mean_dy, float mean_dy_xhat, float* dx, size_t n);

/// Fused proximal-gradient kernel: y[i] += alpha * (a[i] - b[i]). One pass
/// instead of Sub-into-scratch + Axpy (FedProx adds mu * (w_k - w_global) to
/// every local gradient).
void AddScaledDiff(float alpha, const float* a, const float* b, float* y,
                   size_t n);

/// Fused tree-reduce + scale kernel, the arithmetic core of the simulated
/// collectives: out[i] = scale * sum_k bufs[k][i]. Buffers are combined
/// pairwise in a fixed order with double accumulators held in L1-resident
/// blocks, so each input span is read exactly once and results are
/// bit-deterministic for a given num_bufs. `out` may alias bufs[0] (each
/// block is fully read before it is written); it must not alias any other
/// input.
void ReduceScale(const float* const* bufs, size_t num_bufs, size_t n,
                 double scale, float* out);

}  // namespace vec
}  // namespace fedra

#endif  // FEDRA_TENSOR_VEC_OPS_H_
