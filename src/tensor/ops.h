// Dense-compute kernels used by the nn layers: GEMM, im2col convolution and
// pooling (NCHW); all kernels have exact backward passes.
//
// GEMM is a cache-blocked, packed-panel kernel with a register-tiled
// micro-kernel, parallelized over row-block panels via GlobalThreadPool.
// Conv2d lowers to im2col + GEMM (with a 1x1/stride-1 fast path that skips
// the im2col copy entirely), so Conv2d, Dense, and the conv weight-gradient
// all ride the same fast kernel. The original scalar loops survive as the
// correctness oracle in tensor/ref_ops.h (`ref::`, bench_micro
// --backend=ref).

#ifndef FEDRA_TENSOR_OPS_H_
#define FEDRA_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace fedra {
namespace ops {

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// op(A) is m x k, op(B) is k x n, C is m x n, all row-major.
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// Spatial geometry of a convolution/pooling with square kernels.
struct Conv2dGeometry {
  int batch = 0;
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int out_channels = 0;
  int kernel = 1;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// Scratch buffers for the im2col lowering. A layer owns one workspace and
/// passes it to every Forward/Backward call, so after the first step the
/// inner training loop performs no allocation (vectors keep their capacity).
/// Passing nullptr falls back to a thread-local workspace.
struct Conv2dWorkspace {
  std::vector<float> col;       // [in_channels * k * k, out_h * out_w]
  std::vector<float> grad_col;  // same shape; backward only
};

/// output[B, OC, OH, OW]; weight[OC, IC, K, K]; bias[OC] (may be null).
void Conv2dForward(const Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output,
                   Conv2dWorkspace* workspace = nullptr);

/// Accumulates gradients (caller zeroes them when appropriate).
/// grad_input may be null (e.g. first layer).
void Conv2dBackward(const Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias,
                    Conv2dWorkspace* workspace = nullptr);

/// im2col: expands one NCHW image (`input` points at the [C, H, W] plane of
/// a single batch element) into the [C*K*K, out_h*out_w] patch matrix. Out-
/// of-bounds (padding) taps are written as zeros.
void Im2col(const Conv2dGeometry& g, const float* input, float* col);

/// Scatter-adds a [C*K*K, out_h*out_w] patch-gradient matrix back into the
/// [C, H, W] input-gradient plane (the adjoint of Im2col).
void Col2imAdd(const Conv2dGeometry& g, const float* col, float* grad_input);

/// Depthwise conv: out_channels == in_channels; weight[C, K, K]; bias[C].
void DepthwiseConv2dForward(const Conv2dGeometry& g, const float* input,
                            const float* weight, const float* bias,
                            float* output);
void DepthwiseConv2dBackward(const Conv2dGeometry& g, const float* input,
                             const float* weight, const float* grad_output,
                             float* grad_input, float* grad_weight,
                             float* grad_bias);

/// Max pooling; `argmax` receives the flat input index of each output
/// element (size = output numel) for the backward pass.
void MaxPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output, int* argmax);
void MaxPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       const int* argmax, float* grad_input);

/// Average pooling over kernel windows.
void AvgPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output);
void AvgPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       float* grad_input);

/// Global average pooling: [B, C, H, W] -> [B, C].
void GlobalAvgPoolForward(int batch, int channels, int h, int w,
                          const float* input, float* output);
void GlobalAvgPoolBackward(int batch, int channels, int h, int w,
                           const float* grad_output, float* grad_input);

/// Per-channel batch normalization over (batch, plane) using batch
/// statistics. Writes xhat (normalized input, cached for backward), one
/// inv_std per channel, and output = gamma * xhat + beta. `plane` is
/// H * W for NCHW inputs. `xhat` may alias `output` (the inference pass
/// keeps no xhat); the output then holds the affine result.
void BatchNorm2dForward(int batch, int channels, size_t plane,
                        const float* input, const float* gamma,
                        const float* beta, float epsilon, float* xhat,
                        float* inv_std, float* output);

/// Accumulates grad_gamma/grad_beta (+=) and writes grad_input.
void BatchNorm2dBackward(int batch, int channels, size_t plane,
                         const float* grad_output, const float* xhat,
                         const float* inv_std, const float* gamma,
                         float* grad_gamma, float* grad_beta,
                         float* grad_input);

}  // namespace ops
}  // namespace fedra

#endif  // FEDRA_TENSOR_OPS_H_
