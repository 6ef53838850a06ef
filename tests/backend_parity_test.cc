// Randomized parity tests: the fast compute backend (ops::Gemm blocked
// packed GEMM, im2col Conv2d, fused vec kernels, batched sketch
// accumulation) against the scalar reference oracle in tensor/ref_ops.h.
// Differences come only from floating-point reassociation, so everything is
// held to a relative tolerance of 1e-4.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/ams_sketch.h"
#include "tensor/ops.h"
#include "tensor/ref_ops.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"

namespace fedra {
namespace {

constexpr double kRelTol = 1e-4;

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -2.0f,
                             float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextUniform(lo, hi);
  }
  return v;
}

// Relative max-error between two spans, normalized by the larger magnitude
// (with a floor of 1 so near-zero entries compare absolutely).
double MaxRelError(const std::vector<float>& got,
                   const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(
        1.0, std::max(std::fabs(static_cast<double>(got[i])),
                      std::fabs(static_cast<double>(want[i]))));
    worst = std::max(
        worst, std::fabs(static_cast<double>(got[i]) - want[i]) / denom);
  }
  return worst;
}

// ------------------------------------------------------------------ GEMM --

void CheckGemmParity(bool trans_a, bool trans_b, int m, int n, int k,
                     float alpha, float beta, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "ta=" << trans_a << " tb=" << trans_b << " m=" << m
               << " n=" << n << " k=" << k << " alpha=" << alpha
               << " beta=" << beta);
  auto a = RandomVec(static_cast<size_t>(m) * k, seed);
  auto b = RandomVec(static_cast<size_t>(k) * n, seed + 1);
  auto c0 = RandomVec(static_cast<size_t>(m) * n, seed + 2);
  std::vector<float> c_fast = c0;
  std::vector<float> c_ref = c0;
  ops::Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
            c_fast.data());
  ref::Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
            c_ref.data());
  EXPECT_LE(MaxRelError(c_fast, c_ref), kRelTol);
}

TEST(GemmParityTest, AllTransposeCombos) {
  uint64_t seed = 100;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      CheckGemmParity(ta, tb, 64, 64, 64, 1.0f, 0.0f, seed++);
    }
  }
}

TEST(GemmParityTest, OddShapesAndTileEdges) {
  uint64_t seed = 200;
  // Shapes straddling the micro-tile (8x32) and cache-block (96/256/1024)
  // boundaries, plus degenerate dims.
  const int shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {17, 1, 9},
                           {8, 32, 256}, {9, 33, 29},   {97, 17, 257},
                           {96, 32, 256}, {5, 1030, 3}, {130, 130, 130}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        CheckGemmParity(ta, tb, s[0], s[1], s[2], 1.0f, 0.0f, seed++);
      }
    }
  }
}

TEST(GemmParityTest, AlphaBeta) {
  uint64_t seed = 300;
  for (float alpha : {0.0f, 1.0f, -1.3f, 0.5f}) {
    for (float beta : {0.0f, 1.0f, 0.25f, -2.0f}) {
      CheckGemmParity(false, true, 37, 41, 23, alpha, beta, seed++);
    }
  }
}

// ------------------------------------------------------------------ conv --

struct ConvCase {
  int kernel;
  int stride;
  int pad;
};

void CheckConvParity(const ConvCase& cc, int batch, int in_channels,
                     int out_channels, int in_h, int in_w, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "k=" << cc.kernel << " s=" << cc.stride << " p=" << cc.pad
               << " in=" << in_h << "x" << in_w);
  ops::Conv2dGeometry g;
  g.batch = batch;
  g.in_channels = in_channels;
  g.in_h = in_h;
  g.in_w = in_w;
  g.out_channels = out_channels;
  g.kernel = cc.kernel;
  g.stride = cc.stride;
  g.pad = cc.pad;
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);

  const size_t in_numel =
      static_cast<size_t>(batch) * in_channels * in_h * in_w;
  const size_t w_numel = static_cast<size_t>(out_channels) * in_channels *
                         cc.kernel * cc.kernel;
  const size_t out_numel =
      static_cast<size_t>(batch) * out_channels * g.out_h() * g.out_w();

  auto input = RandomVec(in_numel, seed);
  auto weight = RandomVec(w_numel, seed + 1, -0.5f, 0.5f);
  auto bias = RandomVec(static_cast<size_t>(out_channels), seed + 2);

  // Forward parity (with and without bias).
  std::vector<float> out_fast(out_numel);
  std::vector<float> out_ref(out_numel);
  ops::Conv2dWorkspace ws;
  ops::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                     out_fast.data(), &ws);
  ref::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                     out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  ops::Conv2dForward(g, input.data(), weight.data(), nullptr, out_fast.data(),
                     &ws);
  ref::Conv2dForward(g, input.data(), weight.data(), nullptr, out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward, no bias";

  // Backward parity: all gradients, accumulating on random initial values
  // (the contract is +=, not =).
  auto grad_out = RandomVec(out_numel, seed + 3);
  auto gi0 = RandomVec(in_numel, seed + 4);
  auto gw0 = RandomVec(w_numel, seed + 5);
  auto gb0 = RandomVec(static_cast<size_t>(out_channels), seed + 6);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  std::vector<float> gw_fast = gw0, gw_ref = gw0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  ops::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      gi_fast.data(), gw_fast.data(), gb_fast.data(), &ws);
  ref::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      gi_ref.data(), gw_ref.data(), gb_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gw_fast, gw_ref), kRelTol) << "grad_weight";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_bias";

  // Null grad_input / grad_bias (first layer; bias-less conv).
  std::vector<float> gw2_fast = gw0, gw2_ref = gw0;
  ops::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      nullptr, gw2_fast.data(), nullptr, &ws);
  ref::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      nullptr, gw2_ref.data(), nullptr);
  EXPECT_LE(MaxRelError(gw2_fast, gw2_ref), kRelTol)
      << "grad_weight, null grad_input/grad_bias";
}

TEST(ConvParityTest, StridePadKernelSweep) {
  const ConvCase cases[] = {
      {1, 1, 0},  // pointwise fast path
      {3, 1, 1},  // VGG-style same-conv
      {3, 2, 1},  // strided downsampling
      {5, 1, 2},  // large kernel, same padding
      {2, 2, 0},  // even kernel, no padding
      {3, 1, 0},  // valid conv
      {4, 2, 1},  // even kernel with stride and pad
      {3, 3, 2},  // stride > 1 with uneven coverage
  };
  uint64_t seed = 500;
  for (const auto& cc : cases) {
    CheckConvParity(cc, /*batch=*/2, /*in_channels=*/3, /*out_channels=*/4,
                    /*in_h=*/9, /*in_w=*/7, seed);
    seed += 10;
  }
}

TEST(ConvParityTest, SinglePixelOutputAndChannelExtremes) {
  CheckConvParity({3, 1, 0}, 1, 1, 1, 3, 3, 900);   // output is 1x1
  CheckConvParity({3, 1, 1}, 1, 8, 1, 5, 5, 910);   // many-in one-out
  CheckConvParity({1, 1, 0}, 3, 1, 8, 4, 4, 920);   // one-in many-out, 1x1
}

// ------------------------------------------------------------- vec fused --

TEST(VecParityTest, ReductionsMatchScalarReference) {
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{1023},
                   size_t{4099}}) {
    auto a = RandomVec(n, 40 + n);
    auto b = RandomVec(n, 41 + n);
    EXPECT_NEAR(vec::Dot(a.data(), b.data(), n),
                ref::Dot(a.data(), b.data(), n),
                kRelTol * std::max(1.0, std::fabs(ref::Dot(a.data(), b.data(),
                                                           n))));
    EXPECT_NEAR(vec::SquaredNorm(a.data(), n), ref::SquaredNorm(a.data(), n),
                kRelTol * std::max(1.0, ref::SquaredNorm(a.data(), n)));
    EXPECT_NEAR(vec::Sum(a.data(), n), ref::Sum(a.data(), n),
                kRelTol * std::max(1.0, std::fabs(ref::Sum(a.data(), n))));
  }
}

TEST(VecParityTest, SubSquaredNormMatchesUnfused) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{1024}, size_t{4097}}) {
    auto a = RandomVec(n, 50 + n);
    auto b = RandomVec(n, 51 + n);
    std::vector<float> out_fast(n), out_ref(n);
    const double sq_fast = vec::SubSquaredNorm(a.data(), b.data(),
                                               out_fast.data(), n);
    const double sq_ref = ref::SubSquaredNorm(a.data(), b.data(),
                                              out_ref.data(), n);
    EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
    EXPECT_NEAR(sq_fast, sq_ref, kRelTol * std::max(1.0, sq_ref));
  }
}

TEST(VecParityTest, AxpyNormMatchesUnfused) {
  for (size_t n : {size_t{1}, size_t{6}, size_t{1025}, size_t{8191}}) {
    auto x = RandomVec(n, 60 + n);
    auto y0 = RandomVec(n, 61 + n);
    std::vector<float> y_fast = y0, y_ref = y0;
    const double sq_fast = vec::AxpyNorm(-0.37f, x.data(), y_fast.data(), n);
    const double sq_ref = ref::AxpyNorm(-0.37f, x.data(), y_ref.data(), n);
    EXPECT_LE(MaxRelError(y_fast, y_ref), kRelTol);
    EXPECT_NEAR(sq_fast, sq_ref, kRelTol * std::max(1.0, sq_ref));
  }
}

TEST(VecParityTest, AddScaledDiffMatchesRef) {
  // The fused FedProx proximal kernel: y += mu * (w - anchor).
  for (size_t n : {size_t{1}, size_t{5}, size_t{255}, size_t{1024},
                   size_t{4099}}) {
    auto w = RandomVec(n, 70 + n);
    auto anchor = RandomVec(n, 71 + n);
    auto y0 = RandomVec(n, 72 + n);
    std::vector<float> y_fast = y0, y_ref = y0;
    vec::AddScaledDiff(0.73f, w.data(), anchor.data(), y_fast.data(), n);
    ref::AddScaledDiff(0.73f, w.data(), anchor.data(), y_ref.data(), n);
    EXPECT_LE(MaxRelError(y_fast, y_ref), kRelTol);
  }
}

TEST(VecParityTest, ReduceScaleMatchesRef) {
  // The collectives' fused tree-reduce + scale kernel, across buffer counts
  // straddling the pairwise-combine edge cases (1, odd, even) and lengths
  // straddling the 256-element accumulator block.
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{9}}) {
    for (size_t n : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                     size_t{5000}}) {
      std::vector<std::vector<float>> bufs(k);
      std::vector<const float*> ptrs(k);
      for (size_t kk = 0; kk < k; ++kk) {
        bufs[kk] = RandomVec(n, 80 + 10 * k + kk);
        ptrs[kk] = bufs[kk].data();
      }
      const double scale = 1.0 / static_cast<double>(k);
      std::vector<float> out_fast(n), out_ref(n);
      vec::ReduceScale(ptrs.data(), k, n, scale, out_fast.data());
      ref::ReduceScale(ptrs.data(), k, n, scale, out_ref.data());
      EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
      // Aliasing contract: out may be bufs[0] itself.
      std::vector<float> aliased = bufs[0];
      ptrs[0] = aliased.data();
      vec::ReduceScale(ptrs.data(), k, n, scale, aliased.data());
      EXPECT_LE(MaxRelError(aliased, out_ref), kRelTol);
      ptrs[0] = bufs[0].data();
    }
  }
}

// -------------------------------------------------- pooling / depthwise --

ops::Conv2dGeometry PoolGeometry(int batch, int channels, int in_h, int in_w,
                                 int kernel, int stride, int pad) {
  ops::Conv2dGeometry g;
  g.batch = batch;
  g.in_channels = channels;
  g.in_h = in_h;
  g.in_w = in_w;
  g.out_channels = channels;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

void CheckMaxPoolParity(int batch, int channels, int in_h, int in_w,
                        int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "maxpool k=" << kernel << " s=" << stride << " p=" << pad
               << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  std::vector<int> arg_fast(out_numel, -1), arg_ref(out_numel, -1);
  ops::MaxPool2dForward(g, input.data(), out_fast.data(), arg_fast.data());
  ref::MaxPool2dForward(g, input.data(), out_ref.data(), arg_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";
  // Same strict-> comparison in the same tap order: argmax must match
  // exactly, ties included.
  EXPECT_EQ(arg_fast, arg_ref) << "argmax";

  auto grad_out = RandomVec(out_numel, seed + 1);
  auto gi0 = RandomVec(in_numel, seed + 2);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  ops::MaxPool2dBackward(g, grad_out.data(), arg_fast.data(), gi_fast.data());
  ref::MaxPool2dBackward(g, grad_out.data(), arg_ref.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
}

void CheckAvgPoolParity(int batch, int channels, int in_h, int in_w,
                        int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "avgpool k=" << kernel << " s=" << stride << " p=" << pad
               << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  ops::AvgPool2dForward(g, input.data(), out_fast.data());
  ref::AvgPool2dForward(g, input.data(), out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  auto grad_out = RandomVec(out_numel, seed + 1);
  auto gi0 = RandomVec(in_numel, seed + 2);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  ops::AvgPool2dBackward(g, grad_out.data(), gi_fast.data());
  ref::AvgPool2dBackward(g, grad_out.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
}

TEST(PoolParityTest, ShapeStridePadSweep) {
  // Odd extents, stride > 1, windows clipping the right/bottom borders, and
  // padded windows that clip on every side.
  const int cases[][3] = {{2, 2, 0}, {3, 1, 0}, {3, 2, 0}, {3, 2, 1},
                          {2, 1, 0}, {5, 3, 2}, {4, 4, 0}, {3, 3, 1}};
  uint64_t seed = 2000;
  for (const auto& c : cases) {
    CheckMaxPoolParity(2, 3, 9, 7, c[0], c[1], c[2], seed);
    CheckAvgPoolParity(2, 3, 9, 7, c[0], c[1], c[2], seed + 5);
    CheckMaxPoolParity(1, 5, 11, 5, c[0], c[1], c[2], seed + 10);
    CheckAvgPoolParity(1, 5, 11, 5, c[0], c[1], c[2], seed + 15);
    seed += 20;
  }
  // Large enough to cross the plane-parallel threshold.
  CheckMaxPoolParity(4, 16, 32, 32, 2, 2, 0, 2900);
  CheckAvgPoolParity(4, 16, 32, 32, 2, 2, 0, 2910);
}

TEST(PoolParityTest, RepeatedValuesTieBreakIdentically) {
  // Quantized inputs force duplicate window maxima; argmax must still pick
  // the same (first) tap as the oracle.
  const auto g = PoolGeometry(2, 2, 8, 8, 3, 1, 1);
  const size_t in_numel = static_cast<size_t>(2) * 2 * 8 * 8;
  auto input = RandomVec(in_numel, 3000);
  for (auto& x : input) {
    x = std::round(x);  // values in {-2, -1, 0, 1, 2}
  }
  const size_t out_numel =
      static_cast<size_t>(2) * 2 * g.out_h() * g.out_w();
  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  std::vector<int> arg_fast(out_numel), arg_ref(out_numel);
  ops::MaxPool2dForward(g, input.data(), out_fast.data(), arg_fast.data());
  ref::MaxPool2dForward(g, input.data(), out_ref.data(), arg_ref.data());
  EXPECT_EQ(arg_fast, arg_ref);
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
}

void CheckDepthwiseParity(int batch, int channels, int in_h, int in_w,
                          int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "dwconv k=" << kernel << " s=" << stride << " p=" << pad
               << " c=" << channels << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t w_numel = static_cast<size_t>(channels) * kernel * kernel;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);
  auto weight = RandomVec(w_numel, seed + 1, -0.5f, 0.5f);
  auto bias = RandomVec(static_cast<size_t>(channels), seed + 2);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  ops::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                              out_fast.data());
  ref::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                              out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  ops::DepthwiseConv2dForward(g, input.data(), weight.data(), nullptr,
                              out_fast.data());
  ref::DepthwiseConv2dForward(g, input.data(), weight.data(), nullptr,
                              out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward, no bias";

  // Backward accumulates on random initial values (the contract is +=).
  auto grad_out = RandomVec(out_numel, seed + 3);
  auto gi0 = RandomVec(in_numel, seed + 4);
  auto gw0 = RandomVec(w_numel, seed + 5);
  auto gb0 = RandomVec(static_cast<size_t>(channels), seed + 6);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  std::vector<float> gw_fast = gw0, gw_ref = gw0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  ops::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), gi_fast.data(),
                               gw_fast.data(), gb_fast.data());
  ref::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), gi_ref.data(), gw_ref.data(),
                               gb_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gw_fast, gw_ref), kRelTol) << "grad_weight";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_bias";

  // Null grad_input / grad_bias.
  std::vector<float> gw2_fast = gw0, gw2_ref = gw0;
  ops::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), nullptr, gw2_fast.data(),
                               nullptr);
  ref::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), nullptr, gw2_ref.data(),
                               nullptr);
  EXPECT_LE(MaxRelError(gw2_fast, gw2_ref), kRelTol)
      << "grad_weight, null grad_input/grad_bias";
}

TEST(DepthwiseParityTest, StridePadKernelSweep) {
  const int cases[][3] = {{3, 1, 1},  // ConvNeXt-style same conv
                          {3, 2, 1},  // strided downsampling
                          {5, 1, 2},  // large kernel
                          {7, 1, 3},  // ConvNeXt 7x7
                          {2, 2, 0},  // even kernel
                          {3, 1, 0},  // valid conv
                          {3, 3, 2}}; // stride > kernel - pad
  uint64_t seed = 4000;
  for (const auto& c : cases) {
    CheckDepthwiseParity(2, 3, 9, 7, c[0], c[1], c[2], seed);
    CheckDepthwiseParity(1, 6, 13, 11, c[0], c[1], c[2], seed + 7);
    seed += 20;
  }
  // Large enough to cross the plane-parallel threshold.
  CheckDepthwiseParity(2, 32, 24, 24, 3, 1, 1, 4900);
}

// ------------------------------------------------------------- batchnorm --

void CheckBatchNormParity(int batch, int channels, int h, int w,
                          uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "bn b=" << batch << " c=" << channels
                                    << " plane=" << h << "x" << w);
  const size_t plane = static_cast<size_t>(h) * w;
  const size_t numel = static_cast<size_t>(batch) * channels * plane;
  auto input = RandomVec(numel, seed);
  auto gamma = RandomVec(static_cast<size_t>(channels), seed + 1, 0.5f, 1.5f);
  auto beta = RandomVec(static_cast<size_t>(channels), seed + 2);
  const float epsilon = 1e-5f;

  std::vector<float> xhat_fast(numel), xhat_ref(numel);
  std::vector<float> istd_fast(static_cast<size_t>(channels));
  std::vector<float> istd_ref(static_cast<size_t>(channels));
  std::vector<float> out_fast(numel), out_ref(numel);
  ops::BatchNorm2dForward(batch, channels, plane, input.data(), gamma.data(),
                          beta.data(), epsilon, xhat_fast.data(),
                          istd_fast.data(), out_fast.data());
  ref::BatchNorm2dForward(batch, channels, plane, input.data(), gamma.data(),
                          beta.data(), epsilon, xhat_ref.data(),
                          istd_ref.data(), out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "output";
  EXPECT_LE(MaxRelError(xhat_fast, xhat_ref), kRelTol) << "xhat";
  EXPECT_LE(MaxRelError(istd_fast, istd_ref), kRelTol) << "inv_std";

  auto grad_out = RandomVec(numel, seed + 3);
  auto gg0 = RandomVec(static_cast<size_t>(channels), seed + 4);
  auto gb0 = RandomVec(static_cast<size_t>(channels), seed + 5);
  std::vector<float> gg_fast = gg0, gg_ref = gg0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  std::vector<float> gi_fast(numel), gi_ref(numel);
  ops::BatchNorm2dBackward(batch, channels, plane, grad_out.data(),
                           xhat_fast.data(), istd_fast.data(), gamma.data(),
                           gg_fast.data(), gb_fast.data(), gi_fast.data());
  ref::BatchNorm2dBackward(batch, channels, plane, grad_out.data(),
                           xhat_ref.data(), istd_ref.data(), gamma.data(),
                           gg_ref.data(), gb_ref.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gg_fast, gg_ref), kRelTol) << "grad_gamma";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_beta";
}

TEST(BatchNormParityTest, ShapeSweep) {
  CheckBatchNormParity(1, 1, 1, 1, 5000);      // degenerate
  CheckBatchNormParity(2, 3, 5, 7, 5010);      // odd plane
  CheckBatchNormParity(3, 8, 9, 9, 5020);      // odd, multi-channel
  CheckBatchNormParity(4, 16, 16, 16, 5030);   // crosses parallel threshold
  CheckBatchNormParity(2, 1, 31, 3, 5040);     // single channel, odd plane
}

TEST(VecParityTest, SumAndSquaredNormMatchesUnfused) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{1023}, size_t{4099}}) {
    auto x = RandomVec(n, 70 + n);
    double sum = 1.5;     // accumulates on a nonzero start (+= contract)
    double sum_sq = -2.0;
    vec::SumAndSquaredNorm(x.data(), n, &sum, &sum_sq);
    const double want_sum = 1.5 + ref::Sum(x.data(), n);
    const double want_sq = -2.0 + ref::SquaredNorm(x.data(), n);
    EXPECT_NEAR(sum, want_sum, kRelTol * std::max(1.0, std::fabs(want_sum)));
    EXPECT_NEAR(sum_sq, want_sq, kRelTol * std::max(1.0, std::fabs(want_sq)));
  }
}

// ---------------------------------------------------------------- sketch --

TEST(SketchParityTest, BatchedAccumulateMatchesPerCoordinateUpdate) {
  const size_t dim = 10000;  // crosses the 4096-coordinate blocking boundary
  auto family = AmsHashFamily::Create(5, 250, dim, 77);
  auto v = RandomVec(dim, 78);
  AmsSketch batched(family);
  batched.AccumulateVector(v.data());
  AmsSketch reference(family);
  for (size_t j = 0; j < dim; ++j) {
    reference.Update(j, v[j]);
  }
  std::vector<float> got(batched.data(), batched.data() + batched.numel());
  std::vector<float> want(reference.data(),
                          reference.data() + reference.numel());
  EXPECT_LE(MaxRelError(got, want), kRelTol);
}

TEST(SketchParityTest, OffsetTablesMatchBucketSignAccessors) {
  const size_t dim = 513;
  auto family = AmsHashFamily::Create(3, 17, dim, 9);
  for (int r = 0; r < family->rows(); ++r) {
    const uint32_t* offsets = family->cell_offsets(r);
    const float* signs = family->sign_values(r);
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(offsets[j],
                static_cast<uint32_t>(r) * family->cols() +
                    family->bucket(r, j));
      EXPECT_EQ(signs[j], family->sign(r, j));
    }
  }
}

}  // namespace
}  // namespace fedra
