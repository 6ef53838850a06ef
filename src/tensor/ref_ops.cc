#include "tensor/ref_ops.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace fedra {
namespace ref {

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  FEDRA_CHECK(m > 0 && n > 0 && k > 0);
  const size_t c_size = static_cast<size_t>(m) * static_cast<size_t>(n);
  if (beta == 0.0f) {
    for (size_t i = 0; i < c_size; ++i) {
      c[i] = 0.0f;
    }
  } else if (beta != 1.0f) {
    for (size_t i = 0; i < c_size; ++i) {
      c[i] *= beta;
    }
  }
  auto a_at = [&](int i, int p) -> float {
    return trans_a ? a[static_cast<size_t>(p) * m + i]
                   : a[static_cast<size_t>(i) * k + p];
  };
  auto b_at = [&](int p, int j) -> float {
    return trans_b ? b[static_cast<size_t>(j) * k + p]
                   : b[static_cast<size_t>(p) * n + j];
  };
  for (int i = 0; i < m; ++i) {
    float* c_row = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float a_ip = alpha * a_at(i, p);
      for (int j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_at(p, j);
      }
    }
  }
}

namespace {

inline size_t Idx4(int n, int c, int h, int w, int channels, int height,
                   int width) {
  return ((static_cast<size_t>(n) * channels + c) * height + h) *
             static_cast<size_t>(width) +
         w;
}

}  // namespace

void Conv2dForward(const ops::Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  FEDRA_CHECK(oh > 0 && ow > 0) << "conv output is empty";
  for (int n = 0; n < g.batch; ++n) {
    for (int oc = 0; oc < g.out_channels; ++oc) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = bias ? bias[oc] : 0.0f;
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ic = 0; ic < g.in_channels; ++ic) {
            for (int ky = 0; ky < g.kernel; ++ky) {
              const int h = h0 + ky;
              if (h < 0 || h >= g.in_h) {
                continue;
              }
              for (int kx = 0; kx < g.kernel; ++kx) {
                const int w = w0 + kx;
                if (w < 0 || w >= g.in_w) {
                  continue;
                }
                const float in_val =
                    input[Idx4(n, ic, h, w, g.in_channels, g.in_h, g.in_w)];
                const float w_val =
                    weight[((static_cast<size_t>(oc) * g.in_channels + ic) *
                                g.kernel +
                            ky) *
                               g.kernel +
                           kx];
                acc += in_val * w_val;
              }
            }
          }
          output[Idx4(n, oc, y, x, g.out_channels, oh, ow)] = acc;
        }
      }
    }
  }
}

void Conv2dBackward(const ops::Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int oc = 0; oc < g.out_channels; ++oc) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          const float go =
              grad_output[Idx4(n, oc, y, x, g.out_channels, oh, ow)];
          if (grad_bias) {
            grad_bias[oc] += go;
          }
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ic = 0; ic < g.in_channels; ++ic) {
            for (int ky = 0; ky < g.kernel; ++ky) {
              const int h = h0 + ky;
              if (h < 0 || h >= g.in_h) {
                continue;
              }
              for (int kx = 0; kx < g.kernel; ++kx) {
                const int w = w0 + kx;
                if (w < 0 || w >= g.in_w) {
                  continue;
                }
                const size_t in_idx =
                    Idx4(n, ic, h, w, g.in_channels, g.in_h, g.in_w);
                const size_t w_idx =
                    ((static_cast<size_t>(oc) * g.in_channels + ic) *
                         g.kernel +
                     ky) *
                        g.kernel +
                    kx;
                if (grad_weight) {
                  grad_weight[w_idx] += go * input[in_idx];
                }
                if (grad_input) {
                  grad_input[in_idx] += go * weight[w_idx];
                }
              }
            }
          }
        }
      }
    }
  }
}

void DepthwiseConv2dForward(const ops::Conv2dGeometry& g, const float* input,
                            const float* weight, const float* bias,
                            float* output) {
  FEDRA_CHECK_EQ(g.in_channels, g.out_channels);
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.in_channels; ++c) {
      const float* w_c =
          weight + static_cast<size_t>(c) * g.kernel * g.kernel;
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = bias ? bias[c] : 0.0f;
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w < 0 || w >= g.in_w) {
                continue;
              }
              acc += input[Idx4(n, c, h, w, g.in_channels, g.in_h, g.in_w)] *
                     w_c[ky * g.kernel + kx];
            }
          }
          output[Idx4(n, c, y, x, g.in_channels, oh, ow)] = acc;
        }
      }
    }
  }
}

void DepthwiseConv2dBackward(const ops::Conv2dGeometry& g, const float* input,
                             const float* weight, const float* grad_output,
                             float* grad_input, float* grad_weight,
                             float* grad_bias) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.in_channels; ++c) {
      const float* w_c =
          weight + static_cast<size_t>(c) * g.kernel * g.kernel;
      float* gw_c =
          grad_weight
              ? grad_weight + static_cast<size_t>(c) * g.kernel * g.kernel
              : nullptr;
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          const float go =
              grad_output[Idx4(n, c, y, x, g.in_channels, oh, ow)];
          if (grad_bias) {
            grad_bias[c] += go;
          }
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w < 0 || w >= g.in_w) {
                continue;
              }
              const size_t in_idx =
                  Idx4(n, c, h, w, g.in_channels, g.in_h, g.in_w);
              if (gw_c) {
                gw_c[ky * g.kernel + kx] += go * input[in_idx];
              }
              if (grad_input) {
                grad_input[in_idx] += go * w_c[ky * g.kernel + kx];
              }
            }
          }
        }
      }
    }
  }
}

void MaxPool2dForward(const ops::Conv2dGeometry& g, const float* input,
                      float* output, int* argmax) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.in_channels; ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = -1;
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w < 0 || w >= g.in_w) {
                continue;
              }
              const size_t idx =
                  Idx4(n, c, h, w, g.in_channels, g.in_h, g.in_w);
              if (input[idx] > best) {
                best = input[idx];
                best_idx = static_cast<int>(idx);
              }
            }
          }
          FEDRA_CHECK_GE(best_idx, 0) << "empty pooling window";
          const size_t out_idx = Idx4(n, c, y, x, g.in_channels, oh, ow);
          output[out_idx] = best;
          argmax[out_idx] = best_idx;
        }
      }
    }
  }
}

void MaxPool2dBackward(const ops::Conv2dGeometry& g, const float* grad_output,
                       const int* argmax, float* grad_input) {
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  for (size_t i = 0; i < out_numel; ++i) {
    grad_input[argmax[i]] += grad_output[i];
  }
}

void AvgPool2dForward(const ops::Conv2dGeometry& g, const float* input,
                      float* output) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.in_channels; ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0.0f;
          int count = 0;
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w < 0 || w >= g.in_w) {
                continue;
              }
              acc += input[Idx4(n, c, h, w, g.in_channels, g.in_h, g.in_w)];
              ++count;
            }
          }
          output[Idx4(n, c, y, x, g.in_channels, oh, ow)] =
              count > 0 ? acc / static_cast<float>(count) : 0.0f;
        }
      }
    }
  }
}

void AvgPool2dBackward(const ops::Conv2dGeometry& g, const float* grad_output,
                       float* grad_input) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.in_channels; ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          // Count matches the forward pass (windows clipped at borders).
          int count = 0;
          const int h0 = y * g.stride - g.pad;
          const int w0 = x * g.stride - g.pad;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w >= 0 && w < g.in_w) {
                ++count;
              }
            }
          }
          if (count == 0) {
            continue;
          }
          const float share =
              grad_output[Idx4(n, c, y, x, g.in_channels, oh, ow)] /
              static_cast<float>(count);
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int h = h0 + ky;
            if (h < 0 || h >= g.in_h) {
              continue;
            }
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int w = w0 + kx;
              if (w < 0 || w >= g.in_w) {
                continue;
              }
              grad_input[Idx4(n, c, h, w, g.in_channels, g.in_h, g.in_w)] +=
                  share;
            }
          }
        }
      }
    }
  }
}

void BatchNorm2dForward(int batch, int channels, size_t plane,
                        const float* input, const float* gamma,
                        const float* beta, float epsilon, float* xhat,
                        float* inv_std, float* output) {
  const double count = static_cast<double>(batch) * plane;
  for (int c = 0; c < channels; ++c) {
    // Two passes per channel: statistics, then normalize.
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int n = 0; n < batch; ++n) {
      const float* x = input + (static_cast<size_t>(n) * channels + c) * plane;
      for (size_t i = 0; i < plane; ++i) {
        sum += x[i];
        sum_sq += static_cast<double>(x[i]) * x[i];
      }
    }
    const double mean = sum / count;
    const double var = sum_sq / count - mean * mean;
    const float istd = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    inv_std[c] = istd;
    const float g = gamma[c];
    const float b = beta[c];
    for (int n = 0; n < batch; ++n) {
      const size_t base = (static_cast<size_t>(n) * channels + c) * plane;
      const float* x = input + base;
      float* xh = xhat + base;
      float* y = output + base;
      for (size_t i = 0; i < plane; ++i) {
        xh[i] = (x[i] - static_cast<float>(mean)) * istd;
        y[i] = g * xh[i] + b;
      }
    }
  }
}

void BatchNorm2dBackward(int batch, int channels, size_t plane,
                         const float* grad_output, const float* xhat,
                         const float* inv_std, const float* gamma,
                         float* grad_gamma, float* grad_beta,
                         float* grad_input) {
  const double count = static_cast<double>(batch) * plane;
  for (int c = 0; c < channels; ++c) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (int n = 0; n < batch; ++n) {
      const size_t base = (static_cast<size_t>(n) * channels + c) * plane;
      const float* dy = grad_output + base;
      const float* xh = xhat + base;
      for (size_t i = 0; i < plane; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    grad_beta[c] += static_cast<float>(sum_dy);
    grad_gamma[c] += static_cast<float>(sum_dy_xhat);
    const float scale = gamma[c] * inv_std[c];
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
    for (int n = 0; n < batch; ++n) {
      const size_t base = (static_cast<size_t>(n) * channels + c) * plane;
      const float* dy = grad_output + base;
      const float* xh = xhat + base;
      float* dx = grad_input + base;
      for (size_t i = 0; i < plane; ++i) {
        dx[i] = scale * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
      }
    }
  }
}

void Fill(float* dst, size_t n, float value) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = value;
  }
}

void Scale(float* x, size_t n, float alpha) {
  for (size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void Mul(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

double Dot(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double SquaredNorm(const float* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return acc;
}

double Sum(const float* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]);
  }
  return acc;
}

double SubSquaredNorm(const float* a, const float* b, float* out, size_t n) {
  Sub(a, b, out, n);
  return SquaredNorm(out, n);
}

double AxpyNorm(float alpha, const float* x, float* y, size_t n) {
  Axpy(alpha, x, y, n);
  return SquaredNorm(y, n);
}

void AddScaledDiff(float alpha, const float* a, const float* b, float* y,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * (a[i] - b[i]);
  }
}

void ReduceScale(const float* const* bufs, size_t num_bufs, size_t n,
                 double scale, float* out) {
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t k = 0; k < num_bufs; ++k) {
      acc += static_cast<double>(bufs[k][i]);
    }
    out[i] = static_cast<float>(acc * scale);
  }
}

}  // namespace ref
}  // namespace fedra
