#include "nn/layers_norm.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace fedra {

// ---------------------------------------------------------- BatchNorm2d --

BatchNorm2dLayer::BatchNorm2dLayer(int channels, float epsilon)
    : channels_(channels), epsilon_(epsilon) {
  FEDRA_CHECK_GT(channels, 0);
}

std::string BatchNorm2dLayer::name() const {
  return StrFormat("batchnorm2d(%d)", channels_);
}

void BatchNorm2dLayer::RegisterParams(ParameterStore* store) {
  gamma_id_ = store->Register(name() + ".gamma", {channels_});
  beta_id_ = store->Register(name() + ".beta", {channels_});
  state_slot_ = store->RegisterStateSlot();
}

void BatchNorm2dLayer::BindOffsets(const ParameterStore& store) {
  gamma_offset_ = store.block(gamma_id_).offset;
  beta_offset_ = store.block(beta_id_).offset;
}

void BatchNorm2dLayer::InitParams(Rng* rng, const ParameterView& view) {
  (void)rng;
  float* gamma = view.params + gamma_offset_;
  float* beta = view.params + beta_offset_;
  for (int c = 0; c < channels_; ++c) {
    gamma[c] = 1.0f;
    beta[c] = 0.0f;
  }
}

Tensor BatchNorm2dLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  FEDRA_CHECK_EQ(input.dim(1), channels_);
  const int batch = input.dim(0);
  const size_t plane =
      static_cast<size_t>(input.dim(2)) * static_cast<size_t>(input.dim(3));

  State& state = ctx.states->Get<State>(state_slot_);
  state.inv_std.assign(static_cast<size_t>(channels_), 0.0f);
  Tensor output(input.shape());
  // The kernel writes xhat before the affine output; an inference pass
  // aims it at the output itself, which the affine step then overwrites.
  float* xhat = output.data();
  if (!ctx.inference) {
    state.cached_xhat = Tensor(input.shape());
    xhat = state.cached_xhat.data();
  }
  ops::BatchNorm2dForward(batch, channels_, plane, input.data(),
                          ctx.view.params + gamma_offset_,
                          ctx.view.params + beta_offset_, epsilon_, xhat,
                          state.inv_std.data(), output.data());
  return output;
}

Tensor BatchNorm2dLayer::Backward(const Tensor& grad_output,
                                  ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  FEDRA_CHECK(grad_output.SameShape(state.cached_xhat));
  const int batch = grad_output.dim(0);
  const size_t plane = static_cast<size_t>(grad_output.dim(2)) *
                       static_cast<size_t>(grad_output.dim(3));

  Tensor grad_input(grad_output.shape());
  ops::BatchNorm2dBackward(batch, channels_, plane, grad_output.data(),
                           state.cached_xhat.data(), state.inv_std.data(),
                           ctx.view.params + gamma_offset_,
                           ctx.view.grads + gamma_offset_,
                           ctx.view.grads + beta_offset_, grad_input.data());
  return grad_input;
}

// --------------------------------------------------- LayerNormChannels --

LayerNormChannelsLayer::LayerNormChannelsLayer(int channels, float epsilon)
    : channels_(channels), epsilon_(epsilon) {
  FEDRA_CHECK_GT(channels, 0);
}

std::string LayerNormChannelsLayer::name() const {
  return StrFormat("layernorm_c(%d)", channels_);
}

void LayerNormChannelsLayer::RegisterParams(ParameterStore* store) {
  gamma_id_ = store->Register(name() + ".gamma", {channels_});
  beta_id_ = store->Register(name() + ".beta", {channels_});
  state_slot_ = store->RegisterStateSlot();
}

void LayerNormChannelsLayer::BindOffsets(const ParameterStore& store) {
  gamma_offset_ = store.block(gamma_id_).offset;
  beta_offset_ = store.block(beta_id_).offset;
}

void LayerNormChannelsLayer::InitParams(Rng* rng, const ParameterView& view) {
  (void)rng;
  float* gamma = view.params + gamma_offset_;
  float* beta = view.params + beta_offset_;
  for (int c = 0; c < channels_; ++c) {
    gamma[c] = 1.0f;
    beta[c] = 0.0f;
  }
}

Tensor LayerNormChannelsLayer::Forward(const Tensor& input,
                                       ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  // Treat rank-2 [B, C] as [B, C, 1, 1].
  int batch;
  int height;
  int width;
  if (input.rank() == 4) {
    FEDRA_CHECK_EQ(input.dim(1), channels_);
    batch = input.dim(0);
    height = input.dim(2);
    width = input.dim(3);
  } else {
    FEDRA_CHECK_EQ(input.rank(), 2);
    FEDRA_CHECK_EQ(input.dim(1), channels_);
    batch = input.dim(0);
    height = 1;
    width = 1;
  }
  const size_t plane = static_cast<size_t>(height) * width;
  const size_t num_positions = static_cast<size_t>(batch) * plane;

  // An inference pass keeps no xhat: each value feeds only its output.
  float* xhat_cache = nullptr;
  if (!ctx.inference) {
    state.cached_xhat = Tensor(input.shape());
    xhat_cache = state.cached_xhat.data();
  }
  state.inv_std.assign(num_positions, 0.0f);
  Tensor output(input.shape());

  const float* gamma = ctx.view.params + gamma_offset_;
  const float* beta = ctx.view.params + beta_offset_;
  const float inv_c = 1.0f / static_cast<float>(channels_);
  for (int n = 0; n < batch; ++n) {
    for (size_t p = 0; p < plane; ++p) {
      // Channel stride within one sample is `plane` for NCHW.
      const size_t base = static_cast<size_t>(n) * channels_ * plane + p;
      double sum = 0.0;
      double sum_sq = 0.0;
      for (int c = 0; c < channels_; ++c) {
        const float x = input.data()[base + static_cast<size_t>(c) * plane];
        sum += x;
        sum_sq += static_cast<double>(x) * x;
      }
      const float mean = static_cast<float>(sum) * inv_c;
      const float var =
          static_cast<float>(sum_sq) * inv_c - mean * mean;
      const float inv_std = 1.0f / std::sqrt(var + epsilon_);
      state.inv_std[static_cast<size_t>(n) * plane + p] = inv_std;
      for (int c = 0; c < channels_; ++c) {
        const size_t idx = base + static_cast<size_t>(c) * plane;
        const float xhat = (input.data()[idx] - mean) * inv_std;
        if (xhat_cache != nullptr) {
          xhat_cache[idx] = xhat;
        }
        output.data()[idx] = gamma[c] * xhat + beta[c];
      }
    }
  }
  return output;
}

Tensor LayerNormChannelsLayer::Backward(const Tensor& grad_output,
                                        ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  FEDRA_CHECK(grad_output.SameShape(state.cached_xhat));
  int batch;
  int height;
  int width;
  if (grad_output.rank() == 4) {
    batch = grad_output.dim(0);
    height = grad_output.dim(2);
    width = grad_output.dim(3);
  } else {
    batch = grad_output.dim(0);
    height = 1;
    width = 1;
  }
  const size_t plane = static_cast<size_t>(height) * width;
  const float inv_c = 1.0f / static_cast<float>(channels_);

  const float* gamma = ctx.view.params + gamma_offset_;
  float* grad_gamma = ctx.view.grads + gamma_offset_;
  float* grad_beta = ctx.view.grads + beta_offset_;
  Tensor grad_input(grad_output.shape());
  for (int n = 0; n < batch; ++n) {
    for (size_t p = 0; p < plane; ++p) {
      const size_t base = static_cast<size_t>(n) * channels_ * plane + p;
      const float inv_std = state.inv_std[static_cast<size_t>(n) * plane + p];
      // First pass: the two means the LayerNorm backward needs.
      float mean_g = 0.0f;       // mean_c(dy * gamma)
      float mean_g_xhat = 0.0f;  // mean_c(dy * gamma * xhat)
      for (int c = 0; c < channels_; ++c) {
        const size_t idx = base + static_cast<size_t>(c) * plane;
        const float dy = grad_output.data()[idx];
        const float xhat = state.cached_xhat.data()[idx];
        grad_beta[c] += dy;
        grad_gamma[c] += dy * xhat;
        const float g = dy * gamma[c];
        mean_g += g;
        mean_g_xhat += g * xhat;
      }
      mean_g *= inv_c;
      mean_g_xhat *= inv_c;
      for (int c = 0; c < channels_; ++c) {
        const size_t idx = base + static_cast<size_t>(c) * plane;
        const float dy = grad_output.data()[idx];
        const float xhat = state.cached_xhat.data()[idx];
        grad_input.data()[idx] =
            inv_std * (dy * gamma[c] - mean_g - xhat * mean_g_xhat);
      }
    }
  }
  return grad_input;
}

}  // namespace fedra
