#include "core/fedopt_policy.h"

#include <algorithm>

#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

FedOptConfig FedOptConfig::FedAvgM(int local_epochs) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  // Paper §4.1: server momentum 0.9, lr 0.316 (following [42]).
  config.server_optimizer =
      OptimizerConfig::SgdMomentum(0.316f, 0.9f, /*nesterov=*/false);
  config.display_name = "FedAvgM";
  return config;
}

FedOptConfig FedOptConfig::FedAdam(int local_epochs, float server_lr) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  config.server_optimizer = OptimizerConfig::Adam(server_lr);
  config.display_name = "FedAdam";
  return config;
}

FedOptConfig FedOptConfig::FedAvg(int local_epochs) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  config.server_optimizer = OptimizerConfig::Sgd(1.0f);
  config.display_name = "FedAvg";
  return config;
}

FedOptPolicy::FedOptPolicy(FedOptConfig config)
    : config_(std::move(config)) {
  FEDRA_CHECK_GE(config_.local_epochs, 1);
}

void FedOptPolicy::Initialize(ClusterContext& ctx) {
  server_optimizer_ =
      Optimizer::Create(config_.server_optimizer, ctx.dim);
  pseudo_grad_.assign(ctx.dim, 0.0f);
  size_t steps_per_epoch = 1;
  for (auto& worker : *ctx.workers) {
    steps_per_epoch =
        std::max(steps_per_epoch, worker.sampler->steps_per_epoch());
  }
  steps_per_round_ =
      steps_per_epoch * static_cast<size_t>(config_.local_epochs);
}

bool FedOptPolicy::MaybeSync(ClusterContext& ctx) {
  if (ctx.steps_since_sync < steps_per_round_) {
    return false;
  }
  // One path for every round (a fault-free round has every worker
  // present): participants compute deltas from the round-start global
  // model w_global (held in ctx.sync_params), each contribution runs the
  // loss/retry gauntlet under faults, and the server averages whatever
  // arrived. Workers whose upload was dropped keep training on their local
  // model — they re-join the global trajectory at the next delivered round.
  // FedOpt already moves deltas, so a codec drops straight in: each
  // client's delta is coded (error feedback accumulates per worker) and
  // the round bills the compressed wire size, retries included.
  const bool compressed =
      ctx.compressor != nullptr && ctx.compressor->config().enabled();
  const size_t wire =
      compressed ? ctx.compressor->WireBytes(ctx.dim) : ctx.dim * sizeof(float);
  std::vector<int> delivered;
  std::vector<float*> deltas;
  std::vector<size_t> payload_bytes;
  for (int k : ctx.ActiveWorkers()) {
    WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
    vec::Sub(worker.view.params, ctx.sync_params->data(), worker.drift,
             ctx.dim);
    if (ctx.faults != nullptr) {
      const FaultInjector::Delivery outcome = ctx.faults->SampleDelivery();
      if (outcome.retries > 0) {
        ctx.network->AccountSyncRetriesBytes(
            k, wire, outcome.retries,
            ctx.faults->config().retry_backoff_seconds,
            TrafficClass::kModelSync);
      }
      if (!outcome.delivered) {
        // Dropped uploads never run the codec: the client's error-feedback
        // residual is untouched, as if it never attempted the round.
        ctx.network->AccountDroppedMessage();
        continue;
      }
    }
    payload_bytes.push_back(
        compressed ? ctx.compressor->CompressInPlace(k, worker.drift, ctx.dim)
                   : wire);
    delivered.push_back(k);
    deltas.push_back(worker.drift);
  }
  if (delivered.empty()) {
    // Every contribution was lost: the round still closes (the cadence is
    // wall-clock, not delivery-gated) but the global model stays put.
    ++ctx.skipped_syncs;
    ctx.steps_since_sync = 0;
    return false;
  }
  ctx.network->AllReduceAverageSubsetWithPayloads(
      deltas, delivered, ctx.dim, payload_bytes, TrafficClass::kModelSync);
  // Pseudo-gradient is the negated average delta (Reddi et al.); every
  // delivered worker replicates the deterministic server update.
  const float* avg_delta = deltas[0];
  for (size_t i = 0; i < ctx.dim; ++i) {
    pseudo_grad_[i] = -avg_delta[i];
  }
  *ctx.prev_sync_params = *ctx.sync_params;
  server_optimizer_->Step(ctx.sync_params->data(), pseudo_grad_.data(),
                          ctx.dim);
  for (int k : delivered) {
    WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
    vec::Copy(ctx.sync_params->data(), worker.view.params, ctx.dim);
    if (config_.reset_local_optimizer) {
      worker.optimizer->Reset();
    }
  }
  ctx.steps_since_sync = 0;
  ++ctx.sync_count;
  ++rounds_;
  return true;
}

}  // namespace fedra
