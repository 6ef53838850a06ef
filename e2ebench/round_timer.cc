#include "round_timer.h"

#include <chrono>

namespace e2e {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RoundTimer::RoundTimer(fedra::SyncPolicy* inner, size_t snapshot_step)
    : inner_(inner), snapshot_step_(snapshot_step) {
  spans_.reserve(4096);
}

void RoundTimer::Initialize(fedra::ClusterContext& ctx) {
  inner_->Initialize(ctx);
}

bool RoundTimer::MaybeSync(fedra::ClusterContext& ctx) {
  if (snapshot_step_ > 0 && snapshot_.empty() && ctx.step >= snapshot_step_) {
    snapshot_.step = ctx.step;
    for (const fedra::WorkerState& worker : *ctx.workers) {
      snapshot_.params.emplace_back(worker.view.params,
                                    worker.view.params + ctx.dim);
    }
    snapshot_.sync_params = *ctx.sync_params;
  }
  RoundSpan span;
  span.enter_ns = NowNs();
  span.step = ctx.step;
  const bool synced = inner_->MaybeSync(ctx);
  span.exit_ns = NowNs();
  span.synced = synced;
  if (ctx.participation == nullptr) {
    span.participants = ctx.num_workers();
  } else {
    for (char p : *ctx.participation) {
      span.participants += p != 0 ? 1 : 0;
    }
  }
  spans_.push_back(span);
  return synced;
}

std::string RoundTimer::name() const { return inner_->name(); }

const char* RoundKindName(RoundKind kind) {
  switch (kind) {
    case RoundKind::kPlain:
      return "plain";
    case RoundKind::kSync:
      return "sync";
    case RoundKind::kRotation:
      return "rotation";
    case RoundKind::kEval:
      return "eval";
  }
  return "?";
}

std::vector<RoundSample> ClassifyRounds(const std::vector<RoundSpan>& spans,
                                        const fedra::TrainerConfig& config) {
  const size_t eval_every = config.eval_every_steps;
  const size_t cohort_steps =
      config.fleet_enabled() ? static_cast<size_t>(config.cohort_steps) : 0;
  std::vector<RoundSample> rounds;
  for (size_t i = 1; i < spans.size(); ++i) {
    const RoundSpan& prev = spans[i - 1];
    const RoundSpan& cur = spans[i];
    if (cur.step != prev.step + 1) {
      continue;  // a zero-participant round skipped MaybeSync
    }
    RoundSample sample;
    sample.ms = static_cast<double>(cur.enter_ns - prev.enter_ns) * 1e-6;
    if (eval_every > 0 && prev.step % eval_every == 0) {
      sample.kind = RoundKind::kEval;
    } else if (cohort_steps > 0 && prev.step % cohort_steps == 0) {
      sample.kind = RoundKind::kRotation;
    } else if (prev.synced) {
      sample.kind = RoundKind::kSync;
    }
    rounds.push_back(sample);
  }
  return rounds;
}

}  // namespace e2e
