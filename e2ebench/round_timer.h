// RoundTimer: a pass-through SyncPolicy that times the trainer from outside.
//
// DistributedTrainer::Run calls SyncPolicy::MaybeSync exactly once per
// round (after the workers' local steps), so the interval between two
// consecutive MaybeSync entries is one round's wall time. The wrapper
// forwards Initialize/MaybeSync and their return values untouched; the
// benchmark's wrapper test proves a wrapped run's TrainResult is identical
// to an unwrapped one.

#ifndef E2EBENCH_ROUND_TIMER_H_
#define E2EBENCH_ROUND_TIMER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.h"

namespace e2e {

/// One MaybeSync call, in nanoseconds of steady_clock.
struct RoundSpan {
  size_t step = 0;
  int64_t enter_ns = 0;
  int64_t exit_ns = 0;
  bool synced = false;
  /// Workers taking part in the round (all K without a fault layer).
  int participants = 0;
};

/// The workers' models and the sync anchor as the policy saw them on entry
/// to one MaybeSync: real inputs for the per-layer replay.
struct ModelSnapshot {
  size_t step = 0;
  std::vector<std::vector<float>> params;  // one row per worker
  std::vector<float> sync_params;

  bool empty() const { return params.empty(); }
};

class RoundTimer : public fedra::SyncPolicy {
 public:
  /// `inner` must outlive the timer. A nonzero `snapshot_step` copies the
  /// cohort's models on entry to the first MaybeSync at or after that step
  /// (before timing it).
  explicit RoundTimer(fedra::SyncPolicy* inner, size_t snapshot_step = 0);

  void Initialize(fedra::ClusterContext& ctx) override;
  bool MaybeSync(fedra::ClusterContext& ctx) override;
  std::string name() const override;

  const std::vector<RoundSpan>& spans() const { return spans_; }
  const ModelSnapshot& snapshot() const { return snapshot_; }

 private:
  fedra::SyncPolicy* inner_;
  size_t snapshot_step_;
  std::vector<RoundSpan> spans_;
  ModelSnapshot snapshot_;
};

/// What ran between two consecutive MaybeSync entries besides the workers'
/// local steps: an evaluation probe, a cohort rotation, or a model sync.
enum class RoundKind { kPlain, kSync, kRotation, kEval };

const char* RoundKindName(RoundKind kind);

struct RoundSample {
  double ms = 0.0;
  RoundKind kind = RoundKind::kPlain;
};

/// Turns one run's spans into round samples: the interval ending at the
/// MaybeSync of step s is classified from `config`'s cadence (evaluation
/// after step s-1, fleet rotation before step s) and from whether step s-1
/// synced. Intervals across a skipped round are dropped.
std::vector<RoundSample> ClassifyRounds(const std::vector<RoundSpan>& spans,
                                        const fedra::TrainerConfig& config);

}  // namespace e2e

#endif  // E2EBENCH_ROUND_TIMER_H_
