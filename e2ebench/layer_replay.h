// Per-layer replay: times each module's public call at a workload's shapes,
// from the benchmark's own code (nothing in src/ is instrumented). The
// traced training run supplies how often each call ran; time per call x
// calls / traced wall time is the layer's share of the run.

#ifndef E2EBENCH_LAYER_REPLAY_H_
#define E2EBENCH_LAYER_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "round_timer.h"
#include "workloads.h"

namespace e2e {

/// How often each replayed call ran in the traced run.
struct LayerCounts {
  uint64_t worker_steps = 0;    // local steps over all workers and rounds
  uint64_t policy_calls = 0;    // MaybeSync calls
  uint64_t model_syncs = 0;     // MaybeSync calls that synced
  uint64_t monitored_states = 0;  // per-worker FDA state computations
  uint64_t compressed_deltas = 0;  // per-worker codec runs at syncs
  uint64_t check_ins = 0;       // fleet cohort swaps
  uint64_t eval_points = 0;     // test + train EvaluateSubset pairs
  int participants = 0;         // median workers per round
};

struct LayerTime {
  std::string name;  // e.g. "nn.forward_us"
  std::string unit;  // "us" or "ms"
  double per_call = 0.0;  // in `unit`
  uint64_t calls = 0;
  /// Counted in trace.coverage (a disjoint slice of the training loop).
  bool in_coverage = true;
};

/// Replays every layer's public call for `workload`, spending roughly
/// `budget_seconds` in total. Model-sized inputs come from `snapshot`, the
/// traced run's cohort mid-run. Calls the workload never makes report 0.
std::vector<LayerTime> ReplayLayers(const Workload& workload,
                                    const LayerCounts& counts,
                                    const ModelSnapshot& snapshot,
                                    double budget_seconds);

}  // namespace e2e

#endif  // E2EBENCH_LAYER_REPLAY_H_
