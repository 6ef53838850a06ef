// DistributedTrainer: the simulated federated training loop shared by every
// algorithm in the paper's evaluation.
//
// Per step t (paper Alg. 1 lines 2-9): every worker draws a mini-batch from
// its own shard, runs Optimize(w_k, B_k), and then the SyncPolicy decides
// whether (and how) to synchronize. Policies implement the full spectrum the
// paper compares: FDA variants (state AllReduce + conditional model sync),
// asynchronous FDA (paper §3.3), Synchronous/BSP (sync every step),
// Local-SGD schedules, and the FedOpt family (periodic server-optimizer
// rounds). The trainer owns the paper's two cost metrics: communication
// (bytes, via SimNetwork) and computation (In-Parallel Learning Steps).
//
// One loop, two schedules, chosen by the policy (SyncPolicy::
// event_ordered()). Setup, the fleet store, faults, rejoin re-anchoring,
// evaluation and the result are the same code for both:
//   lock-step      (default) one iteration is one BSP round: every up
//                  worker steps, the round costs the slowest worker's
//                  sampled time, and MaybeSync runs once.
//   event-ordered  one iteration is one event on a simulated clock: a
//                  worker's step completes (then MaybeSync runs for that
//                  worker alone), or a crashed worker's repair completes.
//                  Fast workers never wait for slow ones; an attempted sync
//                  stalls everyone for the collective's duration.
//
// Threading: each lock-step round's K worker steps run across
// GlobalThreadPool() (one ParallelFor per round; inline on a 1-thread
// pool). Workers own disjoint arena rows, their own rng/sampler streams
// and a leased execution slot of the shared graph, so the result is
// bit-identical for any FEDRA_NUM_THREADS (docs/determinism.md). The rest
// of a round — the policy, rotation, faults, evaluation — and the whole
// event-ordered schedule are driven from the calling thread; their
// collectives and kernels fan out over the same pool with fixed-chunk
// grains.

#ifndef FEDRA_CORE_TRAINER_H_
#define FEDRA_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/worker_arena.h"
#include "data/batching.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "nn/model.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sim/straggler.h"
#include "util/status.h"

namespace fedra {

/// Everything one simulated worker owns. The worker's model is a slice of
/// the cohort's WorkerArena (view/drift/state point into its slabs); the
/// layer graph itself is shared read-only across the whole cohort.
struct WorkerState {
  ParameterView view;  // w_k and its gradient: this worker's slab slices
  std::unique_ptr<Optimizer> optimizer;  // scalar state only; vectors live
                                         // in the arena's opt-state slab
  std::unique_ptr<BatchSampler> sampler;
  Rng rng;
  float* drift = nullptr;     // scratch: u_k = w_k - w_sync (arena slice)
  float* state = nullptr;     // monitor state S_k (arena slice, after
                              // ClusterContext::AllocateWorkerStates)
  double speed_factor = 1.0;  // straggler multiplier
  double last_loss = 0.0;
  size_t shard_size = 0;
};

/// Mutable view the SyncPolicy operates on each step.
struct ClusterContext {
  std::vector<WorkerState>* workers = nullptr;
  WorkerArena* arena = nullptr;
  SimNetwork* network = nullptr;
  size_t dim = 0;
  std::vector<float>* sync_params = nullptr;       // w_t0 (last sync)
  std::vector<float>* prev_sync_params = nullptr;  // w_t-1 (previous sync)
  /// Lock-step rounds completed (this one included), or worker steps
  /// completed on the event-ordered schedule.
  size_t step = 0;
  size_t steps_since_sync = 0;
  size_t sync_count = 0;
  /// Event-ordered schedule: the worker whose local step just completed,
  /// the one MaybeSync runs for. -1 on the lock-step schedule, where every
  /// participant stepped.
  int stepped_worker = -1;
  /// Optional sync compression (paper §2 compatibility); owned by trainer.
  SyncCompressor* compressor = nullptr;
  /// Fault layer (null for fault-free runs; owned by the trainer). Policies
  /// use it to bill message-loss retries on their own collectives.
  FaultInjector* faults = nullptr;
  /// The current round's participation mask (sync-eligible survivors), one
  /// char per worker; null means everyone participates. Policies must
  /// average and bill only over participants. On the event-ordered
  /// schedule it marks the live (not crashed) workers.
  const std::vector<char>* participation = nullptr;
  /// Syncs abandoned because no contribution survived message loss.
  uint64_t skipped_syncs = 0;
  /// Fleet mode (population > cohort): the paged client-state store the
  /// trainer rotates sampled clients through. Null for resident-cohort
  /// runs. FDA policies use it for the population-scale variance
  /// correction (ClientStateStore::PopulationEstimate).
  ClientStateStore* store = nullptr;
  /// The active policy's variance monitor, exposed by FDA policies in
  /// Initialize(); the trainer's check-out path uses it to fold departing
  /// clients' states into the store's off-cohort sum. Null for non-FDA
  /// policies (check-outs then store a zero state).
  VarianceMonitor* monitor = nullptr;

  int num_workers() const { return static_cast<int>(workers->size()); }

  /// Ids of the round's participants ({0..K-1} when participation is null).
  std::vector<int> ActiveWorkers() const;

  /// Parameter pointers of all workers: dim-strided rows of the arena's
  /// params slab (for collectives).
  std::vector<float*> ParamPointers();
  /// State-scratch pointers of all workers (arena state slab rows).
  std::vector<float*> StatePointers();

  /// Sizes the per-worker monitor-state scratch (one [K x state_size]
  /// arena slab) and wires every worker's `state` pointer. Policies call
  /// this from Initialize() once they know their monitor's StateSize().
  void AllocateWorkerStates(size_t state_size);

  /// Plain synchronization: AllReduce-average the participating worker
  /// models (all of them when `participation` is null), update the sync
  /// snapshots. Under fault injection each participant's contribution must
  /// additionally survive message loss — lost contributions are retried
  /// and billed, then dropped. Returns true when the synchronization
  /// happened (increments sync_count, resets steps_since_sync); false when
  /// every contribution was lost (the sync is skipped, counted in
  /// skipped_syncs, and all state carries forward).
  bool SynchronizeModels();
};

/// Decides when to synchronize and what the synchronization step does.
class SyncPolicy {
 public:
  virtual ~SyncPolicy() = default;

  /// Called once, after workers are set up and before the first step.
  virtual void Initialize(ClusterContext& ctx) { (void)ctx; }

  /// Called after every local update step. Implementations may use the
  /// network (FDA's state AllReduce) and/or call ctx.SynchronizeModels().
  /// Returns true if a model synchronization was performed this step.
  virtual bool MaybeSync(ClusterContext& ctx) = 0;

  virtual std::string name() const = 0;

  /// Picks the trainer's schedule: false (the default) runs lock-step
  /// rounds; true runs the event-ordered schedule, calling MaybeSync once
  /// per completed worker step with ctx.stepped_worker set.
  virtual bool event_ordered() const { return false; }
};

struct TrainerConfig {
  int num_workers = 4;          // K
  int batch_size = 32;          // b
  OptimizerConfig local_optimizer = OptimizerConfig::Adam();
  PartitionConfig partition = PartitionConfig::Iid();
  uint64_t seed = 17;

  /// Run until test accuracy >= accuracy_target (checked every
  /// eval_every_steps) or until max_steps in-parallel steps: max_steps
  /// lock-step rounds, or K * max_steps worker steps on the event-ordered
  /// schedule.
  double accuracy_target = 1.1;  // > 1 disables early stop
  size_t max_steps = 2000;
  size_t eval_every_steps = 0;   // 0 => once per local epoch
  size_t eval_subset = 1024;     // test samples per evaluation probe

  /// The single shared channel, used when `topology` is disabled.
  NetworkModel network = NetworkModel::Hpc();
  /// The AllReduce algorithm of the root tier (of the one shared channel
  /// on a single-tier network).
  AllReduceAlgorithm allreduce = AllReduceAlgorithm::kFlat;
  /// Multi-tier topology: the two-tier edge -> cloud layout
  /// (TopologyTree::EdgeCloud) or deeper trees (device -> site -> cloud).
  /// When enabled, collectives run the tree's recursive grouped schedule
  /// and `network` is ignored. Every leaf group needs at least one worker.
  TopologyTree topology;
  StragglerModel straggler = StragglerModel::None();
  /// Fault injection: worker churn, link outages, sync-message loss, and
  /// the round deadline (see sim/fault_model.h). Disabled by default; the
  /// disabled config keeps every trainer code path bit-identical to the
  /// fault-free build. The event-ordered schedule draws churn per completed
  /// step and rejects the round-scoped faults (link outages, deadline).
  FaultConfig faults;

  /// Lossy compression of the synchronization payload (paper §2: FDA only
  /// adjusts the *timing* of synchronization, so any payload compressor
  /// composes with it; savings multiply).
  CompressionConfig sync_compression = CompressionConfig::None();

  /// FedProx (Sahu et al., paper §2): proximal coefficient mu adds
  /// mu * (w_k - w_global) to every local gradient, pulling workers toward
  /// the last synchronized model. 0 disables.
  float fedprox_mu = 0.0f;

  // ------------------------------------------------------ cross-device --
  /// Simulated client population N. 0 (default) keeps the resident-cohort
  /// trainer: K workers own their arena rows for the whole run. When > 0
  /// the trainer becomes a fleet simulator: each round's cohort is sampled
  /// from the population and rotated through the K arena rows via the
  /// paged ClientStateStore. population == num_workers is bit-identical
  /// to the resident path (identity schedule, zero draws, no paging).
  size_t population = 0;
  /// Sampled cohort size C; 0 means num_workers. The current fleet maps
  /// one sampled client onto each arena row, so C must equal num_workers
  /// (and never exceed the topology's K resident leaf slots) — Validate
  /// rejects anything else with a Status.
  int cohort_size = 0;
  /// Rounds between cohort rotations on the lock-step schedule. >= 1; the
  /// event-ordered schedule rotates at every successful sync instead and
  /// rejects anything but 1.
  int cohort_steps = 1;
  /// How the CohortSampler picks each round's cohort. The event-ordered
  /// schedule samples uniformly and rejects kAvailability.
  CohortScheduleKind cohort_schedule = CohortScheduleKind::kUniform;

  bool fleet_enabled() const { return population > 0; }

  Status Validate() const;
};

/// Builds the SimNetwork a TrainerConfig describes: over `topology` when it
/// is enabled, over TopologyTree::SingleTier(network) otherwise.
SimNetwork MakeSimNetwork(const TrainerConfig& config);

/// One point of the training history (recorded at every evaluation).
struct EvalPoint {
  size_t step = 0;
  double epoch = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  uint64_t bytes = 0;
  uint64_t sync_count = 0;
  double sim_seconds = 0.0;
};

struct TrainResult {
  std::string algorithm;
  bool reached_target = false;
  // Costs at the first evaluation where test accuracy hit the target
  // (== totals when the target was never reached).
  size_t steps_to_target = 0;      // In-Parallel Learning Steps
  uint64_t bytes_to_target = 0;    // paper's Communication metric
  uint64_t syncs_to_target = 0;
  double sim_seconds_to_target = 0.0;
  // Final state.
  size_t total_steps = 0;
  uint64_t total_syncs = 0;
  double final_test_accuracy = 0.0;
  double final_train_accuracy = 0.0;
  CommStats comm;
  double compute_seconds = 0.0;    // simulated compute time: the sum of the
                                   // lock-step BSP barriers (0 on the
                                   // event-ordered schedule, whose clock
                                   // is sim_seconds_to_target)
  // Fault-layer outcome (all zero for fault-free configs).
  uint64_t rejoin_count = 0;             // catch-up syncs paid by rejoiners
  uint64_t zero_participant_rounds = 0;  // rounds with no sync-eligible
                                         // worker (sync skipped entirely)
  uint64_t skipped_syncs = 0;            // syncs abandoned after total
                                         // message loss
  std::vector<EvalPoint> history;

  double gigabytes_to_target() const {
    return static_cast<double>(bytes_to_target) / (1024.0 * 1024.0 * 1024.0);
  }
};

class DistributedTrainer {
 public:
  /// The factory is called once: it builds the single shared model whose
  /// graph every worker executes against (workers differ only in their
  /// arena slices) and whose buffers double as the evaluation model.
  DistributedTrainer(ModelFactory factory, Dataset train, Dataset test,
                     TrainerConfig config);

  /// Runs the loop under `policy`. Each call restarts from fresh weights
  /// and a fresh arena.
  StatusOr<TrainResult> Run(SyncPolicy* policy);

  /// Optionally pre-load initial weights (transfer learning: fine-tune from
  /// a pre-trained model instead of a random init).
  void SetInitialParams(std::vector<float> params);

  size_t model_dim() const { return dim_; }

  /// The trainer's one model instance: the cohort's shared layer graph plus
  /// the evaluation buffers. Exposed for tests and benches.
  Model& shared_model() { return *shared_model_; }

 private:
  void WorkerStep(WorkerState* worker, const Dataset& train);

  Dataset train_;
  Dataset test_;
  TrainerConfig config_;
  /// The one model instance of the trainer: shared layer graph + the
  /// buffers the evaluation average w_bar is materialized into.
  std::unique_ptr<Model> shared_model_;
  size_t dim_ = 0;
  std::vector<float> initial_params_;  // empty => random init from seed
  /// Valid only inside Run(): the last-synchronized global model FedProx's
  /// proximal term anchors to.
  const float* fedprox_anchor_ = nullptr;
};

}  // namespace fedra

#endif  // FEDRA_CORE_TRAINER_H_
