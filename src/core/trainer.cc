#include "core/trainer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>

#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fedra {

std::vector<int> ClusterContext::ActiveWorkers() const {
  std::vector<int> active;
  active.reserve(workers->size());
  for (size_t k = 0; k < workers->size(); ++k) {
    if (participation == nullptr || (*participation)[k] != 0) {
      active.push_back(static_cast<int>(k));
    }
  }
  return active;
}

std::vector<float*> ClusterContext::ParamPointers() {
  return arena->ParamPointers();
}

std::vector<float*> ClusterContext::StatePointers() {
  return arena->StatePointers();
}

void ClusterContext::AllocateWorkerStates(size_t state_size) {
  arena->AllocateStateScratch(state_size);
  for (size_t k = 0; k < workers->size(); ++k) {
    (*workers)[k].state = arena->state(static_cast<int>(k));
  }
}

bool ClusterContext::SynchronizeModels() {
  if (arena != nullptr) {
    // Debug guard: sweep the slab canaries every sync so an out-of-row
    // write earlier in the round aborts here, naming the damaged slab,
    // instead of silently biasing the average. Free in Release builds
    // (guards_enabled() is constexpr false and the sweep folds away).
    arena->CheckCanaries();
  }
  // One path for every round: a full round is the subset round with every
  // worker present. Under fault injection each participant's contribution
  // must also survive message loss — lost contributions are retried at
  // their wire size, then dropped. Absent and dropped workers keep their
  // local models and re-converge via later rounds (or a rejoin catch-up).
  const bool coded = compressor != nullptr && compressor->config().enabled();
  const size_t wire = coded ? compressor->WireBytes(dim) : dim * sizeof(float);
  std::vector<int> delivered;
  delivered.reserve(workers->size());
  for (int k : ActiveWorkers()) {
    if (faults != nullptr) {
      const FaultInjector::Delivery delivery = faults->SampleDelivery();
      if (delivery.retries > 0) {
        network->AccountSyncRetriesBytes(
            k, wire, delivery.retries,
            faults->config().retry_backoff_seconds, TrafficClass::kModelSync);
      }
      if (!delivery.delivered) {
        network->AccountDroppedMessage();
        continue;
      }
    }
    delivered.push_back(k);
  }
  if (delivered.empty()) {
    // Zero-survivor guard: skip the sync entirely; the snapshots stay put
    // and every worker carries its state forward.
    ++skipped_syncs;
    FEDRA_LOG(WARNING) << "model sync skipped at step " << step
                       << ": no contribution survived";
    return false;
  }
  // A codec ships lossy deltas from w_t0 instead of full models, billed at
  // each worker's actual wire size (variable-rate codecs differ per
  // worker). Dropped workers never compress, so their error-feedback
  // residual is untouched.
  std::vector<float*> buffers(delivered.size());
  std::vector<size_t> payload_bytes(delivered.size(), wire);
  for (size_t i = 0; i < delivered.size(); ++i) {
    WorkerState& worker = (*workers)[static_cast<size_t>(delivered[i])];
    buffers[i] = worker.view.params;
    if (coded) {
      vec::Sub(worker.view.params, sync_params->data(), worker.drift, dim);
      payload_bytes[i] =
          compressor->CompressInPlace(delivered[i], worker.drift, dim);
      buffers[i] = worker.drift;
    }
  }
  network->AllReduceAverageSubsetWithPayloads(
      buffers, delivered, dim, payload_bytes, TrafficClass::kModelSync);
  // Rotate the sync snapshots: w_t-1 <- w_t0, w_t0 <- new average.
  *prev_sync_params = *sync_params;
  if (coded) {
    // New global = w_t0 + mean decompressed delta, installed into the
    // contributors.
    vec::Axpy(1.0f, buffers[0], sync_params->data(), dim);
    for (int k : delivered) {
      vec::Copy(sync_params->data(),
                (*workers)[static_cast<size_t>(k)].view.params, dim);
    }
  } else {
    vec::Copy(buffers[0], sync_params->data(), dim);
  }
  steps_since_sync = 0;
  ++sync_count;
  return true;
}

namespace {

/// Re-anchors a worker that rejoined after a crash: its parameters become
/// the last synchronized model, and its gradient, drift, optimizer-state
/// (Optimizer::Reset), and monitor-state arena slices are zeroed. The
/// caller bills the catch-up model download.
void ReanchorRejoinedWorker(WorkerArena* arena, WorkerState* worker,
                            const float* sync_params, size_t dim) {
  vec::Copy(sync_params, worker->view.params, dim);
  vec::Fill(worker->view.grads, dim, 0.0f);
  vec::Fill(worker->drift, dim, 0.0f);
  // Stale momentum/Adam moments would drag the fresh model toward the
  // crashed trajectory; Reset re-zeroes the arena-backed slots.
  worker->optimizer->Reset();
  if (worker->state != nullptr && arena->has_state_scratch()) {
    vec::Fill(worker->state, arena->state_size(), 0.0f);
  }
}

/// Mutable fleet bookkeeping while population > 0: the store, the sampler,
/// the current slot -> client assignment, and the per-rotation swap
/// markers the rejoin path consults.
struct FleetState {
  ClientStateStore* store = nullptr;
  CohortSampler* sampler = nullptr;
  /// The K data shards; client c trains on shard c % K (identity at
  /// population == K, so resident configs keep their exact partitions).
  const std::vector<std::vector<size_t>>* shards = nullptr;
  /// Compressed-sync state (null without compression): rotation pages each
  /// slot's error-feedback residual out to the departing client and in
  /// from the arriving one, so compression memory follows the client.
  SyncCompressor* compressor = nullptr;
  std::vector<uint32_t> cohort;        // slot -> client id
  std::map<uint32_t, int> resident_slot;  // client id -> slot
  std::vector<char> just_swapped;      // slot freshly checked in this round
  uint64_t rotations = 0;

  bool enabled() const { return store != nullptr; }
  /// Resident slot of `client`, or -1.
  int SlotOfClient(uint32_t client) const {
    auto it = resident_slot.find(client);
    return it == resident_slot.end() ? -1 : it->second;
  }
};

/// Rotates the resident cohort to `sampled` (one client per slot): sticky
/// occupants are untouched (no float roundtrip — the bit-identity
/// contract), departing occupants are checked out into the store, and
/// arrivals are checked in (params = anchor + stored drift, optimizer
/// vectors + step count restored, sampler/worker rng streams resumed) with
/// the model download billed via SimNetwork::AccountCheckInSync. An
/// arrival's monitor-state row is left as it is: lock-step policies
/// recompute every participant's state before reading it, and the
/// event-ordered coordinator has just cleared its view at the sync that
/// triggered the rotation. `initial` marks the first rotation, where slots
/// hold BuildWorkerCohort's seeded clients 0..K-1: sticky slots are
/// adopted into the store and nothing is billed (the broadcast already
/// paid).
void RotateFleetCohort(const TrainerConfig& config,
                       const std::vector<uint32_t>& sampled,
                       FleetState* fleet, std::vector<WorkerState>* workers,
                       WorkerArena* arena, SimNetwork* network,
                       const float* anchor, VarianceMonitor* monitor,
                       bool initial) {
  FEDRA_CHECK_EQ(sampled.size(), workers->size());
  const size_t dim = arena->dim();
  fleet->just_swapped.assign(workers->size(), 0);
  // Phase 1: check out every occupant whose slot assignment changed —
  // including clients merely moving to another slot of their leaf group;
  // their state round-trips through the store so phase 2 can restore it
  // into the new row. All check-outs complete before any check-in reads.
  for (size_t k = 0; k < workers->size(); ++k) {
    if (sampled[k] == fleet->cohort[k]) {
      if (initial) {
        // BuildWorkerCohort already seeded this slot with client k: adopt
        // the warm entry without any float roundtrip or billing — the
        // population == K bit-identity path.
        fleet->store->AdoptInitialResident(sampled[k]);
        fleet->resident_slot.emplace(sampled[k], static_cast<int>(k));
      }
      continue;  // sticky occupant
    }
    if (!initial) {
      WorkerState& worker = (*workers)[k];
      fleet->store->CheckOut(
          fleet->cohort[k], worker.view.params, anchor,
          arena->opt_state(static_cast<int>(k)), worker.sampler->rng(),
          worker.rng, worker.optimizer->step_count(),
          worker.sampler->steps(), monitor,
          fleet->compressor != nullptr
              ? fleet->compressor->ResidualData(static_cast<int>(k))
              : nullptr);
      fleet->resident_slot.erase(fleet->cohort[k]);
    }
  }
  // Phase 2: check the arrivals in.
  for (size_t k = 0; k < workers->size(); ++k) {
    const uint32_t incoming = sampled[k];
    if (incoming == fleet->cohort[k]) {
      continue;
    }
    WorkerState& worker = (*workers)[k];
    // Reset first: it zeroes the arena's moment rows and the scalar step
    // count, which CheckIn then overwrites with the stored values.
    worker.optimizer->Reset();
    const ClientStateStore::CheckInResult in = fleet->store->CheckIn(
        incoming, anchor, worker.view.params,
        arena->opt_state(static_cast<int>(k)), /*state_out=*/nullptr,
        fleet->compressor != nullptr
            ? fleet->compressor->ResidualData(static_cast<int>(k))
            : nullptr);
    worker.optimizer->set_step_count(in.optimizer_steps);
    worker.sampler = std::make_unique<BatchSampler>(
        (*fleet->shards)[incoming % fleet->shards->size()],
        config.batch_size, in.sampler_rng);
    worker.rng = in.worker_rng;
    worker.shard_size = worker.sampler->dataset_size();
    vec::Fill(worker.view.grads, dim, 0.0f);
    vec::Fill(worker.drift, dim, 0.0f);
    if (!initial) {
      // The fresh participant downloads the current global model to
      // re-anchor; the initial distribution is not billed, matching the
      // resident path's unbilled first broadcast.
      network->AccountCheckInSync(dim, static_cast<int>(k));
    }
    fleet->cohort[k] = incoming;
    fleet->resident_slot[incoming] = static_cast<int>(k);
    fleet->just_swapped[k] = 1;
  }
  ++fleet->rotations;
}

/// Feeds the workers' persistent straggler speed factors into the
/// network's slowest-link collective cost (clamped to >= 1: factors are
/// slowdowns); all-ones factors (no stragglers) keep the homogeneous cost
/// bit-identical.
void SetLinkFactorsFromWorkers(const std::vector<WorkerState>& workers,
                               SimNetwork* network) {
  std::vector<double> link_factors(workers.size());
  for (size_t k = 0; k < workers.size(); ++k) {
    link_factors[k] = std::max(1.0, workers[k].speed_factor);
  }
  network->SetWorkerLinkFactors(std::move(link_factors));
}

/// Builds the worker cohort over `arena` against the shared `graph`:
/// partitions `train`, wires every worker's slab slices (view, drift, and
/// — when the arena's monitor-state scratch is already allocated — state),
/// creates arena-backed optimizers and per-worker sampler/rng forks
/// (sampler fork k+1, worker rng fork k+1000, straggler fork 101), and
/// initializes worker 0 from `initial_params` (or the graph's seeded init
/// when empty) before broadcasting it to every slice. `straggler_rng_out`
/// (optional) receives the straggler stream *after* the per-worker factor
/// draws: the event-ordered schedule samples step durations from that
/// exact continuation.
Status BuildWorkerCohort(const TrainerConfig& config, const Dataset& train,
                         ModelGraph& graph,
                         const std::vector<float>& initial_params,
                         WorkerArena* arena,
                         std::vector<WorkerState>* workers,
                         Rng* straggler_rng_out) {
  auto partition =
      PartitionDataset(train.labels(), config.num_workers, config.partition);
  if (!partition.ok()) {
    return partition.status();
  }
  Rng master(config.seed);
  // Fork id 101 is shared by both schedules so the persistent per-worker
  // speed factors are identical across lock-step and event-ordered runs of
  // one seed (fair sync-vs-async straggler comparisons).
  Rng straggler_rng = master.Fork(101);
  const size_t dim = graph.dim();

  workers->clear();
  workers->resize(static_cast<size_t>(config.num_workers));
  for (int k = 0; k < config.num_workers; ++k) {
    WorkerState& worker = (*workers)[static_cast<size_t>(k)];
    worker.view = arena->view(k);
    if (k == 0) {
      if (initial_params.empty()) {
        graph.InitParams(config.seed, worker.view);
      } else {
        vec::Copy(initial_params.data(), worker.view.params, dim);
      }
    } else {
      vec::Copy(arena->params(0), worker.view.params, dim);
    }
    worker.optimizer = Optimizer::Create(config.local_optimizer, dim,
                                         arena->opt_state(k));
    worker.sampler = std::make_unique<BatchSampler>(
        std::move(partition.value()[static_cast<size_t>(k)]),
        config.batch_size, master.Fork(static_cast<uint64_t>(k) + 1));
    worker.rng = master.Fork(static_cast<uint64_t>(k) + 1000);
    worker.drift = arena->drift(k);
    if (arena->has_state_scratch()) {
      worker.state = arena->state(k);
    }
    worker.shard_size = worker.sampler->dataset_size();
    worker.speed_factor =
        config.straggler.SampleWorkerFactor(&straggler_rng);
  }
  if (straggler_rng_out != nullptr) {
    *straggler_rng_out = straggler_rng;
  }
  return Status::Ok();
}

/// One entry of the event-ordered schedule's queue: a worker's next step
/// completion, or its repair completion after a crash.
struct StepEvent {
  double time = 0.0;
  int worker = 0;
  bool rejoin = false;
  bool operator>(const StepEvent& other) const { return time > other.time; }
};

}  // namespace

SimNetwork MakeSimNetwork(const TrainerConfig& config) {
  return SimNetwork(config.num_workers,
                    config.topology.enabled()
                        ? config.topology
                        : TopologyTree::SingleTier(config.network),
                    config.allreduce);
}

Status TrainerConfig::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (max_steps == 0) {
    return Status::InvalidArgument("max_steps must be > 0");
  }
  if (fedprox_mu < 0.0f) {
    return Status::InvalidArgument("fedprox_mu must be >= 0");
  }
  if (topology.enabled()) {
    FEDRA_RETURN_IF_ERROR(topology.Validate());
    if (topology.num_leaf_groups() > num_workers) {
      return Status::InvalidArgument(StrFormat(
          "topology has %d leaf groups but num_workers is %d: every leaf "
          "group needs a worker",
          topology.num_leaf_groups(), num_workers));
    }
  }
  FEDRA_RETURN_IF_ERROR(local_optimizer.Validate());
  FEDRA_RETURN_IF_ERROR(partition.Validate());
  FEDRA_RETURN_IF_ERROR(sync_compression.Validate());
  FEDRA_RETURN_IF_ERROR(faults.Validate());
  if (population == 0) {
    if (cohort_size != 0) {
      return Status::InvalidArgument(
          "cohort_size requires population > 0 (fleet mode)");
    }
  } else {
    if (cohort_steps < 1) {
      return Status::InvalidArgument(StrFormat(
          "cohort_steps must be >= 1, got %d", cohort_steps));
    }
    const size_t cohort = cohort_size > 0
                              ? static_cast<size_t>(cohort_size)
                              : static_cast<size_t>(num_workers);
    if (cohort > population) {
      return Status::InvalidArgument(StrFormat(
          "cohort_size (%zu) must not exceed population (%zu)", cohort,
          population));
    }
    if (cohort > static_cast<size_t>(num_workers)) {
      return Status::InvalidArgument(StrFormat(
          "cohort_size (%zu) exceeds the topology's leaf capacity: the "
          "tree lays out %d resident worker slots (num_workers) over its "
          "leaf groups",
          cohort, num_workers));
    }
    if (cohort < static_cast<size_t>(num_workers)) {
      return Status::InvalidArgument(StrFormat(
          "cohort_size (%zu) must equal num_workers (%d): the fleet maps "
          "one sampled client onto each resident arena row",
          cohort, num_workers));
    }
  }
  return Status::Ok();
}

DistributedTrainer::DistributedTrainer(ModelFactory factory, Dataset train,
                                       Dataset test, TrainerConfig config)
    : train_(std::move(train)),
      test_(std::move(test)),
      config_(std::move(config)) {
  FEDRA_CHECK(factory != nullptr);
  shared_model_ = factory();
  FEDRA_CHECK(shared_model_ != nullptr);
  dim_ = shared_model_->num_params();
}

void DistributedTrainer::SetInitialParams(std::vector<float> params) {
  FEDRA_CHECK_EQ(params.size(), dim_);
  initial_params_ = std::move(params);
}

void DistributedTrainer::WorkerStep(WorkerState* worker,
                                    const Dataset& train) {
  const std::vector<size_t>& batch = worker->sampler->NextBatch();
  Tensor images = train.GatherImages(batch);
  std::vector<int> labels = train.GatherLabels(batch);
  vec::Fill(worker->view.grads, dim_, 0.0f);
  ModelGraph& graph = shared_model_->graph();
  ModelGraph::ExecSlot slot = graph.AcquireSlot();
  Tensor logits = graph.Forward(images, worker->view, slot,
                                /*training=*/true, &worker->rng);
  LossResult loss = SoftmaxCrossEntropy(logits, labels);
  graph.Backward(loss.grad_logits, worker->view, slot);
  if (config_.fedprox_mu > 0.0f && fedprox_anchor_ != nullptr) {
    // FedProx: + mu * (w_k - w_global) on every local gradient, fused into
    // one pass over the model span.
    vec::AddScaledDiff(config_.fedprox_mu, worker->view.params,
                       fedprox_anchor_, worker->view.grads, dim_);
  }
  worker->optimizer->Step(worker->view.params, worker->view.grads, dim_);
  worker->last_loss = loss.loss;
}

StatusOr<TrainResult> DistributedTrainer::Run(SyncPolicy* policy) {
  FEDRA_CHECK(policy != nullptr);
  FEDRA_RETURN_IF_ERROR(config_.Validate());
  const bool event_ordered = policy->event_ordered();
  if (event_ordered) {
    // Link outages and the deadline are defined per BSP round; events have
    // no round to scope them to.
    if (config_.faults.link_mttf_rounds > 0.0) {
      return Status::InvalidArgument(
          "faults.link_mttf_rounds is round-scoped: the event-ordered "
          "schedule has no rounds");
    }
    if (config_.faults.round_deadline_seconds > 0.0) {
      return Status::InvalidArgument(
          "faults.round_deadline_seconds is round-scoped: the event-ordered "
          "schedule has no rounds");
    }
    // The cohort rotates after every successful sync, sampled uniformly:
    // availability weighting reads the round-scoped up/down chains, and a
    // rotation period counts rounds.
    if (config_.cohort_schedule == CohortScheduleKind::kAvailability) {
      return Status::InvalidArgument(
          "cohort_schedule = kAvailability reads round-scoped availability: "
          "the event-ordered schedule has no rounds");
    }
    if (config_.cohort_steps != 1) {
      return Status::InvalidArgument(StrFormat(
          "cohort_steps (%d) counts rounds: the event-ordered schedule "
          "rotates the cohort after every successful sync",
          config_.cohort_steps));
    }
  }

  std::vector<WorkerState> workers;
  SimNetwork network = MakeSimNetwork(config_);
  // The fault and fleet layers group workers by leaf only on a configured
  // topology; on a single-tier network every worker keeps its own link.
  const TopologyTree* leaf_layout =
      config_.topology.enabled() ? &network.tree() : nullptr;
  // One params slab + one grads slab + one optimizer-state slab for the
  // whole cohort; the shared layer graph lives in shared_model_.
  WorkerArena arena(config_.num_workers, dim_,
                    config_.local_optimizer.StateSlots());
  // Step times: lock-step barriers draw from their own stream; events draw
  // from the straggler fork's continuation after the speed factors.
  Rng straggler_rng(config_.seed ^ 0xbeefULL);
  FEDRA_RETURN_IF_ERROR(BuildWorkerCohort(
      config_, train_, shared_model_->graph(), initial_params_, &arena,
      &workers, event_ordered ? &straggler_rng : nullptr));
  auto sample_step_seconds = [&](size_t k) {
    return config_.straggler.SampleStepSeconds(workers[k].speed_factor,
                                               &straggler_rng);
  };

  // Straggler-aware collective cost: a persistently slow worker also paces
  // the collectives it participates in (slowest-link formula).
  SetLinkFactorsFromWorkers(workers, &network);

  std::vector<float> sync_params(dim_);
  std::vector<float> prev_sync_params(dim_);
  vec::Copy(workers[0].view.params, sync_params.data(), dim_);
  vec::Copy(workers[0].view.params, prev_sync_params.data(), dim_);

  ClusterContext ctx;
  ctx.workers = &workers;
  ctx.arena = &arena;
  ctx.network = &network;
  ctx.dim = dim_;
  ctx.sync_params = &sync_params;
  ctx.prev_sync_params = &prev_sync_params;
  std::unique_ptr<SyncCompressor> compressor;
  if (config_.sync_compression.enabled()) {
    compressor = std::make_unique<SyncCompressor>(
        config_.sync_compression, dim_, config_.num_workers);
    // Layer-wise selective sync (kLayerTopK) masks within each ModelGraph
    // parameter block; feed the block offsets so every layer keeps its own
    // top coordinates.
    const ParameterStore& param_store = shared_model_->store();
    std::vector<size_t> layer_offsets;
    layer_offsets.reserve(param_store.num_blocks());
    for (size_t b = 0; b < param_store.num_blocks(); ++b) {
      layer_offsets.push_back(param_store.block(b).offset);
    }
    compressor->SetLayerOffsets(layer_offsets, dim_);
    ctx.compressor = compressor.get();
  }
  // Fleet mode: the paged client store, the cohort sampler, and the K
  // data shards (client c trains on shard c % K). The resident-cohort
  // path (population == 0) never constructs any of it.
  std::unique_ptr<ClientStateStore> store;
  std::unique_ptr<CohortSampler> cohort_sampler;
  FleetState fleet;
  std::vector<std::vector<size_t>> fleet_shards;
  if (config_.fleet_enabled()) {
    ClientStoreConfig store_config;
    store_config.population = config_.population;
    store_config.cohort_slots = config_.num_workers;
    store_config.dim = dim_;
    store_config.opt_state_slots = config_.local_optimizer.StateSlots();
    store_config.seed = config_.seed;
    store = std::make_unique<ClientStateStore>(store_config, leaf_layout);
    cohort_sampler = std::make_unique<CohortSampler>(
        store.get(), config_.cohort_schedule, config_.seed);
    auto shards = PartitionDataset(train_.labels(), config_.num_workers,
                                   config_.partition);
    if (!shards.ok()) {
      return shards.status();
    }
    fleet_shards = std::move(shards).value();
    fleet.store = store.get();
    fleet.sampler = cohort_sampler.get();
    fleet.shards = &fleet_shards;
    // Compressed fleet: the per-slot error-feedback residuals become
    // per-client pages, checked out/in alongside drift and optimizer
    // state (the rotation path below).
    fleet.compressor = compressor.get();
    fleet.cohort.resize(workers.size());
    for (size_t k = 0; k < workers.size(); ++k) {
      fleet.cohort[k] = static_cast<uint32_t>(k);
    }
    fleet.just_swapped.assign(workers.size(), 0);
    ctx.store = store.get();
  }
  // Fault layer: a disabled config leaves injector null and every code
  // path below on its exact fault-free route (bit-identical goldens).
  // `up` is each slot's liveness: the injector's chains on the lock-step
  // schedule, the per-event crash and repair draws on the event-ordered
  // one (which also hands it to the policy as the participation mask).
  std::unique_ptr<FaultInjector> injector;
  std::vector<char> up(workers.size(), 1);
  std::vector<char> participation;
  std::vector<double> step_times;
  if (config_.faults.enabled()) {
    if (config_.fleet_enabled() && !event_ordered) {
      // The chains run over the whole population: a client can crash and
      // repair while off-cohort. Link outages group clients by their home
      // leaf (flat topologies give every client its own link). With
      // population == K this mapping equals the resident constructors'
      // and the chains are bit-identical. The event-ordered schedule never
      // advances the chains — its hooks (SampleCrash, SampleRepairRounds,
      // SampleDelivery) draw from the injector's one forked stream and the
      // constructor draws nothing — so it keeps the resident-sized injector
      // below whatever the population.
      std::vector<int> client_links(config_.population);
      int num_links;
      if (leaf_layout != nullptr) {
        num_links = leaf_layout->num_leaf_groups();
        for (size_t c = 0; c < config_.population; ++c) {
          client_links[c] =
              store->LeafGroupOfClient(static_cast<uint32_t>(c));
        }
      } else {
        num_links = static_cast<int>(config_.population);
        for (size_t c = 0; c < config_.population; ++c) {
          client_links[c] = static_cast<int>(c);
        }
      }
      injector = std::make_unique<FaultInjector>(
          config_.faults, static_cast<int>(config_.population),
          config_.seed, std::move(client_links), num_links);
    } else {
      injector = std::make_unique<FaultInjector>(
          config_.faults, config_.num_workers, config_.seed, leaf_layout);
    }
    ctx.faults = injector.get();
    if (event_ordered) {
      ctx.participation = &up;
    } else {
      participation.assign(workers.size(), 1);
      ctx.participation = &participation;
      step_times.resize(workers.size());
    }
  }
  fedprox_anchor_ = sync_params.data();
  policy->Initialize(ctx);
  if (store != nullptr) {
    // The policy's Initialize sized the arena's monitor-state scratch (FDA
    // families) or left it absent; the store's pages mirror that layout.
    store->SetStateSize(arena.has_state_scratch() ? arena.state_size() : 0);
    // Error-feedback residuals are per-*client* state under rotation: size
    // the pages' residual segment when compressed sync carries memory.
    store->SetResidualSize(
        compressor != nullptr && compressor->has_residuals() ? dim_ : 0);
  }

  // The fault entity of slot k: the resident client in fleet mode, the
  // worker itself otherwise.
  auto entity_of = [&](size_t k) {
    return fleet.enabled() ? static_cast<int>(fleet.cohort[k])
                           : static_cast<int>(k);
  };
  // Rotates the cohort to the sampler's next pick against the current
  // anchor (round 0 seeds the resident set).
  auto rotate_cohort = [&](uint64_t round, const FaultInjector* faults,
                           bool initial) {
    const std::vector<uint32_t> sampled =
        fleet.sampler->Sample(round, faults);
    RotateFleetCohort(config_, sampled, &fleet, &workers, &arena, &network,
                      sync_params.data(), ctx.monitor, initial);
  };
  TrainResult result;
  result.algorithm = policy->name();
  // A rejoiner downloads the last synchronized model (billed catch-up
  // sync) and restarts from zeroed drift/optimizer/monitor state.
  auto rejoin = [&](int k) {
    network.AccountCatchUpSync(dim_, k);
    ReanchorRejoinedWorker(&arena, &workers[static_cast<size_t>(k)],
                           sync_params.data(), dim_);
    if (compressor != nullptr) {
      // A rejoiner restarts exactly on the global model; stale
      // compression memory would re-inject its crashed trajectory.
      compressor->ResetWorker(k);
    }
    ++result.rejoin_count;
  };

  // The event-ordered schedule: one pending event per worker on a
  // simulated clock. Its cohort is seeded up front and rotates at every
  // successful sync, sampled uniformly (Run rejects the round-scoped
  // availability schedule and cohort_steps).
  std::priority_queue<StepEvent, std::vector<StepEvent>,
                      std::greater<StepEvent>>
      events;
  double clock = 0.0;
  if (event_ordered) {
    if (fleet.enabled()) {
      rotate_cohort(/*round=*/0, /*faults=*/nullptr, /*initial=*/true);
    }
    for (size_t k = 0; k < workers.size(); ++k) {
      events.push({sample_step_seconds(k), static_cast<int>(k)});
    }
  }

  // The evaluation model holds the average of the worker models — the
  // global model w_bar the paper's methodology evaluates. Averaging for
  // *measurement* does not transit the simulated network but runs on the
  // same parallel reduction engine as the collectives. The shared model's
  // own buffers serve as the evaluation buffers; its graph is the one the
  // workers execute against.
  Model* eval_model = shared_model_.get();
  std::vector<const float*> eval_srcs(workers.size());
  auto refresh_eval_model = [&] {
    // Down workers hold stale parameters; w_bar averages the live fleet
    // (everyone, for fault-free runs). With the whole fleet down, the last
    // synchronized model is the only meaningful global state.
    size_t live = 0;
    for (size_t k = 0; k < workers.size(); ++k) {
      if (up[k] != 0) {
        eval_srcs[live++] = workers[k].view.params;
      }
    }
    if (live == 0) {
      vec::Copy(sync_params.data(), eval_model->params(), dim_);
      return;
    }
    ReduceMeanInto(eval_srcs.data(), live, dim_, eval_model->params());
  };
  auto sim_seconds = [&] {
    return event_ordered ? clock
                         : result.compute_seconds +
                               network.stats().comm_seconds;
  };

  // `step` counts lock-step rounds, or completed worker steps on the
  // event-ordered schedule, where K of them make one in-parallel step.
  const size_t steps_per_round = event_ordered ? workers.size() : 1;
  const size_t steps_per_epoch = std::max<size_t>(
      1, workers[0].sampler->steps_per_epoch());
  const size_t eval_every = (config_.eval_every_steps > 0
                                 ? config_.eval_every_steps
                                 : steps_per_epoch) *
                            steps_per_round;
  size_t next_eval = eval_every;
  size_t step = 0;

  while (step < config_.max_steps * steps_per_round) {
    if (event_ordered) {
      FEDRA_CHECK(!events.empty());
      const StepEvent event = events.top();
      events.pop();
      // max(): a pending repair can predate the clock after a sync stall.
      clock = std::max(clock, event.time);
      const int w = event.worker;
      const size_t slot = static_cast<size_t>(w);
      if (event.rejoin) {
        // Repair completes: the worker re-anchors and resumes stepping at
        // its own pace.
        up[slot] = 1;
        rejoin(w);
        events.push({clock + sample_step_seconds(slot), w});
        continue;
      }
      WorkerStep(&workers[slot], train_);
      ++step;
      ctx.step = step;
      ++ctx.steps_since_sync;
      if (injector != nullptr && injector->SampleCrash()) {
        // The worker dies at step completion: nothing is uploaded, its
        // params go stale, and the repair timer starts now — a geometric
        // number (mean worker_mttr_rounds) of its own typical step times.
        up[slot] = 0;
        const double repair = injector->SampleRepairRounds() *
                              config_.straggler.base_step_seconds *
                              workers[slot].speed_factor;
        events.push({clock + repair, w, /*rejoin=*/true});
        continue;
      }
      ctx.stepped_worker = w;
      const uint64_t attempts = ctx.sync_count + ctx.skipped_syncs;
      const bool synced = policy->MaybeSync(ctx);
      if (ctx.sync_count + ctx.skipped_syncs == attempts) {
        events.push({clock + sample_step_seconds(slot), w});
      } else {
        if (synced && fleet.enabled()) {
          // Rotate against the fresh anchor: departing clients park their
          // post-sync drift in the store, arrivals bill a check-in.
          rotate_cohort(fleet.rotations, /*faults=*/nullptr,
                        /*initial=*/false);
        }
        // An attempted sync stalls everyone, lost or not: all in-flight
        // compute is abandoned and re-queued after the collective's
        // duration on the configured topology; pending repairs survive.
        clock += network.ModelSyncSeconds(
            compressor != nullptr ? compressor->WireBytes(dim_)
                                  : dim_ * sizeof(float));
        std::vector<StepEvent> rejoins;
        while (!events.empty()) {
          if (events.top().rejoin) {
            rejoins.push_back(events.top());
          }
          events.pop();
        }
        for (const StepEvent& pending : rejoins) {
          events.push(pending);
        }
        for (size_t k = 0; k < workers.size(); ++k) {
          if (up[k] != 0) {
            events.push({clock + sample_step_seconds(k),
                         static_cast<int>(k)});
          }
        }
      }
    } else {
      ++step;
      ctx.step = step;
      ++ctx.steps_since_sync;
      if (injector != nullptr) {
        // Advance the fault chains first: the availability-weighted
        // sampler reads this round's up-state.
        injector->BeginRound();
      }
      if (fleet.enabled()) {
        if ((step - 1) % static_cast<size_t>(config_.cohort_steps) == 0) {
          rotate_cohort((step - 1) / static_cast<size_t>(config_.cohort_steps),
                        injector.get(), /*initial=*/step == 1);
        } else {
          std::fill(fleet.just_swapped.begin(), fleet.just_swapped.end(), 0);
        }
      }
      if (injector != nullptr) {
        // Re-anchor this round's rejoiners. In fleet mode a rejoiner only
        // pays while resident; a freshly checked-in slot already
        // re-anchored (and billed) through the store, and an off-cohort
        // rejoiner's stored state simply waits to be sampled.
        for (int c : injector->rejoined()) {
          int k = c;
          if (fleet.enabled()) {
            k = fleet.SlotOfClient(static_cast<uint32_t>(c));
            if (k < 0 || fleet.just_swapped[static_cast<size_t>(k)] != 0) {
              continue;
            }
          }
          rejoin(k);
        }
        for (size_t k = 0; k < workers.size(); ++k) {
          up[k] = injector->IsUp(entity_of(k)) ? 1 : 0;
        }
      }

      // The round's K local steps run across the pool (inline on a
      // 1-thread pool); crashed workers compute nothing this round.
      GlobalThreadPool().ParallelFor(workers.size(), [&](size_t k) {
        if (up[k] != 0) {
          WorkerStep(&workers[k], train_);
        }
      });

      // BSP barrier: the step costs the slowest worker's sampled time.
      double step_seconds = 0.0;
      if (injector == nullptr) {
        for (size_t k = 0; k < workers.size(); ++k) {
          step_seconds = std::max(step_seconds, sample_step_seconds(k));
        }
      } else {
        // Sample every worker's time (the straggler stream stays aligned
        // with the fault-free run), then mask to the sync-eligible fleet —
        // up workers behind a live link — and let the deadline cut the
        // rest.
        for (size_t k = 0; k < workers.size(); ++k) {
          step_times[k] = sample_step_seconds(k);
          participation[k] =
              up[k] != 0 && injector->LinkUp(entity_of(k)) ? 1 : 0;
        }
        step_seconds = injector->ApplyDeadline(step_times, &participation);
      }
      result.compute_seconds += step_seconds;

      bool round_has_participants = true;
      if (injector != nullptr) {
        round_has_participants = false;
        for (char participant : participation) {
          round_has_participants |= participant != 0;
        }
      }
      if (round_has_participants) {
        policy->MaybeSync(ctx);
      } else {
        // Zero-survivor round: nobody can reach the network, so the
        // policy never runs — all state carries forward to the next round.
        ++result.zero_participant_rounds;
        FEDRA_LOG(WARNING) << "round " << step
                           << ": no sync-eligible worker, sync skipped";
      }
    }

    const bool eval_due = step >= next_eval;
    if (eval_due) {
      next_eval += eval_every;
    }
    // The lock-step schedule always closes with an evaluation.
    if (eval_due || (!event_ordered && step == config_.max_steps)) {
      refresh_eval_model();
      EvalResult test_eval = EvaluateSubset(
          eval_model, test_, config_.eval_subset, config_.seed ^ step);
      EvalResult train_eval =
          EvaluateSubset(eval_model, train_, config_.eval_subset,
                         config_.seed ^ (step + 77));
      EvalPoint point;
      point.step = step / steps_per_round;
      point.epoch = static_cast<double>(point.step) /
                    static_cast<double>(steps_per_epoch);
      point.test_accuracy = test_eval.accuracy;
      point.train_accuracy = train_eval.accuracy;
      point.bytes = network.stats().bytes_total;
      point.sync_count = ctx.sync_count;
      point.sim_seconds = sim_seconds();
      result.history.push_back(point);

      if (!result.reached_target &&
          test_eval.accuracy >= config_.accuracy_target) {
        result.reached_target = true;
        result.steps_to_target = point.step;
        result.bytes_to_target = point.bytes;
        result.syncs_to_target = ctx.sync_count;
        result.sim_seconds_to_target = point.sim_seconds;
        break;  // training run is defined as "until the target epoch"
      }
    }
  }

  refresh_eval_model();
  result.final_test_accuracy =
      Evaluate(eval_model, test_).accuracy;
  result.final_train_accuracy =
      EvaluateSubset(eval_model, train_,
                     std::min<size_t>(train_.size(), 2048),
                     config_.seed ^ 0x51ULL)
          .accuracy;
  result.total_steps = step / steps_per_round;
  result.total_syncs = ctx.sync_count;
  result.skipped_syncs = ctx.skipped_syncs;
  result.comm = network.stats();
  if (!result.reached_target) {
    result.steps_to_target = result.total_steps;
    result.bytes_to_target = result.comm.bytes_total;
    result.syncs_to_target = ctx.sync_count;
    result.sim_seconds_to_target = sim_seconds();
  }
  fedprox_anchor_ = nullptr;  // points into this Run's locals
  return result;
}

}  // namespace fedra
