#include "core/fda_policy.h"

#include <algorithm>

#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/string_util.h"

namespace fedra {
namespace {

// Whether worker w takes part in the round; a null mask is all-ones.
bool IsActive(const std::vector<char>* mask, int w) {
  return mask == nullptr || (*mask)[static_cast<size_t>(w)] != 0;
}

// Active workers within [begin, end).
int ActiveInSpan(const std::vector<char>* mask, int begin, int end) {
  int count = 0;
  for (int w = begin; w < end; ++w) {
    count += IsActive(mask, w) ? 1 : 0;
  }
  return count;
}

// (Alg. 1 line 6) one worker's drift (into worker.drift) and local state
// (into `state`). With a masking sync compressor the monitor sees the drift
// that would actually ship: the mask preview selects the kept coordinates
// (no mutation, no error-feedback side effects) and the state folds only
// those in — the AMS sketch accumulates the *compressed* drift,
// O(kept * rows) instead of O(dim * rows). Without a mask the fused dense
// kernel runs unchanged.
void ComputeWorkerState(ClusterContext& ctx, VarianceMonitor* monitor,
                        WorkerState& worker, float* state) {
  if (ctx.compressor != nullptr && ctx.compressor->has_mask()) {
    vec::Sub(worker.view.params, ctx.sync_params->data(), worker.drift,
             ctx.dim);
    const size_t kept = ctx.compressor->MaskPreview(worker.drift, ctx.dim);
    monitor->ComputeLocalStateSparse(worker.drift,
                                     ctx.compressor->kept_indices().data(),
                                     kept, state);
    return;
  }
  monitor->ComputeDriftAndState(worker.view.params, ctx.sync_params->data(),
                                worker.drift, state);
}


}  // namespace

FdaSyncPolicy::FdaSyncPolicy(std::unique_ptr<VarianceMonitor> monitor,
                             double theta)
    : monitor_(std::move(monitor)), theta_(theta) {
  FEDRA_CHECK(monitor_ != nullptr);
  FEDRA_CHECK_GE(theta, 0.0);
}

void FdaSyncPolicy::SetThetaController(
    std::unique_ptr<ThetaController> controller) {
  controller_ = std::move(controller);
}

void FdaSyncPolicy::Initialize(ClusterContext& ctx) {
  // One [K x state_size] arena slab backs every worker's monitor state.
  ctx.AllocateWorkerStates(monitor_->StateSize());
  // The fleet layer folds departing clients' states into the store's
  // off-cohort sum with this monitor.
  ctx.monitor = monitor_.get();
}

bool FdaSyncPolicy::MaybeSync(ClusterContext& ctx) {
  FEDRA_CHECK_EQ(monitor_->dim(), ctx.dim);
  // (Alg. 1 lines 6-7) every participant updates its local state from its
  // drift (with a masking codec the state covers the compressed drift
  // only), then the small states are AllReduced over the participants —
  // everyone in a fault-free round. Absent workers are excluded from the
  // mean entirely: averaging their stale sketches in would corrupt the AMS
  // aggregation (the estimate must reflect the fleet that can actually
  // synchronize).
  const std::vector<int> active = ctx.ActiveWorkers();
  if (active.empty()) {
    return false;  // trainer normally skips such rounds already
  }
  std::vector<float*> active_states;
  active_states.reserve(active.size());
  for (int k : active) {
    WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
    ComputeWorkerState(ctx, monitor_.get(), worker, worker.state);
    active_states.push_back(worker.state);
  }
  ctx.network->AllReduceAverageSubset(active_states, active,
                                      monitor_->StateSize(),
                                      TrafficClass::kLocalState);
  const float* mean_state = active_states[0];
  const int active_count = static_cast<int>(active.size());
  // (line 8) everyone evaluates H on the averaged state. A fleet run folds
  // the off-cohort population's stored states in (a bitwise no-op when
  // population == cohort).
  last_estimate_ =
      ctx.store != nullptr
          ? ctx.store->PopulationEstimate(*monitor_, mean_state,
                                          active_count)
          : monitor_->EstimateVariance(mean_state);
  if (record_estimates_) {
    estimate_history_.push_back(last_estimate_);
  }
  if (controller_ != nullptr) {
    theta_ = controller_->Update(ctx.step,
                                 ctx.network->stats().bytes_total);
  }
  if (last_estimate_ <= theta_) {
    return false;  // Round Invariant still guaranteed; keep training.
  }
  // (line 9) conditional synchronization. Under message loss the sync can
  // lose every contribution — the anchor then stays put and the monitor
  // keeps estimating against the old synchronization.
  if (!ctx.SynchronizeModels()) {
    return false;
  }
  monitor_->OnSynchronized(ctx.sync_params->data(),
                           ctx.prev_sync_params->data());
  return true;
}

std::string FdaSyncPolicy::name() const { return monitor_->name(); }

// ------------------------------------------------------- asynchronous FDA --

AsyncFdaPolicy::AsyncFdaPolicy(std::unique_ptr<VarianceMonitor> monitor,
                               double theta)
    : monitor_(std::move(monitor)), theta_(theta) {
  FEDRA_CHECK(monitor_ != nullptr);
  FEDRA_CHECK_GE(theta, 0.0);
}

void AsyncFdaPolicy::Initialize(ClusterContext& ctx) {
  // The arena's state rows hold the coordinator's view; they start zeroed.
  ctx.AllocateWorkerStates(monitor_->StateSize());
  ctx.monitor = monitor_.get();
  fresh_state_.assign(monitor_->StateSize(), 0.0f);
  mean_state_.assign(monitor_->StateSize(), 0.0f);
}

bool AsyncFdaPolicy::MaybeSync(ClusterContext& ctx) {
  FEDRA_CHECK_EQ(monitor_->dim(), ctx.dim);
  const int stepped = ctx.stepped_worker;
  FEDRA_CHECK_GE(stepped, 0) << "AsyncFdaPolicy needs the event-ordered "
                                "schedule";
  WorkerState& worker = (*ctx.workers)[static_cast<size_t>(stepped)];
  const size_t state_size = monitor_->StateSize();
  ComputeWorkerState(ctx, monitor_.get(), worker, fresh_state_.data());
  // Point-to-point upload. Under message loss it runs the retry gauntlet;
  // a dropped upload leaves the coordinator's view of this worker stale
  // and decides nothing.
  if (ctx.faults != nullptr) {
    const FaultInjector::Delivery outcome = ctx.faults->SampleDelivery();
    if (outcome.retries > 0) {
      ctx.network->AccountSyncRetriesBytes(
          stepped, state_size * sizeof(float), outcome.retries,
          ctx.faults->config().retry_backoff_seconds,
          TrafficClass::kLocalState);
    }
    if (!outcome.delivered) {
      ctx.network->AccountDroppedMessage();
      return false;
    }
  }
  vec::Copy(fresh_state_.data(), worker.state, state_size);
  ctx.network->PointToPoint(state_size, TrafficClass::kLocalState, stepped);

  // The coordinator decides on the freshest state of every live worker;
  // crashed workers' last states stay out of the mean.
  const std::vector<int> live_workers = ctx.ActiveWorkers();
  const int live = static_cast<int>(live_workers.size());
  vec::Fill(mean_state_.data(), state_size, 0.0f);
  const float inv_live = 1.0f / static_cast<float>(live);
  for (int k : live_workers) {
    vec::Axpy(inv_live, (*ctx.workers)[static_cast<size_t>(k)].state,
              mean_state_.data(), state_size);
  }
  // A fleet run folds the off-cohort population's stored states in (a
  // bitwise no-op when population == cohort).
  const double estimate =
      ctx.store != nullptr
          ? ctx.store->PopulationEstimate(*monitor_, mean_state_.data(), live)
          : monitor_->EstimateVariance(mean_state_.data());
  if (estimate <= theta_) {
    return false;
  }
  // Coordinator-mediated synchronization over the live workers; every
  // contribution lost means the anchor stays put.
  if (!ctx.SynchronizeModels()) {
    return false;
  }
  // The coordinator broadcasts the new global model to every live worker,
  // including those whose contribution was lost.
  for (int k : live_workers) {
    vec::Copy(ctx.sync_params->data(),
              (*ctx.workers)[static_cast<size_t>(k)].view.params, ctx.dim);
  }
  monitor_->OnSynchronized(ctx.sync_params->data(),
                           ctx.prev_sync_params->data());
  for (float* state : ctx.StatePointers()) {
    vec::Fill(state, state_size, 0.0f);
  }
  return true;
}

std::string AsyncFdaPolicy::name() const {
  return "AsyncFDA(" + monitor_->name() + ")";
}

// ----------------------------------------------------- hierarchical FDA --

HierarchicalFdaPolicy::HierarchicalFdaPolicy(
    std::unique_ptr<VarianceMonitor> monitor,
    std::vector<double> theta_by_depth)
    : monitor_(std::move(monitor)), theta_(std::move(theta_by_depth)) {
  FEDRA_CHECK(monitor_ != nullptr);
  FEDRA_CHECK(!theta_.empty()) << "need one theta per tier depth";
  for (double theta : theta_) {
    FEDRA_CHECK_GE(theta, 0.0);
  }
}

void HierarchicalFdaPolicy::Initialize(ClusterContext& ctx) {
  const TopologyTree& tree = ctx.network->tree();
  FEDRA_CHECK_EQ(theta_.size(), static_cast<size_t>(tree.depth()))
      << "theta_by_depth must have one threshold per tier depth";
  ctx.AllocateWorkerStates(monitor_->StateSize());
  ctx.monitor = monitor_.get();
}

void HierarchicalFdaPolicy::MaterializeNodeState(ClusterContext& ctx,
                                                 int id) {
  if (node_has_[static_cast<size_t>(id)]) {
    return;
  }
  const TopologyTree& tree = ctx.network->tree();
  const TopologyTree::Node& node = tree.node(id);
  // Leaf-group states were aggregated in step 2; an inactive leaf (no
  // workers, or none participating this round) never reaches here because
  // parents only weigh active children.
  FEDRA_CHECK(!node.children.empty());
  const std::vector<char>* mask = ctx.participation;
  // Locals, not members: materialization recurses through silent subtrees.
  std::vector<const float*> child_states;
  std::vector<double> child_weights;
  for (int child : node.children) {
    int begin = 0;
    int end = 0;
    tree.SubtreeSpan(child, ctx.num_workers(), &begin, &end);
    const int active_workers = ActiveInSpan(mask, begin, end);
    if (active_workers == 0) {
      continue;
    }
    MaterializeNodeState(ctx, child);
    child_states.push_back(node_state_[static_cast<size_t>(child)].data());
    child_weights.push_back(static_cast<double>(active_workers));
  }
  FEDRA_CHECK(!child_states.empty());
  const size_t state_size = monitor_->StateSize();
  if (child_states.size() > 1) {
    // One escalation round: child representatives push their aggregated
    // states to this node's representative and receive the combined state
    // back, over this node's link only. A single-child tier aggregates
    // for free (the child representative is the node's own) and does not
    // count as an escalation.
    ctx.network->AccountChildExchange(id, state_size,
                                      TrafficClass::kLocalState, mask);
    ++escalations_;
  }
  node_state_[static_cast<size_t>(id)].resize(state_size);
  AggregateWeightedStates(child_states.data(), child_weights.data(),
                          child_states.size(), state_size,
                          node_state_[static_cast<size_t>(id)].data());
  node_estimate_[static_cast<size_t>(id)] = monitor_->EstimateVariance(
      node_state_[static_cast<size_t>(id)].data());
  node_has_[static_cast<size_t>(id)] = 1;
}

void HierarchicalFdaPolicy::CollectSyncScopes(
    const TopologyTree& tree, int id, std::vector<int>* scopes) const {
  if (node_trip_[static_cast<size_t>(id)]) {
    scopes->push_back(id);  // maximal: a tripped node subsumes descendants
    return;
  }
  for (int child : tree.node(id).children) {
    CollectSyncScopes(tree, child, scopes);
  }
}

bool HierarchicalFdaPolicy::MaybeSync(ClusterContext& ctx) {
  FEDRA_CHECK_EQ(monitor_->dim(), ctx.dim);
  const TopologyTree& tree = ctx.network->tree();
  const int num_nodes = tree.num_nodes();
  const int num_workers = ctx.num_workers();
  const size_t state_size = monitor_->StateSize();
  node_state_.resize(static_cast<size_t>(num_nodes));
  node_estimate_.assign(static_cast<size_t>(num_nodes), 0.0);
  node_has_.assign(static_cast<size_t>(num_nodes), 0);
  node_trip_.assign(static_cast<size_t>(num_nodes), 0);

  // Fault-aware rounds mask absent workers out of every tier: their stale
  // drifts contribute to no estimate, silent groups stay node_has_ == 0,
  // and weights count participants only. A null mask is the exact
  // pre-fault arithmetic.
  const std::vector<char>* mask = ctx.participation;

  // (1) local states from drifts — identical to flat FDA; the anchor is
  // the last *global* synchronization. A masking codec monitors the
  // compressed drift (see ComputeWorkerState).
  for (int k : ctx.ActiveWorkers()) {
    WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
    ComputeWorkerState(ctx, monitor_.get(), worker, worker.state);
  }

  // (2) leaf tier: states AllReduce within each worker group, on that
  // group's own link. Every participating group evaluates its subtree
  // estimate; fully-absent groups stay silent this round.
  std::vector<float*> states = ctx.StatePointers();
  for (int g = 0; g < tree.num_leaf_groups(); ++g) {
    const int size = tree.GroupSize(g, num_workers);
    if (size == 0) {
      continue;
    }
    const int begin = tree.GroupBegin(g, num_workers);
    const int id = tree.NodeOfLeafGroup(g);
    span_ptrs_.clear();
    int first_active = -1;
    for (int w = begin; w < begin + size; ++w) {
      if (!IsActive(mask, w)) {
        continue;
      }
      if (first_active < 0) {
        first_active = w;
      }
      span_ptrs_.push_back(states[static_cast<size_t>(w)]);
    }
    if (span_ptrs_.empty()) {
      continue;
    }
    ctx.network->SubtreeAllReduceAverage(id, span_ptrs_, state_size,
                                         TrafficClass::kLocalState, mask);
    auto& node_state = node_state_[static_cast<size_t>(id)];
    node_state.assign(states[static_cast<size_t>(first_active)],
                      states[static_cast<size_t>(first_active)] + state_size);
    node_estimate_[static_cast<size_t>(id)] =
        monitor_->EstimateVariance(node_state.data());
    node_has_[static_cast<size_t>(id)] = 1;
    node_trip_[static_cast<size_t>(id)] =
        node_estimate_[static_cast<size_t>(id)] >
                theta_[static_cast<size_t>(tree.node(id).depth)]
            ? 1
            : 0;
  }

  // (3) escalation sweep, deepest tier first (reverse preorder visits
  // children before parents): a node aggregates — paying one state-sized
  // exchange on its own link — only when some child's estimate already
  // crosses this node's threshold.
  for (int id = num_nodes - 1; id >= 0; --id) {
    const TopologyTree::Node& node = tree.node(id);
    if (node.children.empty()) {
      continue;
    }
    bool activate = false;
    for (int child : node.children) {
      if (node_has_[static_cast<size_t>(child)] &&
          node_estimate_[static_cast<size_t>(child)] >
              theta_[static_cast<size_t>(node.depth)]) {
        activate = true;
        break;
      }
    }
    if (!activate) {
      continue;
    }
    MaterializeNodeState(ctx, id);
    node_trip_[static_cast<size_t>(id)] =
        node_estimate_[static_cast<size_t>(id)] >
                theta_[static_cast<size_t>(node.depth)]
            ? 1
            : 0;
  }
  if (node_has_[0]) {
    if (ctx.store != nullptr) {
      // Population-scale correction at the decision tier only: the root
      // estimate folds the off-cohort clients' stored states in before
      // the comparison against the root threshold. Leaf and intermediate
      // tiers stay cohort-local — their subtrees only ever see resident
      // clients. Bitwise no-op when population == cohort.
      node_estimate_[0] = ctx.store->PopulationEstimate(
          *monitor_, node_state_[0].data(),
          ActiveInSpan(mask, 0, num_workers));
      node_trip_[0] = node_estimate_[0] > theta_[0] ? 1 : 0;
    }
    last_root_estimate_ = node_estimate_[0];
  }

  // (4a) root tripped: the Round Invariant cannot be restored below the
  // root — full synchronization (anchor rotates, estimator direction
  // updates).
  if (node_trip_[0]) {
    if (!ctx.SynchronizeModels()) {
      return false;  // every contribution lost; the anchor stays put
    }
    monitor_->OnSynchronized(ctx.sync_params->data(),
                             ctx.prev_sync_params->data());
    ++global_syncs_;
    return true;
  }

  // (4b) otherwise every maximal tripped subtree averages its members on
  // its own tiers: within-subtree variance drops to zero while the global
  // anchor — and the uplink — stay untouched.
  sync_scopes_.clear();
  CollectSyncScopes(tree, 0, &sync_scopes_);
  if (!sync_scopes_.empty()) {
    std::vector<float*> params = ctx.ParamPointers();
    const bool compressed =
        ctx.compressor != nullptr && ctx.compressor->config().enabled();
    for (int id : sync_scopes_) {
      int begin = 0;
      int end = 0;
      tree.SubtreeSpan(id, num_workers, &begin, &end);
      scope_members_.clear();
      for (int w = begin; w < end; ++w) {
        if (IsActive(mask, w)) {
          scope_members_.push_back(w);
        }
      }
      if (scope_members_.size() <= 1) {
        continue;  // a single member is already its own average
      }
      if (compressed) {
        // Compressed subtree resolution: members exchange coded deltas
        // from the shared global anchor instead of raw models. Each
        // member's delta runs through the codec pipeline (error feedback
        // accumulates per worker exactly as on the global path), the coded
        // deltas average over this subtree's own tiers at their compressed
        // wire size, and every member re-bases on anchor + mean delta —
        // members equalize (within-subtree variance -> 0) while the anchor
        // and the uplink stay untouched.
        span_ptrs_.clear();
        payload_bytes_.clear();
        for (int w : scope_members_) {
          WorkerState& worker = (*ctx.workers)[static_cast<size_t>(w)];
          vec::Sub(worker.view.params, ctx.sync_params->data(), worker.drift,
                   ctx.dim);
          payload_bytes_.push_back(
              ctx.compressor->CompressInPlace(w, worker.drift, ctx.dim));
          span_ptrs_.push_back(worker.drift);
        }
        ctx.network->SubtreeAllReduceAverage(id, span_ptrs_, ctx.dim,
                                             TrafficClass::kModelSync, mask,
                                             &payload_bytes_);
        for (int w : scope_members_) {
          float* member_params = params[static_cast<size_t>(w)];
          vec::Copy(ctx.sync_params->data(), member_params, ctx.dim);
          vec::Axpy(1.0f, span_ptrs_[0], member_params, ctx.dim);
        }
      } else {
        span_ptrs_.clear();
        for (int w : scope_members_) {
          span_ptrs_.push_back(params[static_cast<size_t>(w)]);
        }
        ctx.network->SubtreeAllReduceAverage(id, span_ptrs_, ctx.dim,
                                             TrafficClass::kModelSync, mask);
      }
      ++local_syncs_;
    }
  }
  return false;
}

std::string HierarchicalFdaPolicy::name() const {
  return "Hier" + monitor_->name();
}

Status HierarchicalFdaConfig::Validate() const {
  FEDRA_RETURN_IF_ERROR(monitor.Validate());
  if (theta_by_depth.empty()) {
    return Status::InvalidArgument(
        "theta_by_depth needs one threshold per tier depth");
  }
  for (double theta : theta_by_depth) {
    if (theta < 0.0) {
      return Status::InvalidArgument("thresholds must be >= 0");
    }
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<HierarchicalFdaPolicy>> MakeHierarchicalFdaPolicy(
    const HierarchicalFdaConfig& config, size_t dim) {
  FEDRA_RETURN_IF_ERROR(config.Validate());
  auto monitor = MakeVarianceMonitor(config.monitor, dim);
  if (!monitor.ok()) {
    return monitor.status();
  }
  return std::make_unique<HierarchicalFdaPolicy>(std::move(monitor).value(),
                                                 config.theta_by_depth);
}

}  // namespace fedra
