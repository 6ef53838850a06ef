#include "sim/collectives.h"

#include <algorithm>
#include <cmath>

#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fedra {

namespace {

// Elements per reduction-engine chunk. Boundaries depend only on the span
// length (the pool hands out fixed [i*grain, (i+1)*grain) ranges), so the
// combine order — and therefore the result — is bit-deterministic for any
// thread count.
constexpr size_t kReduceChunk = 1 << 15;

// Elements per install tile: the reduced block is staged in an L1-resident
// buffer and streamed to every worker's span from there, so each worker
// buffer is read exactly once and written exactly once per collective (the
// old serial path made 4x the memory passes via its n-double scratch).
constexpr size_t kInstallBlock = 4096;

// Reduces [begin, end) of all k buffers with `combine` into a stack tile
// and installs the tile into every buffer's span.
template <typename Combine>
void ReduceInstallChunk(const std::vector<float*>& buffers, size_t begin,
                        size_t end, const Combine& combine) {
  const size_t k = buffers.size();
  std::vector<const float*> srcs(k);
  float tile[kInstallBlock];
  for (size_t base = begin; base < end; base += kInstallBlock) {
    const size_t len = std::min(kInstallBlock, end - base);
    for (size_t kk = 0; kk < k; ++kk) {
      srcs[kk] = buffers[kk] + base;
    }
    combine(srcs.data(), k, len, tile);
    for (size_t kk = 0; kk < k; ++kk) {
      vec::Copy(tile, buffers[kk] + base, len);
    }
  }
}

// Mean over the given buffers installed into every one of them (the shared
// arithmetic of the global and subtree collectives).
void ReduceMeanBuffers(const std::vector<float*>& buffers, size_t n) {
  const size_t k = buffers.size();
  if (k <= 1) {
    return;  // the mean of one buffer is itself
  }
  const double inv_k = 1.0 / static_cast<double>(k);
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&](size_t begin, size_t end) {
        ReduceInstallChunk(buffers, begin, end,
                           [inv_k](const float* const* srcs, size_t kk,
                                   size_t len, float* tile) {
                             vec::ReduceScale(srcs, kk, len, inv_k, tile);
                           });
      });
}

}  // namespace

void ReduceMeanInto(const float* const* srcs, size_t num_srcs, size_t n,
                    float* dst) {
  FEDRA_CHECK_GT(num_srcs, 0u);
  const double inv_k = 1.0 / static_cast<double>(num_srcs);
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&](size_t begin, size_t end) {
        std::vector<const float*> chunk(num_srcs);
        for (size_t k = 0; k < num_srcs; ++k) {
          chunk[k] = srcs[k] + begin;
        }
        vec::ReduceScale(chunk.data(), num_srcs, end - begin, inv_k,
                         dst + begin);
      });
}

SimNetwork::SimNetwork(int num_workers, NetworkModel model,
                       AllReduceAlgorithm algorithm)
    : SimNetwork(num_workers, TopologyTree::SingleTier(std::move(model)),
                 algorithm) {}

SimNetwork::SimNetwork(int num_workers, TopologyTree tree,
                       AllReduceAlgorithm root_algorithm)
    : num_workers_(num_workers),
      tree_(std::move(tree)),
      algorithm_(root_algorithm) {
  FEDRA_CHECK_GT(num_workers, 0);
}

void SimNetwork::SetWorkerLinkFactors(std::vector<double> factors) {
  FEDRA_CHECK_EQ(factors.size(), static_cast<size_t>(num_workers_));
  for (double factor : factors) {
    FEDRA_CHECK_GE(factor, 1.0) << "link factors are slowdowns (>= 1)";
  }
  worker_link_factors_ = std::move(factors);
}

const std::vector<double>* SimNetwork::LinkFactorsOrNull() const {
  return worker_link_factors_.empty() ? nullptr : &worker_link_factors_;
}

double SimNetwork::WorkerLinkFactor(int worker) const {
  if (worker < 0 || worker_link_factors_.empty()) {
    return 1.0;
  }
  FEDRA_CHECK_LT(worker, num_workers_);
  return worker_link_factors_[static_cast<size_t>(worker)];
}

int SimNetwork::LeafGroupOf(int worker) const {
  return worker >= 0 ? tree_.LeafGroupOfWorker(worker, num_workers_) : 0;
}

void SimNetwork::ChargeTree(const TreeCost& cost, TrafficClass traffic) {
  // Deeper tiers first, then the root tier: the summation order every
  // recorded total was produced in (a single-tier charge is its depth-0
  // seconds exactly).
  double seconds = 0.0;
  uint64_t bytes = 0;
  for (size_t d = 1; d < cost.seconds_by_depth.size(); ++d) {
    seconds += cost.seconds_by_depth[d];
    bytes += cost.bytes_by_depth[d];
  }
  seconds += cost.SecondsAt(0);
  bytes += cost.BytesAt(0);
  stats_.bytes_total += bytes;
  stats_.comm_seconds += seconds;
  for (size_t d = 0; d < cost.seconds_by_depth.size(); ++d) {
    stats_.ChargeDepth(d, cost.bytes_by_depth[d],
                       cost.seconds_by_depth[d]);
  }
  if (traffic == TrafficClass::kLocalState) {
    stats_.bytes_local_state += bytes;
    stats_.seconds_local_state += seconds;
  } else {
    stats_.bytes_model_sync += bytes;
    stats_.seconds_model_sync += seconds;
  }
}

void SimNetwork::AccountAllReduce(size_t payload_bytes_sum,
                                  TrafficClass traffic) {
  ++stats_.allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.model_sync_count;
  }
  if (num_workers_ == 1) {
    return;  // nothing transits any link
  }
  // Mean wire size in double: variable-size compressed payloads are billed
  // from their exact sum, never a truncated per-worker quotient.
  const double per_worker = static_cast<double>(payload_bytes_sum) /
                            static_cast<double>(num_workers_);
  ChargeTree(tree_.GroupedAllReduceCost(per_worker, num_workers_, algorithm_,
                                        LinkFactorsOrNull()),
             traffic);
}

void SimNetwork::ReduceMeanIntoAll(const std::vector<float*>& buffers,
                                   size_t n) {
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(num_workers_));
  ReduceMeanBuffers(buffers, n);
}

void SimNetwork::AllReduceAverage(const std::vector<float*>& buffers,
                                  size_t n, TrafficClass traffic) {
  AllReduceAverageWithPayload(buffers, n, n * sizeof(float), traffic);
}

void SimNetwork::AllReduceAverageWithPayload(
    const std::vector<float*>& buffers, size_t n, size_t payload_bytes,
    TrafficClass traffic) {
  ReduceMeanIntoAll(buffers, n);
  AccountAllReduce(payload_bytes * static_cast<size_t>(num_workers_),
                   traffic);
}

void SimNetwork::AllReduceAverageWithPayloads(
    const std::vector<float*>& buffers, size_t n,
    const std::vector<size_t>& payload_bytes, TrafficClass traffic) {
  FEDRA_CHECK_EQ(payload_bytes.size(), buffers.size());
  size_t sum = 0;
  for (size_t bytes : payload_bytes) {
    sum += bytes;
  }
  ReduceMeanIntoAll(buffers, n);
  AccountAllReduce(sum, traffic);
}

void SimNetwork::WeightedReduceInstall(const std::vector<float*>& buffers,
                                       const std::vector<double>& weights,
                                       size_t n) {
  double weight_sum = 0.0;
  for (double w : weights) {
    FEDRA_CHECK_GE(w, 0.0);
    weight_sum += w;
  }
  FEDRA_CHECK_GT(weight_sum, 0.0);
  const size_t k = buffers.size();
  weight_scratch_.resize(k);
  for (size_t kk = 0; kk < k; ++kk) {
    weight_scratch_[kk] = weights[kk] / weight_sum;
  }
  const double* normalized = weight_scratch_.data();
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&](size_t begin, size_t end) {
        ReduceInstallChunk(buffers, begin, end,
                           [normalized](const float* const* srcs, size_t kk,
                                        size_t len, float* tile) {
                             vec::WeightedReduce(srcs, normalized, kk, len,
                                                 tile);
                           });
      });
}

void SimNetwork::AllReduceWeightedAverage(const std::vector<float*>& buffers,
                                          const std::vector<double>& weights,
                                          size_t n, TrafficClass traffic) {
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(num_workers_));
  FEDRA_CHECK_EQ(weights.size(), buffers.size());
  WeightedReduceInstall(buffers, weights, n);
  AccountAllReduce(n * sizeof(float) * buffers.size(), traffic);
}

void SimNetwork::CheckParticipants(const std::vector<int>& participants,
                                   size_t num_buffers) const {
  FEDRA_CHECK_EQ(participants.size(), num_buffers)
      << "one buffer per participant";
  int prev = -1;
  for (int worker : participants) {
    FEDRA_CHECK(worker >= 0 && worker < num_workers_);
    FEDRA_CHECK_GT(worker, prev) << "participants must be ascending/unique";
    prev = worker;
  }
}

void SimNetwork::AccountAllReduceSubset(size_t payload_bytes_sum,
                                        const std::vector<int>& participants,
                                        TrafficClass traffic) {
  ++stats_.allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.model_sync_count;
  }
  const size_t m = participants.size();
  if (m <= 1) {
    return;  // nothing transits any link
  }
  const double per_worker =
      static_cast<double>(payload_bytes_sum) / static_cast<double>(m);
  active_scratch_.assign(static_cast<size_t>(num_workers_), 0);
  for (int worker : participants) {
    active_scratch_[static_cast<size_t>(worker)] = 1;
  }
  ChargeTree(tree_.GroupedAllReduceCost(per_worker, num_workers_, algorithm_,
                                        LinkFactorsOrNull(), &active_scratch_),
             traffic);
}

void SimNetwork::AllReduceAverageSubset(const std::vector<float*>& buffers,
                                        const std::vector<int>& participants,
                                        size_t n, TrafficClass traffic) {
  CheckParticipants(participants, buffers.size());
  ReduceMeanBuffers(buffers, n);
  AccountAllReduceSubset(n * sizeof(float) * participants.size(),
                         participants, traffic);
}

void SimNetwork::AllReduceAverageSubsetWithPayloads(
    const std::vector<float*>& buffers, const std::vector<int>& participants,
    size_t n, const std::vector<size_t>& payload_bytes,
    TrafficClass traffic) {
  CheckParticipants(participants, buffers.size());
  FEDRA_CHECK_EQ(payload_bytes.size(), buffers.size());
  size_t sum = 0;
  for (size_t bytes : payload_bytes) {
    sum += bytes;
  }
  ReduceMeanBuffers(buffers, n);
  AccountAllReduceSubset(sum, participants, traffic);
}

void SimNetwork::AllReduceWeightedAverageSubset(
    const std::vector<float*>& buffers, const std::vector<int>& participants,
    const std::vector<double>& weights, size_t n, TrafficClass traffic) {
  CheckParticipants(participants, buffers.size());
  FEDRA_CHECK_EQ(weights.size(), buffers.size());
  if (buffers.size() == 1) {
    // Degenerate mean: the lone participant keeps its span.
    AccountAllReduceSubset(n * sizeof(float), participants, traffic);
    return;
  }
  WeightedReduceInstall(buffers, weights, n);
  AccountAllReduceSubset(n * sizeof(float) * participants.size(),
                         participants, traffic);
}

void SimNetwork::Broadcast(const std::vector<float*>& buffers, size_t n,
                           int root, TrafficClass traffic) {
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(num_workers_));
  FEDRA_CHECK(root >= 0 && root < num_workers_);
  const float* src = buffers[static_cast<size_t>(root)];
  GlobalThreadPool().ParallelForRange(
      n, kReduceChunk, [&](size_t begin, size_t end) {
        for (int k = 0; k < num_workers_; ++k) {
          if (k == root) {
            continue;
          }
          vec::Copy(src + begin, buffers[static_cast<size_t>(k)] + begin,
                    end - begin);
        }
      });
  ++stats_.broadcast_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.model_sync_count;
  }
  if (num_workers_ == 1) {
    return;
  }
  ChargeTree(tree_.BroadcastCost(n * sizeof(float), num_workers_,
                                 LinkFactorsOrNull()),
             traffic);
}

void SimNetwork::PointToPoint(size_t n, TrafficClass traffic, int worker) {
  ++stats_.p2p_calls;
  ChargeTree(tree_.PointToPointCost(n * sizeof(float), num_workers_,
                                    LeafGroupOf(worker),
                                    WorkerLinkFactor(worker)),
             traffic);
}

void SimNetwork::SubtreeAllReduceAverage(int node_id,
                                         const std::vector<float*>& buffers,
                                         size_t n, TrafficClass traffic) {
  int begin = 0;
  int end = 0;
  tree_.SubtreeSpan(node_id, num_workers_, &begin, &end);
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(end - begin))
      << "buffers must cover the subtree's workers";
  ReduceMeanBuffers(buffers, n);
  ++stats_.subtree_allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.subtree_sync_count;
  }
  if (buffers.size() <= 1) {
    return;  // single member: nothing transits any link
  }
  ChargeTree(tree_.SubtreeSyncCost(node_id, n * sizeof(float), num_workers_,
                                   LinkFactorsOrNull()),
             traffic);
}

void SimNetwork::SubtreeAllReduceAverageSubset(
    int node_id, const std::vector<float*>& buffers,
    const std::vector<char>& active, size_t n, TrafficClass traffic) {
  FEDRA_CHECK_EQ(active.size(), static_cast<size_t>(num_workers_));
  int begin = 0;
  int end = 0;
  tree_.SubtreeSpan(node_id, num_workers_, &begin, &end);
  size_t members = 0;
  for (int w = begin; w < end; ++w) {
    members += active[static_cast<size_t>(w)] != 0;
  }
  FEDRA_CHECK_EQ(buffers.size(), members)
      << "buffers must cover the subtree's active workers";
  ReduceMeanBuffers(buffers, n);
  ++stats_.subtree_allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.subtree_sync_count;
  }
  if (members <= 1) {
    return;  // single active member: nothing transits any link
  }
  ChargeTree(tree_.SubtreeSyncCost(node_id, n * sizeof(float), num_workers_,
                                   LinkFactorsOrNull(), &active),
             traffic);
}

void SimNetwork::SubtreeAllReduceAverageWithPayloads(
    int node_id, const std::vector<float*>& buffers, size_t n,
    const std::vector<size_t>& payload_bytes, TrafficClass traffic) {
  FEDRA_CHECK_EQ(payload_bytes.size(), buffers.size());
  int begin = 0;
  int end = 0;
  tree_.SubtreeSpan(node_id, num_workers_, &begin, &end);
  FEDRA_CHECK_EQ(buffers.size(), static_cast<size_t>(end - begin))
      << "buffers must cover the subtree's workers";
  ReduceMeanBuffers(buffers, n);
  ++stats_.subtree_allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.subtree_sync_count;
  }
  if (buffers.size() <= 1) {
    return;  // single member: nothing transits any link
  }
  size_t sum = 0;
  for (size_t bytes : payload_bytes) {
    sum += bytes;
  }
  // Mean wire size in double, as the global payload collectives bill it.
  const double per_member =
      static_cast<double>(sum) / static_cast<double>(buffers.size());
  ChargeTree(tree_.SubtreeSyncCost(node_id, per_member, num_workers_,
                                   LinkFactorsOrNull()),
             traffic);
}

void SimNetwork::SubtreeAllReduceAverageSubsetWithPayloads(
    int node_id, const std::vector<float*>& buffers,
    const std::vector<char>& active, size_t n,
    const std::vector<size_t>& payload_bytes, TrafficClass traffic) {
  FEDRA_CHECK_EQ(active.size(), static_cast<size_t>(num_workers_));
  FEDRA_CHECK_EQ(payload_bytes.size(), buffers.size());
  int begin = 0;
  int end = 0;
  tree_.SubtreeSpan(node_id, num_workers_, &begin, &end);
  size_t members = 0;
  for (int w = begin; w < end; ++w) {
    members += active[static_cast<size_t>(w)] != 0;
  }
  FEDRA_CHECK_EQ(buffers.size(), members)
      << "buffers must cover the subtree's active workers";
  ReduceMeanBuffers(buffers, n);
  ++stats_.subtree_allreduce_calls;
  if (traffic == TrafficClass::kModelSync) {
    ++stats_.subtree_sync_count;
  }
  if (members <= 1) {
    return;  // single active member: nothing transits any link
  }
  size_t sum = 0;
  for (size_t bytes : payload_bytes) {
    sum += bytes;
  }
  const double per_member =
      static_cast<double>(sum) / static_cast<double>(members);
  ChargeTree(tree_.SubtreeSyncCost(node_id, per_member, num_workers_,
                                   LinkFactorsOrNull(), &active),
             traffic);
}

void SimNetwork::AccountSyncRetries(int worker, size_t n, int retries,
                                    double backoff_base_seconds,
                                    TrafficClass traffic) {
  AccountSyncRetriesBytes(worker, n * sizeof(float), retries,
                          backoff_base_seconds, traffic);
}

void SimNetwork::AccountSyncRetriesBytes(int worker, size_t payload_bytes,
                                         int retries,
                                         double backoff_base_seconds,
                                         TrafficClass traffic) {
  if (retries <= 0) {
    return;
  }
  const int leaf_group = LeafGroupOf(worker);
  const double factor = WorkerLinkFactor(worker);
  for (int attempt = 0; attempt < retries; ++attempt) {
    // Exponential backoff before retry i, then one retransmission over the
    // worker's own path. Backoff stalls the worker's leaf-tier link, so it
    // is billed on that tier ahead of the transfer — every breakdown (class,
    // depth) keeps summing to comm_seconds.
    const TreeCost cost = tree_.PointToPointCost(
        payload_bytes, num_workers_, leaf_group, factor,
        std::ldexp(backoff_base_seconds, attempt));
    ++stats_.retries;
    stats_.seconds_retry += cost.total_seconds();
    ChargeTree(cost, traffic);
  }
}

void SimNetwork::AccountCatchUpSync(size_t n, int worker) {
  PointToPoint(n, TrafficClass::kModelSync, worker);
  ++stats_.catch_up_syncs;
  stats_.bytes_model_downlink += n * sizeof(float);
}

void SimNetwork::AccountCheckInSync(size_t n, int worker) {
  PointToPoint(n, TrafficClass::kModelSync, worker);
  ++stats_.check_in_syncs;
  stats_.bytes_model_downlink += n * sizeof(float);
}

void SimNetwork::AccountChildExchange(int node_id, size_t n,
                                      TrafficClass traffic,
                                      const std::vector<char>* active) {
  ++stats_.child_exchange_calls;
  ChargeTree(tree_.ChildExchangeCost(node_id, n * sizeof(float),
                                     num_workers_, LinkFactorsOrNull(),
                                     active),
             traffic);
}

double SimNetwork::ModelSyncSeconds(size_t payload_bytes) const {
  return tree_
      .GroupedAllReduceCost(payload_bytes, num_workers_, algorithm_,
                            LinkFactorsOrNull())
      .total_seconds();
}

}  // namespace fedra
