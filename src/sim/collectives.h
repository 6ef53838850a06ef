// SimNetwork: the collectives of the simulated cluster, with exact byte and
// simulated-time accounting. The arithmetic result of AllReduceAverage is
// the exact elementwise mean regardless of the chosen transport algorithm
// or topology (flat vs ring vs recursive-halving vs tree only changes cost
// accounting) — collectives are supposed to be numerically transparent, and
// tests assert this.
//
// The arithmetic runs on a parallel reduction engine: model-sized spans are
// split into fixed GlobalThreadPool chunks and each chunk runs the fused
// vec::ReduceScale tree-reduce (double accumulators, fixed combine order).
// Chunk boundaries depend only on the span length, so results are
// bit-deterministic for any thread count.
//
// Topology: every network is a TopologyTree — the single-tier network (one
// shared NetworkModel) is the one-node tree, the edge -> cloud layout a
// depth-2 tree, and device -> site -> cloud and deeper are just more tiers.
// Collectives run the tree's grouped schedule and CommStats carries the
// per-depth breakdown. Cluster-scoped collectives — AllReduces confined to
// one subtree, billed only on that subtree's tiers — let the hierarchical
// FDA scheduler keep drift control on the cheap tiers.

#ifndef FEDRA_SIM_COLLECTIVES_H_
#define FEDRA_SIM_COLLECTIVES_H_

#include <cstddef>
#include <vector>

#include "sim/comm_stats.h"
#include "sim/network_model.h"
#include "sim/topology_tree.h"

namespace fedra {

/// Averages `num_srcs` spans of length n into dst (exact elementwise mean,
/// double accumulation) on the same parallel reduction engine the
/// collectives use. No network accounting — this is the trainers'
/// measurement-only eval-model averaging. dst may alias srcs[0].
void ReduceMeanInto(const float* const* srcs, size_t num_srcs, size_t n,
                    float* dst);

class SimNetwork {
 public:
  /// Single-tier topology: TopologyTree::SingleTier(model).
  SimNetwork(int num_workers, NetworkModel model,
             AllReduceAlgorithm algorithm);

  /// Collectives run the tree's recursive grouped schedule
  /// (level-synchronized reduce-up, root-tier AllReduce under
  /// `root_algorithm`, broadcast-down). `tree` must be enabled (the tree's
  /// cost functions check it).
  SimNetwork(int num_workers, TopologyTree tree,
             AllReduceAlgorithm root_algorithm);

  int num_workers() const { return num_workers_; }
  AllReduceAlgorithm algorithm() const { return algorithm_; }
  const TopologyTree& tree() const { return tree_; }

  /// Straggler-aware collective cost: per-worker link-speed factors (>= 1,
  /// e.g. the trainer's persistent straggler speed factors). When set,
  /// collectives bill the *slowest participating link*: each gather phase
  /// is paced by the slowest member of that subtree and each cross tier by
  /// the slowest participating representative (a single-tier network
  /// divides its channel bandwidth by the slowest participant's factor).
  /// Bytes are unaffected. All-ones (or never calling this) keeps the
  /// homogeneous formulas bit-identical.
  void SetWorkerLinkFactors(std::vector<double> factors);
  const std::vector<double>& worker_link_factors() const {
    return worker_link_factors_;
  }

  /// In-place AllReduce-average: each buffers[k] (length n) is replaced by
  /// the elementwise mean over workers. Accounts bytes to `traffic`.
  void AllReduceAverage(const std::vector<float*>& buffers, size_t n,
                        TrafficClass traffic);

  /// As AllReduceAverage, but billed at `payload_bytes` per worker instead
  /// of n * sizeof(float) — the path compressed synchronization takes (the
  /// arithmetic still averages the n decompressed floats).
  void AllReduceAverageWithPayload(const std::vector<float*>& buffers,
                                   size_t n, size_t payload_bytes,
                                   TrafficClass traffic);

  /// Per-worker wire sizes (variable-rate codecs): worker k's payload is
  /// billed at payload_bytes[k], so the collective costs the actual sum of
  /// wire bytes rather than any single worker's size.
  void AllReduceAverageWithPayloads(const std::vector<float*>& buffers,
                                    size_t n,
                                    const std::vector<size_t>& payload_bytes,
                                    TrafficClass traffic);

  /// Weighted variant: mean with per-worker weights (used by FedAvg when
  /// shards are unequal). Weights must sum to a positive value.
  void AllReduceWeightedAverage(const std::vector<float*>& buffers,
                                const std::vector<double>& weights, size_t n,
                                TrafficClass traffic);

  // ------------------------------------------- partial participation --
  // Fault-layer collectives: only the round's survivors exchange data.
  // `participants` are ascending, unique worker ids; buffers[i] is
  // participants[i]'s span. The mean over the participants installs into
  // their buffers only — absent workers transmit and receive nothing and
  // keep their state. Cost is billed for the participant count: phases
  // pace on the slowest *participating* link and empty groups drop out of
  // every phase. A full participant list is bit-identical to the unmasked
  // collective.

  /// Partial-participation AllReduceAverage.
  void AllReduceAverageSubset(const std::vector<float*>& buffers,
                              const std::vector<int>& participants, size_t n,
                              TrafficClass traffic);

  /// Partial-participation AllReduce billed at per-worker wire sizes:
  /// payload_bytes[i] is participants[i]'s compressed payload (the path
  /// compressed synchronization takes under faults or fleet rotation). The
  /// arithmetic is identical to AllReduceAverageSubset.
  void AllReduceAverageSubsetWithPayloads(
      const std::vector<float*>& buffers,
      const std::vector<int>& participants, size_t n,
      const std::vector<size_t>& payload_bytes, TrafficClass traffic);

  /// Partial-participation weighted mean; weights[i] belongs to
  /// participants[i] and must sum to a positive value.
  void AllReduceWeightedAverageSubset(const std::vector<float*>& buffers,
                                      const std::vector<int>& participants,
                                      const std::vector<double>& weights,
                                      size_t n, TrafficClass traffic);

  /// Partial-participation SubtreeAllReduceAverage: `active` is the
  /// full-length per-worker mask and `buffers` are the spans of the
  /// subtree's *active* members in worker order (size must equal the
  /// active count within the subtree's span).
  void SubtreeAllReduceAverageSubset(int node_id,
                                     const std::vector<float*>& buffers,
                                     const std::vector<char>& active,
                                     size_t n, TrafficClass traffic);

  /// Bills `retries` retransmissions of one lost n-float sync contribution
  /// from `worker`: retry i waits backoff_base_seconds * 2^i and resends
  /// the payload over the worker's own path (its link factor; one hop per
  /// tier). The backoff stalls the worker's leaf-tier link and is billed
  /// there as backoff + latency + bytes / bandwidth, the single-tier
  /// closed form. Every second and byte lands in the normal class and
  /// depth breakdowns and is additionally accumulated in
  /// CommStats::seconds_retry / retries.
  void AccountSyncRetries(int worker, size_t n, int retries,
                          double backoff_base_seconds, TrafficClass traffic);

  /// As AccountSyncRetries, but the retransmitted contribution is
  /// `payload_bytes` on the wire — a compressed sync payload is also
  /// retried at its compressed size. AccountSyncRetries(n) is exactly
  /// AccountSyncRetriesBytes(n * sizeof(float)).
  void AccountSyncRetriesBytes(int worker, size_t payload_bytes, int retries,
                               double backoff_base_seconds,
                               TrafficClass traffic);

  /// Records a sync contribution abandoned after the retry budget.
  void AccountDroppedMessage() { ++stats_.dropped_messages; }

  /// Bills the catch-up model download a rejoining worker pays: n floats
  /// of kModelSync point-to-point traffic over `worker`'s path, counted in
  /// CommStats::catch_up_syncs.
  void AccountCatchUpSync(size_t n, int worker);

  /// Bills the model download a freshly sampled fleet client pays on
  /// check-in (re-anchoring to the current global model): n floats of
  /// kModelSync point-to-point traffic over the slot's path, counted in
  /// CommStats::check_in_syncs. Sticky occupants (re-sampled residents)
  /// pay nothing.
  void AccountCheckInSync(size_t n, int worker);

  /// Broadcast worker `root`'s buffer to all others: K-1 payload transfers,
  /// billed in both bytes and time under the configured topology. Counts as
  /// a broadcast_calls entry (not allreduce_calls) and as a model
  /// synchronization when `traffic` is kModelSync.
  void Broadcast(const std::vector<float*>& buffers, size_t n, int root,
                 TrafficClass traffic);

  /// One worker uploads `n` floats to a coordinator (async FDA traffic).
  /// Passing the uploading `worker` bills *that* worker's link: its
  /// straggler factor (when SetWorkerLinkFactors is active) and one hop
  /// per tier on the path from its leaf group to the root. worker < 0
  /// takes leaf group 0's path (the homogeneous default links).
  void PointToPoint(size_t n, TrafficClass traffic, int worker = -1);

  /// Cluster-scoped AllReduce-average confined to node `node_id`'s subtree
  /// of the topology tree: `buffers` are the subtree members' spans in
  /// worker order (size must equal the subtree's worker count). The mean
  /// installs into every member; cost is billed as gather + broadcast
  /// along the subtree's own tiers only — tiers above `node_id` carry
  /// nothing (the hierarchical scheduler's cheap local averaging). Counts
  /// as a subtree_allreduce_calls entry, and as subtree_sync_count (never
  /// model_sync_count) when `traffic` is kModelSync.
  void SubtreeAllReduceAverage(int node_id,
                               const std::vector<float*>& buffers, size_t n,
                               TrafficClass traffic);

  /// SubtreeAllReduceAverage billed at per-member wire sizes:
  /// payload_bytes[i] is buffers[i]'s compressed payload (the subtree's
  /// members in worker order) — the hierarchical scheduler's compressed
  /// cluster-local model averaging.
  void SubtreeAllReduceAverageWithPayloads(
      int node_id, const std::vector<float*>& buffers, size_t n,
      const std::vector<size_t>& payload_bytes, TrafficClass traffic);

  /// Partial-participation SubtreeAllReduceAverageWithPayloads:
  /// payload_bytes[i] belongs to the i-th *active* member (the order of
  /// `buffers`).
  void SubtreeAllReduceAverageSubsetWithPayloads(
      int node_id, const std::vector<float*>& buffers,
      const std::vector<char>& active, size_t n,
      const std::vector<size_t>& payload_bytes, TrafficClass traffic);

  /// Bills an escalation state exchange at internal node `node_id`: its
  /// child representatives gather `n` floats to the node's representative
  /// and receive the aggregate back, over that node's link only. No
  /// arithmetic — the scheduler aggregates the states itself. Counts as a
  /// child_exchange_calls entry. `active` (optional full-length per-worker
  /// mask) drops children whose subtrees hold no active workers from the
  /// exchange; null is identical to all-ones.
  void AccountChildExchange(int node_id, size_t n, TrafficClass traffic,
                            const std::vector<char>* active = nullptr);

  /// Simulated duration of one full-model collective of `payload_bytes` per
  /// worker under the configured topology/algorithm (no accounting) — the
  /// async trainer's synchronization stall.
  double ModelSyncSeconds(size_t payload_bytes) const;

  const CommStats& stats() const { return stats_; }
  void ResetStats() { stats_.Clear(); }

 private:
  // The arithmetic: mean over workers into every buffer, chunk-parallel.
  void ReduceMeanIntoAll(const std::vector<float*>& buffers, size_t n);
  // Cost accounting for one AllReduce whose workers transmit
  // `payload_bytes_sum` bytes in total (== K * per-worker payload when
  // uniform).
  void AccountAllReduce(size_t payload_bytes_sum, TrafficClass traffic);
  // Subset counterpart: bills an AllReduce among `participants` only.
  void AccountAllReduceSubset(size_t payload_bytes_sum,
                              const std::vector<int>& participants,
                              TrafficClass traffic);
  // The weighted-mean arithmetic shared by the full and subset weighted
  // collectives (normalizes into weight_scratch_, installs into buffers).
  void WeightedReduceInstall(const std::vector<float*>& buffers,
                             const std::vector<double>& weights, size_t n);
  // Validates a subset participant list (ascending, unique, in range).
  void CheckParticipants(const std::vector<int>& participants,
                         size_t num_buffers) const;
  // Splits a per-depth tree charge across the class and depth breakdowns.
  void ChargeTree(const TreeCost& cost, TrafficClass traffic);
  // The worker's straggler factor (1.0 for worker < 0 or unset factors).
  double WorkerLinkFactor(int worker) const;
  // The worker's leaf group (0 for worker < 0).
  int LeafGroupOf(int worker) const;
  // The worker-factor vector to hand the tree cost model, or null when
  // unset (homogeneous links).
  const std::vector<double>* LinkFactorsOrNull() const;

  int num_workers_;
  TopologyTree tree_;
  AllReduceAlgorithm algorithm_;
  CommStats stats_;
  std::vector<double> weight_scratch_;  // normalized weights per call
  std::vector<double> worker_link_factors_;  // empty => homogeneous links
  std::vector<char> active_scratch_;  // participant mask per subset call
};

}  // namespace fedra

#endif  // FEDRA_SIM_COLLECTIVES_H_
