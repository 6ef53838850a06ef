// SimNetwork: the collectives of the simulated cluster, with exact byte and
// simulated-time accounting. The arithmetic result of AllReduceAverage is
// the exact elementwise mean regardless of the chosen transport algorithm
// or topology (flat vs ring vs recursive-halving vs tree only changes cost
// accounting) — collectives are supposed to be numerically transparent, and
// tests assert this.
//
// One synchronization path: a full round is the subset round with every
// worker present. The four global AllReduce entry points (unmasked or over
// a participant list, billed at n floats or at per-contributor wire sizes)
// are thin names over one body, and a full participant list is
// bit-identical to the unmasked call. Likewise the one cluster-scoped
// SubtreeAllReduceAverage takes an optional participation mask (null ==
// all-ones) and optional wire sizes, and AccountSyncRetriesBytes bills a
// lost contribution's retries at whatever size it had on the wire.
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

  // ------------------------------------------------------ AllReduce --
  // One body serves every global AllReduce: the mean over the
  // contributing buffers installs into each of them, and the call is
  // billed once under the tree's grouped schedule. The four entry points
  // only name which contributors and wire sizes apply:
  //  - the unmasked forms take one buffer per worker (buffers[k] is worker
  //    k's span of n floats);
  //  - the Subset forms take ascending, unique worker ids; buffers[i] is
  //    participants[i]'s span. Absent workers transmit and receive nothing
  //    and keep their state; phases pace on the slowest *participating*
  //    link and empty groups drop out of every phase. A full participant
  //    list is bit-identical to the unmasked form (values, bytes, seconds,
  //    breakdowns, counters);
  //  - the WithPayloads forms bill contributor i at payload_bytes[i] (a
  //    variable-rate codec's wire size) instead of n * sizeof(float), so
  //    the collective costs the exact sum of wire bytes. The arithmetic
  //    still averages the n decompressed floats.

  void AllReduceAverage(const std::vector<float*>& buffers, size_t n,
                        TrafficClass traffic);
  void AllReduceAverageWithPayloads(const std::vector<float*>& buffers,
                                    size_t n,
                                    const std::vector<size_t>& payload_bytes,
                                    TrafficClass traffic);
  void AllReduceAverageSubset(const std::vector<float*>& buffers,
                              const std::vector<int>& participants, size_t n,
                              TrafficClass traffic);
  void AllReduceAverageSubsetWithPayloads(
      const std::vector<float*>& buffers,
      const std::vector<int>& participants, size_t n,
      const std::vector<size_t>& payload_bytes, TrafficClass traffic);

  /// Bills `retries` retransmissions of one lost sync contribution of
  /// `payload_bytes` on the wire (n * sizeof(float) raw, the compressed
  /// size under a codec) from `worker`: retry i waits
  /// backoff_base_seconds * 2^i and resends the payload over the worker's
  /// own path (its link factor; one hop per tier). The backoff stalls the
  /// worker's leaf-tier link and is billed there as backoff + latency +
  /// bytes / bandwidth, the single-tier closed form. Every second and byte
  /// lands in the normal class and depth breakdowns and is additionally
  /// accumulated in CommStats::seconds_retry / retries.
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
  /// of the topology tree. `buffers` are the spans of the subtree's
  /// members in worker order — of its *active* members when `active` (a
  /// full-length per-worker mask) is given; a null mask is bit-identical
  /// to all-ones. The mean installs into every buffer; cost is billed as
  /// gather + broadcast along the subtree's own tiers only — tiers above
  /// `node_id` carry nothing (the hierarchical scheduler's cheap local
  /// averaging). `payload_bytes` (optional, one per buffer) bills each
  /// member at its compressed wire size instead of n * sizeof(float).
  /// Counts as a subtree_allreduce_calls entry, and as subtree_sync_count
  /// (never model_sync_count) when `traffic` is kModelSync.
  void SubtreeAllReduceAverage(
      int node_id, const std::vector<float*>& buffers, size_t n,
      TrafficClass traffic, const std::vector<char>* active = nullptr,
      const std::vector<size_t>* payload_bytes = nullptr);

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
  /// synchronization stall of the trainer's event-ordered schedule.
  double ModelSyncSeconds(size_t payload_bytes) const;

  const CommStats& stats() const { return stats_; }
  void ResetStats() { stats_.Clear(); }

 private:
  // The one AllReduce body: mean over `buffers` installed into each, then
  // one billed call. Null `participants` means one buffer per worker; null
  // `payload_bytes` bills n * sizeof(float) per contributor.
  void AllReduceMean(const std::vector<float*>& buffers,
                     const std::vector<int>* participants, size_t n,
                     const std::vector<size_t>* payload_bytes,
                     TrafficClass traffic);
  // Cost accounting for one AllReduce whose `members` contributors
  // transmit `payload_bytes_sum` bytes in total; `active` (optional
  // per-worker mask) confines it to the participants.
  void AccountAllReduce(size_t payload_bytes_sum, size_t members,
                        const std::vector<char>* active,
                        TrafficClass traffic);
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
  std::vector<double> worker_link_factors_;  // empty => homogeneous links
  std::vector<char> active_scratch_;  // participant mask per subset call
};

}  // namespace fedra

#endif  // FEDRA_SIM_COLLECTIVES_H_
