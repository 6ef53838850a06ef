// Property suite for the arbitrary-depth TopologyTree.
//
// Four locks, per the tree's contract:
//   1. numeric transparency — a tree AllReduce over any random topology
//      produces the flat ref:: oracle's mean, bitwise-identical to the
//      flat engine (topology only changes cost accounting);
//   2. bit-determinism across FEDRA_NUM_THREADS in {1, 4, 16} — checked by
//      re-executing this binary with the env var pinned and comparing
//      result hashes (the global pool size is fixed at first use, so the
//      sweep needs fresh processes);
//   3. depth-2 parity — a random two-tier edge -> cloud tree costs exactly
//      (to the last byte and the last double bit) what the original
//      closed-form two-tier formulas computed; the legacy formulas are
//      kept here verbatim as the independent reference;
//   4. degeneracy — a single-node tree bills every SimNetwork entry point
//      exactly as the single-channel NetworkModel closed forms do.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/collectives.h"
#include "sim/network_model.h"
#include "sim/topology_tree.h"
#include "tensor/ref_ops.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace fedra {
namespace {

std::vector<std::vector<float>> RandomBuffers(int num_workers, size_t n,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> buffers(static_cast<size_t>(num_workers));
  for (auto& buffer : buffers) {
    buffer.resize(n);
    for (auto& x : buffer) {
      x = rng.NextUniform(-5.0f, 5.0f);
    }
  }
  return buffers;
}

std::vector<float*> Pointers(std::vector<std::vector<float>>& buffers) {
  std::vector<float*> pointers;
  for (auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  return pointers;
}

std::vector<const float*> ConstPointers(
    const std::vector<std::vector<float>>& buffers) {
  std::vector<const float*> pointers;
  for (const auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  return pointers;
}

NetworkModel RandomLink(Rng& rng) {
  NetworkModel link;
  link.name = "random";
  link.bandwidth_bytes_per_sec = 1e8 * (1.0 + 50.0 * rng.NextDouble());
  link.latency_seconds = 1e-5 * (1.0 + 100.0 * rng.NextDouble());
  return link;
}

// Random tree: depth 1-4, uneven fan-out 1-4, random links, sometimes
// per-child link factors.
TopologyNode RandomNode(Rng& rng, int remaining_depth) {
  TopologyNode node;
  node.link = RandomLink(rng);
  if (remaining_depth <= 1 || rng.NextBernoulli(0.25)) {
    return node;  // leaf worker group
  }
  const int fanout = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < fanout; ++i) {
    node.children.push_back(RandomNode(rng, remaining_depth - 1));
  }
  if (rng.NextBernoulli(0.5)) {
    for (size_t i = 0; i < node.children.size(); ++i) {
      node.child_link_factors.push_back(1.0 + 3.0 * rng.NextDouble());
    }
  }
  return node;
}

TopologyTree RandomTree(Rng& rng) {
  const int max_depth = 1 + static_cast<int>(rng.NextBounded(4));
  return TopologyTree(RandomNode(rng, max_depth), "random");
}

std::vector<double> RandomFactors(Rng& rng, int num_workers) {
  std::vector<double> factors(static_cast<size_t>(num_workers));
  for (auto& f : factors) {
    f = 1.0 + 4.0 * rng.NextDouble();
  }
  return factors;
}

// ------------------------------------------------- numeric transparency --

TEST(TopologyTreeTest, RandomTreeAllReduceMatchesFlatOracle) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    TopologyTree tree = RandomTree(rng);
    ASSERT_TRUE(tree.Validate().ok()) << tree.ToString();
    const int workers = 1 + static_cast<int>(rng.NextBounded(12));
    const size_t n =
        1 + static_cast<size_t>(rng.NextBounded((size_t{1} << 16) + 7));
    auto original = RandomBuffers(workers, n, 9000 + trial);
    std::vector<float> expected(n);
    ref::ReduceScale(ConstPointers(original).data(),
                     static_cast<size_t>(workers), n, 1.0 / workers,
                     expected.data());

    auto tree_buffers = original;
    auto tree_pointers = Pointers(tree_buffers);
    SimNetwork tree_network(workers, tree, AllReduceAlgorithm::kFlat);
    tree_network.AllReduceAverage(tree_pointers, n,
                                  TrafficClass::kModelSync);

    auto flat_buffers = original;
    auto flat_pointers = Pointers(flat_buffers);
    SimNetwork flat_network(workers, NetworkModel::Hpc(),
                            AllReduceAlgorithm::kFlat);
    flat_network.AllReduceAverage(flat_pointers, n,
                                  TrafficClass::kModelSync);

    for (int k = 0; k < workers; ++k) {
      const auto& got = tree_buffers[static_cast<size_t>(k)];
      for (size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-5)
            << tree.ToString() << " worker " << k << " i " << i;
      }
      // The engine is shared: topology changes cost, never bits.
      ASSERT_EQ(0, std::memcmp(got.data(),
                               flat_buffers[static_cast<size_t>(k)].data(),
                               n * sizeof(float)))
          << tree.ToString() << " worker " << k;
    }
  }
}

TEST(TopologyTreeTest, SubtreeAllReduceAveragesMembersOnly) {
  // 3-tier tree, 8 workers in 4 device groups of 2. Averaging site 0's
  // subtree (workers 0-3) must install the members' mean into exactly
  // those spans, leave workers 4-7 untouched, and bill nothing on the
  // root tier.
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  const int workers = 8;
  const size_t n = (size_t{1} << 15) + 13;
  auto buffers = RandomBuffers(workers, n, 41);
  const auto original = buffers;
  std::vector<float> expected(n);
  {
    auto srcs = ConstPointers(original);
    std::vector<const float*> members(srcs.begin(), srcs.begin() + 4);
    ref::ReduceScale(members.data(), members.size(), n, 1.0 / 4.0,
                     expected.data());
  }
  SimNetwork network(workers, tree, AllReduceAlgorithm::kFlat);
  // Site 0 is node 1 in preorder (root=0, site0=1, devices=2,3, site1=4).
  const int site0 = 1;
  int begin = 0;
  int end = 0;
  network.tree().SubtreeSpan(site0, workers, &begin, &end);
  ASSERT_EQ(begin, 0);
  ASSERT_EQ(end, 4);
  auto pointers = Pointers(buffers);
  std::vector<float*> members(pointers.begin(), pointers.begin() + 4);
  network.SubtreeAllReduceAverage(site0, members, n,
                                  TrafficClass::kModelSync);
  for (int k = 0; k < 4; ++k) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffers[static_cast<size_t>(k)][i], expected[i], 1e-5);
    }
  }
  for (int k = 4; k < 8; ++k) {
    ASSERT_EQ(0, std::memcmp(buffers[static_cast<size_t>(k)].data(),
                             original[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
  const CommStats& stats = network.stats();
  EXPECT_EQ(stats.subtree_allreduce_calls, 1u);
  EXPECT_EQ(stats.subtree_sync_count, 1u);
  EXPECT_EQ(stats.model_sync_count, 0u);
  // Root tier (the uplink) carries nothing; the site and device tiers do.
  EXPECT_EQ(stats.BytesAtDepth(0), 0u);
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(0), 0.0);
  EXPECT_GT(stats.SecondsAtDepth(1), 0.0);
  EXPECT_GT(stats.SecondsAtDepth(2), 0.0);
  const size_t p = n * sizeof(float);
  // Gather+broadcast: device tier moves 2 members per group x 2 groups,
  // site tier 1 child representative, each in both directions.
  EXPECT_EQ(stats.BytesAtDepth(2), 2u * 2u * p);
  EXPECT_EQ(stats.BytesAtDepth(1), 2u * 1u * p);
}

// ------------------------------------------ legacy closed-form reference --

// The two-tier edge -> cloud cost formulas that predate TopologyTree, kept
// verbatim as the independent oracle for the depth-2 parity property.
namespace legacy {

// Two-tier layout: `num_clusters` contiguous cluster blocks (sizes as
// equal as possible), each on its own intra link, cluster leaders joined
// by one uplink.
struct TwoTier {
  int num_clusters = 1;
  std::vector<NetworkModel> cluster_intra;  // one per cluster
  NetworkModel uplink;

  int ClusterSize(int cluster, int num_workers) const {
    const int clusters = std::min(num_clusters, num_workers);
    const int base = num_workers / clusters;
    const int remainder = num_workers % clusters;
    return base + (cluster < remainder ? 1 : 0);
  }

  int ClusterOfWorker(int worker, int num_workers) const {
    int begin = 0;
    const int clusters = std::min(num_clusters, num_workers);
    for (int c = 0; c < clusters; ++c) {
      begin += ClusterSize(c, num_workers);
      if (worker < begin) {
        return c;
      }
    }
    return -1;
  }

  // The same layout as a depth-2 tree: the uplink at the root, one leaf
  // group per cluster on that cluster's intra link.
  TopologyTree ToTree() const {
    TopologyNode root;
    root.link = uplink;
    for (int c = 0; c < num_clusters; ++c) {
      TopologyNode cluster;
      cluster.link = cluster_intra[static_cast<size_t>(c)];
      root.children.push_back(cluster);
    }
    return TopologyTree(std::move(root), "two-tier");
  }
};

struct TierCost {
  double intra_seconds = 0.0;
  double uplink_seconds = 0.0;
  size_t intra_bytes = 0;
  size_t uplink_bytes = 0;
};

double MaxLinkFactor(const std::vector<double>* factors, int begin,
                     int size) {
  if (factors == nullptr) {
    return 1.0;
  }
  double max_factor = 1.0;
  for (int i = begin; i < begin + size; ++i) {
    max_factor = std::max(max_factor, (*factors)[static_cast<size_t>(i)]);
  }
  return max_factor;
}

struct IntraPhase {
  double seconds = 0.0;
  double max_leader_factor = 1.0;
};

IntraPhase SlowestIntraPhase(const TwoTier& h, double payload_bytes,
                             int num_workers,
                             const std::vector<double>* factors) {
  const int clusters = std::min(h.num_clusters, num_workers);
  IntraPhase phase;
  int begin = 0;
  for (int c = 0; c < clusters; ++c) {
    const int size = h.ClusterSize(c, num_workers);
    phase.max_leader_factor = std::max(phase.max_leader_factor,
                                       MaxLinkFactor(factors, begin, 1));
    if (size > 1) {
      const NetworkModel& link = h.cluster_intra[static_cast<size_t>(c)];
      const double factor = MaxLinkFactor(factors, begin, size);
      phase.seconds = std::max(
          phase.seconds,
          link.latency_seconds + static_cast<double>(size - 1) *
                                     payload_bytes /
                                     (link.bandwidth_bytes_per_sec / factor));
    }
    begin += size;
  }
  return phase;
}

TierCost GroupedAllReduceCost(const TwoTier& h, double payload_bytes,
                              int num_workers,
                              AllReduceAlgorithm cross_algorithm,
                              const std::vector<double>* factors) {
  TierCost cost;
  if (num_workers == 1) {
    return cost;
  }
  const int clusters = std::min(h.num_clusters, num_workers);
  const double members = static_cast<double>(num_workers - clusters);
  const size_t member_bytes =
      static_cast<size_t>(std::llround(members * payload_bytes));
  const IntraPhase phase =
      SlowestIntraPhase(h, payload_bytes, num_workers, factors);
  if (phase.seconds > 0.0) {
    cost.intra_seconds += 2.0 * phase.seconds;
    cost.intra_bytes += 2 * member_bytes;
  }
  if (clusters > 1) {
    NetworkModel effective_uplink = h.uplink;
    effective_uplink.bandwidth_bytes_per_sec /= phase.max_leader_factor;
    cost.uplink_seconds += effective_uplink.AllReduceSeconds(
        payload_bytes, clusters, cross_algorithm);
    cost.uplink_bytes += static_cast<size_t>(
        std::llround(NetworkModel::AllReduceTotalBytesFromSum(
            static_cast<double>(clusters) * payload_bytes, clusters,
            cross_algorithm)));
  }
  return cost;
}

TierCost BroadcastCost(const TwoTier& h, size_t payload_bytes,
                       int num_workers, const std::vector<double>* factors) {
  TierCost cost;
  if (num_workers == 1) {
    return cost;
  }
  const int clusters = std::min(h.num_clusters, num_workers);
  const IntraPhase phase = SlowestIntraPhase(
      h, static_cast<double>(payload_bytes), num_workers, factors);
  if (clusters > 1) {
    cost.uplink_seconds += h.uplink.latency_seconds +
                           static_cast<double>(clusters - 1) *
                               static_cast<double>(payload_bytes) /
                               (h.uplink.bandwidth_bytes_per_sec /
                                phase.max_leader_factor);
    cost.uplink_bytes += static_cast<size_t>(clusters - 1) * payload_bytes;
  }
  if (phase.seconds > 0.0) {
    cost.intra_seconds += phase.seconds;
    cost.intra_bytes +=
        static_cast<size_t>(num_workers - clusters) * payload_bytes;
  }
  return cost;
}

TierCost PointToPointCost(const TwoTier& h, size_t payload_bytes,
                          int cluster, double link_factor) {
  const NetworkModel& intra = h.cluster_intra[static_cast<size_t>(cluster)];
  TierCost cost;
  cost.intra_seconds = intra.latency_seconds +
                       static_cast<double>(payload_bytes) /
                           (intra.bandwidth_bytes_per_sec / link_factor);
  cost.intra_bytes = payload_bytes;
  cost.uplink_seconds = h.uplink.latency_seconds +
                        static_cast<double>(payload_bytes) /
                            (h.uplink.bandwidth_bytes_per_sec / link_factor);
  cost.uplink_bytes = payload_bytes;
  return cost;
}

}  // namespace legacy

// Draws a random two-tier layout; half of them give every cluster the same
// intra link, the rest one random link per cluster.
legacy::TwoTier RandomTwoTier(Rng& rng) {
  legacy::TwoTier h;
  h.num_clusters = 1 + static_cast<int>(rng.NextBounded(5));
  const NetworkModel shared_intra = RandomLink(rng);
  h.uplink = RandomLink(rng);
  h.cluster_intra.assign(static_cast<size_t>(h.num_clusters), shared_intra);
  if (rng.NextBernoulli(0.5)) {
    for (auto& link : h.cluster_intra) {
      link = RandomLink(rng);
    }
  }
  return h;
}

// Depth-2 parity to the last byte and the last double bit, randomized over
// cluster counts, heterogeneous intra links, straggler factors, fractional
// (compressed-wire-size) payloads, algorithms, and worker counts.
TEST(TopologyTreeTest, Depth2TreeMatchesLegacyHierarchicalFormulasExactly) {
  Rng rng(7);
  const AllReduceAlgorithm algorithms[] = {
      AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
      AllReduceAlgorithm::kRecursiveHalving};
  for (int trial = 0; trial < 200; ++trial) {
    const legacy::TwoTier h = RandomTwoTier(rng);
    const TopologyTree tree = h.ToTree();
    const int workers =
        h.num_clusters + static_cast<int>(rng.NextBounded(12));
    const double payload =
        rng.NextBernoulli(0.5)
            ? static_cast<double>(4 * (1 + rng.NextBounded(1 << 20)))
            : 1e6 * rng.NextDouble() + 0.37;  // fractional wire size
    const AllReduceAlgorithm algorithm = algorithms[rng.NextBounded(3)];
    std::vector<double> factors;
    const std::vector<double>* factors_ptr = nullptr;
    if (rng.NextBernoulli(0.5)) {
      factors = RandomFactors(rng, workers);
      factors_ptr = &factors;
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " clusters " << h.num_clusters
                 << " workers " << workers << " payload " << payload);

    const auto expected = legacy::GroupedAllReduceCost(
        h, payload, workers, algorithm, factors_ptr);
    const TreeCost got =
        tree.GroupedAllReduceCost(payload, workers, algorithm, factors_ptr);
    EXPECT_EQ(expected.intra_seconds, got.SecondsAt(1));
    EXPECT_EQ(expected.uplink_seconds, got.SecondsAt(0));
    EXPECT_EQ(expected.intra_bytes, got.BytesAt(1));
    EXPECT_EQ(expected.uplink_bytes, got.BytesAt(0));

    const size_t bcast_payload = static_cast<size_t>(payload);
    const auto expected_bcast =
        legacy::BroadcastCost(h, bcast_payload, workers, factors_ptr);
    const TreeCost got_bcast =
        tree.BroadcastCost(bcast_payload, workers, factors_ptr);
    EXPECT_EQ(expected_bcast.intra_seconds, got_bcast.SecondsAt(1));
    EXPECT_EQ(expected_bcast.uplink_seconds, got_bcast.SecondsAt(0));
    EXPECT_EQ(expected_bcast.intra_bytes, got_bcast.BytesAt(1));
    EXPECT_EQ(expected_bcast.uplink_bytes, got_bcast.BytesAt(0));
  }
}

// The same parity at the SimNetwork level: a network over the depth-2 tree
// accounts, for a mixed collective sequence, exactly the legacy per-tier
// charges, summed intra before uplink.
TEST(TopologyTreeTest, Depth2TreeNetworkChargesLegacyFormulasExactly) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const legacy::TwoTier h = RandomTwoTier(rng);
    const int workers =
        h.num_clusters + static_cast<int>(rng.NextBounded(9));
    const size_t n = 1 + rng.NextBounded(5000);
    const size_t payload = n * sizeof(float);
    std::vector<double> factors = RandomFactors(rng, workers);
    const int p2p_worker = static_cast<int>(rng.NextBounded(workers));
    SCOPED_TRACE(::testing::Message() << "trial " << trial);

    SimNetwork network(workers, h.ToTree(), AllReduceAlgorithm::kRing);
    network.SetWorkerLinkFactors(factors);
    auto buffers = RandomBuffers(workers, n, 300 + trial);
    auto pointers = Pointers(buffers);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    network.Broadcast(pointers, n, 0, TrafficClass::kModelSync);
    network.PointToPoint(n, TrafficClass::kLocalState, p2p_worker);

    const legacy::TierCost charges[] = {
        legacy::GroupedAllReduceCost(h, static_cast<double>(payload),
                                     workers, AllReduceAlgorithm::kRing,
                                     &factors),
        legacy::BroadcastCost(h, payload, workers, &factors),
        legacy::PointToPointCost(
            h, payload, h.ClusterOfWorker(p2p_worker, workers),
            factors[static_cast<size_t>(p2p_worker)])};
    double comm_seconds = 0.0;
    double intra_seconds = 0.0;
    double uplink_seconds = 0.0;
    uint64_t intra_bytes = 0;
    uint64_t uplink_bytes = 0;
    for (const legacy::TierCost& charge : charges) {
      comm_seconds += charge.intra_seconds + charge.uplink_seconds;
      intra_seconds += charge.intra_seconds;
      uplink_seconds += charge.uplink_seconds;
      intra_bytes += charge.intra_bytes;
      uplink_bytes += charge.uplink_bytes;
    }
    const CommStats& stats = network.stats();
    EXPECT_EQ(stats.bytes_total, intra_bytes + uplink_bytes);
    EXPECT_EQ(stats.comm_seconds, comm_seconds);
    EXPECT_EQ(stats.SecondsAtDepth(1), intra_seconds);
    EXPECT_EQ(stats.SecondsAtDepth(0), uplink_seconds);
    EXPECT_EQ(stats.BytesAtDepth(0), uplink_bytes);
    EXPECT_EQ(stats.BytesAtDepth(1), intra_bytes);
  }
}

// --------------------------------------------------------- degeneracy ----

// The NetworkModel closed forms a single-tier network bills: one shared
// channel whose bandwidth is divided by the slowest participating link.
namespace single_tier {

struct Charge {
  uint64_t bytes = 0;
  double seconds = 0.0;
};

double Slowest(const std::vector<double>& factors,
               const std::vector<int>& participants) {
  if (factors.empty()) {
    return 1.0;
  }
  double slowest = 1.0;
  for (int w : participants) {
    slowest = std::max(slowest, factors[static_cast<size_t>(w)]);
  }
  return slowest;
}

Charge AllReduce(const NetworkModel& model, AllReduceAlgorithm algorithm,
                 size_t payload_sum, int members, double factor) {
  Charge charge;
  if (members <= 1) {
    return charge;
  }
  NetworkModel effective = model;
  effective.bandwidth_bytes_per_sec /= factor;
  charge.seconds = effective.AllReduceSeconds(
      static_cast<double>(payload_sum) / members, members, algorithm);
  charge.bytes = static_cast<uint64_t>(
      std::llround(NetworkModel::AllReduceTotalBytesFromSum(
          static_cast<double>(payload_sum), members, algorithm)));
  return charge;
}

// One transfer of `payload` bytes over the channel at the given slowdown,
// after `stall` seconds of backoff.
Charge Hop(const NetworkModel& model, size_t payload, double factor,
           double stall = 0.0) {
  Charge charge;
  charge.bytes = payload;
  charge.seconds = stall + model.latency_seconds +
                   static_cast<double>(payload) /
                       (model.bandwidth_bytes_per_sec / factor);
  return charge;
}

}  // namespace single_tier

// A single-tier network (the NetworkModel constructor) bills a mixed
// collective sequence, and predicts its model sync, exactly as the closed
// forms do.
TEST(TopologyTreeTest, SingleNodeTreeMatchesFlatNetworkExactly) {
  Rng rng(55);
  const AllReduceAlgorithm algorithms[] = {
      AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
      AllReduceAlgorithm::kRecursiveHalving};
  for (int trial = 0; trial < 30; ++trial) {
    const NetworkModel model = RandomLink(rng);
    const int workers = 1 + static_cast<int>(rng.NextBounded(10));
    const size_t n = 1 + rng.NextBounded(4096);
    const size_t payload = n * sizeof(float);
    const AllReduceAlgorithm algorithm = algorithms[rng.NextBounded(3)];
    const bool with_factors = rng.NextBernoulli(0.5);
    std::vector<double> factors =
        with_factors ? RandomFactors(rng, workers) : std::vector<double>();
    const int p2p_worker = static_cast<int>(rng.NextBounded(workers));
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " workers " << workers
                 << " algorithm " << AllReduceAlgorithmName(algorithm));

    SimNetwork network(workers, model, algorithm);
    if (with_factors) {
      network.SetWorkerLinkFactors(factors);
    }
    auto buffers = RandomBuffers(workers, n, 800 + trial);
    auto pointers = Pointers(buffers);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    network.Broadcast(pointers, n, 0, TrafficClass::kLocalState);
    network.PointToPoint(n, TrafficClass::kLocalState, p2p_worker);

    std::vector<int> everyone;
    for (int w = 0; w < workers; ++w) {
      everyone.push_back(w);
    }
    const double slowest = single_tier::Slowest(factors, everyone);
    const single_tier::Charge sync = single_tier::AllReduce(
        model, algorithm, payload * static_cast<size_t>(workers), workers,
        slowest);
    const single_tier::Charge bcast =
        workers > 1 ? single_tier::Hop(
                          model, payload * static_cast<size_t>(workers - 1),
                          slowest)
                    : single_tier::Charge();
    const single_tier::Charge p2p = single_tier::Hop(
        model, payload,
        with_factors ? factors[static_cast<size_t>(p2p_worker)] : 1.0);
    const double comm_seconds = sync.seconds + bcast.seconds + p2p.seconds;
    const CommStats& stats = network.stats();
    EXPECT_EQ(stats.bytes_total, sync.bytes + bcast.bytes + p2p.bytes);
    EXPECT_EQ(stats.comm_seconds, comm_seconds);
    EXPECT_EQ(stats.seconds_local_state, bcast.seconds + p2p.seconds);
    EXPECT_EQ(stats.seconds_model_sync, sync.seconds);
    EXPECT_EQ(stats.BytesAtDepth(0), stats.bytes_total);
    EXPECT_EQ(stats.SecondsAtDepth(0), comm_seconds);
    EXPECT_EQ(stats.SecondsAtDepth(1), 0.0);
    EXPECT_EQ(network.ModelSyncSeconds(payload), sync.seconds);
  }
}

// Every SimNetwork entry point on a single-tier network, each on a fresh
// network, against the closed forms above — bit-for-bit, over random
// links, worker counts, algorithms, straggler factors, participation masks
// and variable wire sizes.
TEST(TopologyTreeTest, SingleTierEntryPointsMatchClosedFormsExactly) {
  Rng rng(4242);
  const AllReduceAlgorithm algorithms[] = {
      AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
      AllReduceAlgorithm::kRecursiveHalving};
  for (int trial = 0; trial < 200; ++trial) {
    const NetworkModel model = RandomLink(rng);
    const int workers = 1 + static_cast<int>(rng.NextBounded(12));
    const size_t n = 1 + rng.NextBounded(4096);
    const size_t payload = n * sizeof(float);
    const AllReduceAlgorithm algorithm = algorithms[rng.NextBounded(3)];
    std::vector<double> factors;
    if (rng.NextBernoulli(0.5)) {
      factors = RandomFactors(rng, workers);
    }
    std::vector<int> everyone;
    std::vector<int> subset;
    for (int w = 0; w < workers; ++w) {
      everyone.push_back(w);
      if (rng.NextBernoulli(0.6)) {
        subset.push_back(w);
      }
    }
    std::vector<size_t> wire(static_cast<size_t>(workers));
    for (auto& bytes : wire) {
      bytes = 1 + rng.NextBounded(payload);
    }
    std::vector<size_t> subset_wire;
    std::vector<double> subset_weights;
    size_t wire_sum = 0;
    size_t subset_wire_sum = 0;
    for (int w : everyone) {
      wire_sum += wire[static_cast<size_t>(w)];
    }
    for (int w : subset) {
      subset_wire.push_back(wire[static_cast<size_t>(w)]);
      subset_wire_sum += wire[static_cast<size_t>(w)];
      subset_weights.push_back(0.5 + rng.NextDouble());
    }
    const int worker = static_cast<int>(rng.NextBounded(workers));
    const double worker_factor =
        factors.empty() ? 1.0 : factors[static_cast<size_t>(worker)];
    const int retries = 1 + static_cast<int>(rng.NextBounded(4));
    const double backoff = 1e-3 * rng.NextDouble();
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " workers " << workers
                 << " algorithm " << AllReduceAlgorithmName(algorithm)
                 << " subset " << subset.size());

    auto fresh = [&] {
      SimNetwork network(workers, TopologyTree::SingleTier(model),
                         algorithm);
      if (!factors.empty()) {
        network.SetWorkerLinkFactors(factors);
      }
      return network;
    };
    auto expect_charged = [](const CommStats& stats,
                             const single_tier::Charge& charge) {
      EXPECT_EQ(stats.bytes_total, charge.bytes);
      EXPECT_EQ(stats.comm_seconds, charge.seconds);
      EXPECT_EQ(stats.BytesAtDepth(0), charge.bytes);
      EXPECT_EQ(stats.SecondsAtDepth(0), charge.seconds);
      EXPECT_EQ(stats.seconds_local_state + stats.seconds_model_sync,
                charge.seconds);
    };
    auto buffers = RandomBuffers(workers, n, 500 + trial);
    auto pointers = Pointers(buffers);
    std::vector<float*> subset_pointers;
    for (int w : subset) {
      subset_pointers.push_back(pointers[static_cast<size_t>(w)]);
    }
    const double all_factor = single_tier::Slowest(factors, everyone);
    const double subset_factor = single_tier::Slowest(factors, subset);

    {
      {
        SimNetwork network = fresh();
        network.AllReduceAverageWithPayloads(pointers, n, wire,
                                             TrafficClass::kModelSync);
        expect_charged(network.stats(),
                       single_tier::AllReduce(model, algorithm, wire_sum,
                                              workers, all_factor));
      }
      {
        SimNetwork network = fresh();
        network.AllReduceAverageSubset(subset_pointers, subset, n,
                                       TrafficClass::kModelSync);
        expect_charged(
            network.stats(),
            single_tier::AllReduce(model, algorithm, payload * subset.size(),
                                   static_cast<int>(subset.size()),
                                   subset_factor));
      }
      {
        SimNetwork network = fresh();
        network.AllReduceAverageSubsetWithPayloads(
            subset_pointers, subset, n, subset_wire,
            TrafficClass::kLocalState);
        expect_charged(
            network.stats(),
            single_tier::AllReduce(model, algorithm, subset_wire_sum,
                                   static_cast<int>(subset.size()),
                                   subset_factor));
      }
      if (!subset.empty()) {
        SimNetwork network = fresh();
        network.AllReduceWeightedAverageSubset(subset_pointers, subset,
                                               subset_weights, n,
                                               TrafficClass::kModelSync);
        expect_charged(
            network.stats(),
            single_tier::AllReduce(model, algorithm, payload * subset.size(),
                                   static_cast<int>(subset.size()),
                                   subset_factor));
      }
      {
        SimNetwork network = fresh();
        network.AccountCheckInSync(n, worker);
        expect_charged(network.stats(),
                       single_tier::Hop(model, payload, worker_factor));
        EXPECT_EQ(network.stats().check_in_syncs, 1u);
        EXPECT_EQ(network.stats().bytes_model_downlink, payload);
      }
      {
        SimNetwork network = fresh();
        network.AccountCatchUpSync(n, worker);
        expect_charged(network.stats(),
                       single_tier::Hop(model, payload, worker_factor));
        EXPECT_EQ(network.stats().catch_up_syncs, 1u);
        EXPECT_EQ(network.stats().bytes_model_downlink, payload);
      }
      for (size_t retry_payload : {payload, wire[0]}) {
        SimNetwork network = fresh();
        if (retry_payload == payload) {
          network.AccountSyncRetries(worker, n, retries, backoff,
                                     TrafficClass::kModelSync);
        } else {
          network.AccountSyncRetriesBytes(worker, retry_payload, retries,
                                          backoff, TrafficClass::kModelSync);
        }
        single_tier::Charge expected;
        for (int attempt = 0; attempt < retries; ++attempt) {
          const single_tier::Charge hop =
              single_tier::Hop(model, retry_payload, worker_factor,
                               std::ldexp(backoff, attempt));
          expected.bytes += hop.bytes;
          expected.seconds += hop.seconds;
        }
        expect_charged(network.stats(), expected);
        EXPECT_EQ(network.stats().seconds_retry, expected.seconds);
        EXPECT_EQ(network.stats().retries, static_cast<uint64_t>(retries));
      }
    }
  }
}

// ---------------------------------------------------- three-tier golden --

TEST(TopologyTreeTest, ThreeTierGroupedAllReduceGolden) {
  // Hand-computed closed form for a fixed 3-tier tree: root (1e-2 s,
  // 1e8 B/s) over 2 sites (1e-3 s, 1e9 B/s) over 2 device groups each
  // (1e-4 s, 2e9 B/s); K = 8 workers -> groups of 2.
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  for (int s = 0; s < 2; ++s) {
    TopologyNode site;
    site.link.bandwidth_bytes_per_sec = 1e9;
    site.link.latency_seconds = 1e-3;
    for (int g = 0; g < 2; ++g) {
      TopologyNode devices;
      devices.link.bandwidth_bytes_per_sec = 2e9;
      devices.link.latency_seconds = 1e-4;
      site.children.push_back(devices);
    }
    root.children.push_back(site);
  }
  TopologyTree tree(root, "golden3tier");
  ASSERT_EQ(tree.depth(), 3);
  ASSERT_EQ(tree.num_leaf_groups(), 4);

  const size_t n = 1024;
  const double p = static_cast<double>(n * sizeof(float));
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 8, AllReduceAlgorithm::kFlat);
  // Device tier: each group gathers 1 member payload; 4 transfers per
  // direction; phases are symmetric up/down.
  const double device_phase = 1e-4 + p / 2e9;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(2), 2.0 * device_phase);
  EXPECT_EQ(cost.BytesAt(2), 2u * 4u * static_cast<uint64_t>(p));
  // Site tier: each site gathers 1 child-representative payload.
  const double site_phase = 1e-3 + p / 1e9;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * site_phase);
  EXPECT_EQ(cost.BytesAt(1), 2u * 2u * static_cast<uint64_t>(p));
  // Root tier: flat AllReduce of the 2 site representatives.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), 1e-2 + 2.0 * p / 1e8);
  EXPECT_EQ(cost.BytesAt(0), 2u * static_cast<uint64_t>(p));

  // The SimNetwork charge splits match: depth 0 is the uplink, the deeper
  // tiers the rest, and everything sums to comm_seconds.
  SimNetwork network(8, tree, AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(8, n, 17);
  auto pointers = Pointers(buffers);
  const double predicted = network.ModelSyncSeconds(n * sizeof(float));
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  const CommStats& stats = network.stats();
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(0), cost.SecondsAt(0));
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(1) + stats.SecondsAtDepth(2),
                   cost.SecondsAt(1) + cost.SecondsAt(2));
  EXPECT_DOUBLE_EQ(stats.comm_seconds, predicted);
  EXPECT_NEAR(stats.SecondsAtDepth(0) + stats.SecondsAtDepth(1) +
                  stats.SecondsAtDepth(2),
              stats.comm_seconds, 1e-15);
  EXPECT_EQ(stats.bytes_total,
            cost.BytesAt(0) + cost.BytesAt(1) + cost.BytesAt(2));

  // Point-to-point crosses all three tiers: one hop per depth.
  network.ResetStats();
  network.PointToPoint(100, TrafficClass::kLocalState, /*worker=*/5);
  const size_t p2p = 400;
  EXPECT_EQ(network.stats().bytes_total, 3u * p2p);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(2),
                   1e-4 + static_cast<double>(p2p) / 2e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-3 + static_cast<double>(p2p) / 1e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p2p) / 1e8);
}

TEST(TopologyTreeTest, PerChildLinkFactorsSlowTheParentTier) {
  // Two sites; site 1's edge into the root is 5x slow. The root gather is
  // paced by that child, the site-internal phases are not.
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  for (int s = 0; s < 2; ++s) {
    TopologyNode site;
    site.link.bandwidth_bytes_per_sec = 1e9;
    site.link.latency_seconds = 1e-3;
    root.children.push_back(site);
  }
  root.child_link_factors = {1.0, 5.0};
  TopologyTree tree(root, "slowchild");
  const double p = 1 << 20;
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat);
  // Root AllReduce at bandwidth / 5.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), 1e-2 + 2.0 * p / (1e8 / 5.0));
  // Site gathers keep their own full links.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * (1e-3 + p / 1e9));
}

// ------------------------------------------------------- worker layout ----

TEST(TopologyTreeTest, WorkerLayoutIsContiguousBalancedAndConsistent) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    TopologyTree tree = RandomTree(rng);
    const int groups = tree.num_leaf_groups();
    const int workers = 1 + static_cast<int>(rng.NextBounded(
                                static_cast<uint64_t>(3 * groups + 4)));
    int covered = 0;
    for (int g = 0; g < groups; ++g) {
      ASSERT_EQ(tree.GroupBegin(g, workers), covered);
      covered += tree.GroupSize(g, workers);
    }
    ASSERT_EQ(covered, workers);
    for (int w = 0; w < workers; ++w) {
      const int g = tree.LeafGroupOfWorker(w, workers);
      ASSERT_GE(w, tree.GroupBegin(g, workers));
      ASSERT_LT(w, tree.GroupBegin(g, workers) + tree.GroupSize(g, workers));
    }
    // Sizes differ by at most one and are non-increasing (balanced fill).
    for (int g = 1; g < groups; ++g) {
      ASSERT_LE(tree.GroupSize(g, workers), tree.GroupSize(g - 1, workers));
      ASSERT_GE(tree.GroupSize(g, workers),
                tree.GroupSize(g - 1, workers) - 1);
    }
  }
}

TEST(TopologyTreeTest, Depth2LayoutMatchesHierarchicalClusterBlocks) {
  legacy::TwoTier h;
  h.num_clusters = 3;
  TopologyTree tree = TopologyTree::EdgeCloud(3);
  ASSERT_EQ(tree.depth(), 2);
  ASSERT_EQ(tree.num_leaf_groups(), 3);
  for (int workers : {3, 4, 7, 8, 11}) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(tree.GroupSize(c, workers), h.ClusterSize(c, workers))
          << "workers " << workers << " cluster " << c;
    }
    for (int w = 0; w < workers; ++w) {
      EXPECT_EQ(tree.LeafGroupOfWorker(w, workers),
                h.ClusterOfWorker(w, workers))
          << "workers " << workers << " worker " << w;
    }
  }
}

// --------------------------------- bit-determinism across thread counts --

// FNV-1a over the raw float bytes of every worker buffer.
uint64_t HashBuffers(const std::vector<std::vector<float>>& buffers) {
  uint64_t hash = 1469598103934665603ull;
  for (const auto& buffer : buffers) {
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(buffer.data());
    for (size_t i = 0; i < buffer.size() * sizeof(float); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// The deterministic workload whose result hash must be identical for any
// pool size: a large tree AllReduce + a subtree AllReduce spanning several
// reduction-engine chunks.
uint64_t ComputeThreadSweepHash() {
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  const int workers = 8;
  const size_t n = (size_t{1} << 17) + 311;
  auto buffers = RandomBuffers(workers, n, 4242);
  auto pointers = Pointers(buffers);
  SimNetwork network(workers, tree, AllReduceAlgorithm::kRing);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  std::vector<float*> site0(pointers.begin(), pointers.begin() + 4);
  network.SubtreeAllReduceAverage(1, site0, n, TrafficClass::kModelSync);
  return HashBuffers(buffers);
}

// Prints the workload hash; also a plain determinism check within one
// process. The sweep test below re-runs this test in child processes with
// FEDRA_NUM_THREADS pinned.
TEST(TopologyTreeThreadSweepTest, HashModePrintsWorkloadHash) {
  const uint64_t hash = ComputeThreadSweepHash();
  EXPECT_EQ(hash, ComputeThreadSweepHash());
  std::printf("TREEHASH %s\n", testing::HexHash(hash).c_str());
}

TEST(TopologyTreeThreadSweepTest, BitIdenticalAcrossThreadCounts) {
  if (testing::SkipThreadSweep()) {
    GTEST_SKIP() << "sweep child, or no /proc/self/exe to re-execute";
  }
  // Each child (and this process, at whatever pool size it runs) must
  // produce the same hash; a failed child returns "child-failed".
  const std::string expected = testing::HexHash(ComputeThreadSweepHash());
  for (int threads : {1, 4, 16}) {
    EXPECT_EQ(testing::RunWithThreads(threads,
                                      "TopologyTreeThreadSweepTest."
                                      "HashModePrintsWorkloadHash",
                                      "TREEHASH"),
              expected)
        << threads << " threads";
  }
}

// ----------------------------------------------------------- validation --

TEST(TopologyTreeTest, ValidateRejectsBadLinksAndFactors) {
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 0.0;
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.link.bandwidth_bytes_per_sec = 1e9;
  root.link.latency_seconds = -1.0;
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.link.latency_seconds = 1e-3;
  TopologyNode child;
  child.link = root.link;
  root.children.push_back(child);
  root.child_link_factors = {0.5};  // speedups are not allowed
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.child_link_factors = {2.0};
  EXPECT_TRUE(TopologyTree(root).Validate().ok());
  EXPECT_FALSE(TopologyTree().enabled());
}

TEST(TopologyTreeTest, PresetShapes) {
  const TopologyTree single = TopologyTree::SingleTier(NetworkModel::Hpc());
  EXPECT_EQ(single.depth(), 1);
  EXPECT_EQ(single.num_leaf_groups(), 1);
  const TopologyTree dsc = TopologyTree::DeviceSiteCloud(3, 2);
  EXPECT_EQ(dsc.depth(), 3);
  EXPECT_EQ(dsc.num_leaf_groups(), 6);
  EXPECT_EQ(dsc.num_nodes(), 1 + 3 + 6);
  const TopologyTree two = TopologyTree::EdgeCloud(4);
  EXPECT_EQ(two.depth(), 2);
  EXPECT_EQ(two.num_leaf_groups(), 4);
  // A Federated() uplink at the root over EdgeLan() cluster links.
  const NetworkModel uplink = NetworkModel::Federated();
  const NetworkModel edge = NetworkModel::EdgeLan();
  EXPECT_EQ(two.node(0).link.bandwidth_bytes_per_sec,
            uplink.bandwidth_bytes_per_sec);
  EXPECT_EQ(two.node(0).link.latency_seconds, uplink.latency_seconds);
  for (int g = 0; g < 4; ++g) {
    const TopologyTree::Node& leaf = two.node(two.NodeOfLeafGroup(g));
    EXPECT_EQ(leaf.link.bandwidth_bytes_per_sec,
              edge.bandwidth_bytes_per_sec);
    EXPECT_EQ(leaf.link.latency_seconds, edge.latency_seconds);
  }
}

}  // namespace
}  // namespace fedra
