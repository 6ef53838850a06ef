// Collectives regression suite: the parallel reduction engine is
// numerically transparent (identical means for every transport algorithm
// and topology, matching the serial scalar oracle), bit-deterministic
// across runs, and the byte/time accounting matches the cost model
// formulas exactly — including the three historical accounting bugs: flat
// AllReduce time now charges K payloads through the shared channel,
// Broadcast bills K-1 transfers (and counts as a broadcast, not an
// AllReduce), and variable-size compressed payloads are billed at the
// per-worker sum.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/collectives.h"
#include "sim/network_model.h"
#include "sim/topology_tree.h"
#include "tensor/ref_ops.h"
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

// A network model with round-number parameters so golden values are exact.
NetworkModel TestModel() {
  NetworkModel model;
  model.name = "test";
  model.bandwidth_bytes_per_sec = 1e9;
  model.latency_seconds = 1e-3;
  return model;
}

// The intra-cluster link of the two-tier tests: 2 GB/s, 0.1 ms.
NetworkModel TestIntra() {
  NetworkModel model = TestModel();
  model.bandwidth_bytes_per_sec = 2e9;
  model.latency_seconds = 1e-4;
  return model;
}

// ----------------------------------------------------- numeric parity ----

// The engine's mean must be independent of the transport algorithm and
// topology (they only change cost accounting), and must match the serial
// scalar oracle. Spans larger than one 32768-element pool chunk exercise
// the chunked parallel path.
TEST(ReductionEngineTest, MeanMatchesOracleForEveryAlgorithmAndTopology) {
  for (int workers : {2, 5, 8}) {
    for (size_t n : {size_t{1}, size_t{37}, size_t{1} << 13,
                     (size_t{1} << 16) + 7}) {
      auto original = RandomBuffers(workers, n, 1000 + n + workers);
      std::vector<float> expected(n);
      ref::ReduceScale(ConstPointers(original).data(),
                       static_cast<size_t>(workers), n,
                       1.0 / workers, expected.data());

      auto run = [&](SimNetwork network) {
        auto buffers = original;
        auto pointers = Pointers(buffers);
        network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
        return buffers;
      };
      const auto flat = run(SimNetwork(workers, TestModel(),
                                       AllReduceAlgorithm::kFlat));
      const auto ring = run(SimNetwork(workers, TestModel(),
                                       AllReduceAlgorithm::kRing));
      const auto halving = run(SimNetwork(
          workers, TestModel(), AllReduceAlgorithm::kRecursiveHalving));
      const auto grouped = run(SimNetwork(
          workers, TopologyTree::EdgeCloud(2), AllReduceAlgorithm::kFlat));

      for (int k = 0; k < workers; ++k) {
        for (size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(flat[static_cast<size_t>(k)][i], expected[i], 1e-5)
              << "worker " << k << " i " << i;
          // Identical engine => bitwise-identical results across transports.
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    ring[static_cast<size_t>(k)][i]);
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    halving[static_cast<size_t>(k)][i]);
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    grouped[static_cast<size_t>(k)][i]);
        }
      }
    }
  }
}

TEST(ReductionEngineTest, BitDeterministicAcrossRuns) {
  const int workers = 7;
  const size_t n = (size_t{1} << 17) + 311;  // several pool chunks
  auto original = RandomBuffers(workers, n, 77);
  auto run = [&] {
    auto buffers = original;
    auto pointers = Pointers(buffers);
    SimNetwork network(workers, NetworkModel::Hpc(),
                       AllReduceAlgorithm::kRing);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    return buffers;
  };
  const auto a = run();
  const auto b = run();
  for (int k = 0; k < workers; ++k) {
    ASSERT_EQ(0, std::memcmp(a[static_cast<size_t>(k)].data(),
                             b[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
}

TEST(ReductionEngineTest, ReduceMeanIntoMatchesOracle) {
  // The trainers' eval-model averaging helper (no accounting).
  const size_t n = (size_t{1} << 16) + 9;
  const int workers = 6;
  auto buffers = RandomBuffers(workers, n, 321);
  std::vector<float> expected(n), got(n);
  auto srcs = ConstPointers(buffers);
  ref::ReduceScale(srcs.data(), srcs.size(), n, 1.0 / workers,
                   expected.data());
  ReduceMeanInto(srcs.data(), srcs.size(), n, got.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-5);
  }
}

// ------------------------------------------------ accounting goldens ----

TEST(AccountingTest, FlatTimeChargesKPayloadsThroughSharedChannel) {
  // Historical bug: flat time charged 1 payload while flat bytes charged K.
  const size_t n = 100;
  const size_t payload = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 1);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, workers * payload);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds,
                   1e-3 + static_cast<double>(workers * payload) / 1e9);
}

TEST(AccountingTest, RecursiveHalvingFormulas) {
  const size_t payload = 1000;
  // K = 8: 3 halving + 3 doubling rounds, 2 * 7/8 payload per worker.
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(
                payload, 8, AllReduceAlgorithm::kRecursiveHalving),
            2u * payload * 7u);
  EXPECT_DOUBLE_EQ(TestModel().AllReduceSeconds(
                       payload, 8, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * 3 * 1e-3 + 2.0 * 7 * payload / (8 * 1e9));
  // Non-power-of-two K = 5: ceil(log2 5) = 3 rounds each way.
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(
                payload, 5, AllReduceAlgorithm::kRecursiveHalving),
            2u * payload * 4u);
  EXPECT_DOUBLE_EQ(TestModel().AllReduceSeconds(
                       payload, 5, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * 3 * 1e-3 + 2.0 * 4 * payload / (5 * 1e9));
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(
                payload, 1, AllReduceAlgorithm::kRecursiveHalving),
            0u);
}

TEST(AccountingTest, HalvingBeatsRingOnLatencyBoundPayloads) {
  // The reason kRecursiveHalving exists: log K latency rounds instead of
  // 2 (K-1). Tiny payload on a high-latency link => halving wins.
  NetworkModel model = NetworkModel::Federated();
  const double ring =
      model.AllReduceSeconds(64, 16, AllReduceAlgorithm::kRing);
  const double halving =
      model.AllReduceSeconds(64, 16, AllReduceAlgorithm::kRecursiveHalving);
  EXPECT_LT(halving, ring);
}

TEST(AccountingTest, BroadcastBillsKMinusOneTransfers) {
  // Historical bugs: Broadcast charged one transfer's time regardless of
  // fan-out, counted as an allreduce, and never counted as a model sync.
  const size_t n = 128;
  const size_t payload = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 2);
  auto pointers = Pointers(buffers);
  network.Broadcast(pointers, n, /*root=*/1, TrafficClass::kModelSync);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buffer[i], buffers[1][i]);
    }
  }
  EXPECT_EQ(network.stats().broadcast_calls, 1u);
  EXPECT_EQ(network.stats().allreduce_calls, 0u);
  EXPECT_EQ(network.stats().model_sync_count, 1u);
  EXPECT_EQ(network.stats().bytes_total, 3u * payload);
  EXPECT_EQ(network.stats().bytes_model_sync, 3u * payload);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds,
                   1e-3 + 3.0 * payload / 1e9);
}

TEST(AccountingTest, BroadcastLocalStateDoesNotCountAsModelSync) {
  const int workers = 3;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, 8, 3);
  auto pointers = Pointers(buffers);
  network.Broadcast(pointers, 8, /*root=*/0, TrafficClass::kLocalState);
  EXPECT_EQ(network.stats().broadcast_calls, 1u);
  EXPECT_EQ(network.stats().model_sync_count, 0u);
  EXPECT_EQ(network.stats().bytes_local_state, network.stats().bytes_total);
}

TEST(AccountingTest, VariablePayloadsBillThePerWorkerSum) {
  // Historical bug: the compressed-sync path billed the collective at the
  // *last* worker's wire size. With per-worker sizes the total is the sum.
  const size_t n = 64;
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 4);
  auto pointers = Pointers(buffers);
  const std::vector<size_t> payloads = {100, 200, 300, 400};
  network.AllReduceAverageWithPayloads(pointers, n, payloads,
                                       TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, 1000u);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, 1e-3 + 1000.0 / 1e9);
  // The sum-based byte mapping is shared by every algorithm: ring moves
  // 2 (K-1)/K of the summed wire size.
  EXPECT_DOUBLE_EQ(NetworkModel::AllReduceTotalBytesFromSum(
                       1000.0, 4, AllReduceAlgorithm::kRing),
                   1500.0);
  // The arithmetic still averaged the n floats exactly.
  std::vector<float> expected(n);
  auto original = RandomBuffers(workers, n, 4);
  ref::ReduceScale(ConstPointers(original).data(),
                   static_cast<size_t>(workers), n, 1.0 / workers,
                   expected.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(buffers[0][i], expected[i], 1e-5);
  }
}

TEST(AccountingTest, PerTrafficClassSecondsSumToTotal) {
  SimNetwork network(4, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(4, 256, 5);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, 2, TrafficClass::kLocalState);
  network.AllReduceAverage(pointers, 256, TrafficClass::kModelSync);
  network.PointToPoint(16, TrafficClass::kLocalState);
  const CommStats& stats = network.stats();
  EXPECT_GT(stats.seconds_local_state, 0.0);
  EXPECT_GT(stats.seconds_model_sync, 0.0);
  // The splits accumulate in separate doubles; sums agree up to rounding.
  EXPECT_NEAR(stats.seconds_local_state + stats.seconds_model_sync,
              stats.comm_seconds, 1e-12);
  EXPECT_NEAR(stats.SecondsAtDepth(1) + stats.SecondsAtDepth(0),
              stats.comm_seconds, 1e-12);
  EXPECT_EQ(stats.p2p_calls, 1u);
}

// --------------------------------------------------------- hierarchical ----

// Two-tier test topology: `num_clusters` leaf groups on a 2 GB/s intra
// link under a 100 MB/s uplink. `cluster_intra`, when given, replaces the
// intra link per cluster (one entry each). Depth 0 is the uplink, depth 1
// the intra tier.
TopologyTree TestHierarchy(int num_clusters,
                           std::vector<NetworkModel> cluster_intra = {}) {
  TopologyNode root;
  root.name = "uplink";
  root.link = TestModel();
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  for (int c = 0; c < num_clusters; ++c) {
    TopologyNode cluster;
    cluster.name = "cluster" + std::to_string(c);
    cluster.link = TestIntra();
    if (!cluster_intra.empty()) {
      cluster.link = cluster_intra[static_cast<size_t>(c)];
    }
    root.children.push_back(cluster);
  }
  return TopologyTree(std::move(root), "test2tier");
}

TEST(HierarchicalTest, SingleClusterMatchesFlatNumerically) {
  const int workers = 6;
  const size_t n = (size_t{1} << 15) + 3;
  auto original = RandomBuffers(workers, n, 6);

  auto flat_buffers = original;
  auto flat_pointers = Pointers(flat_buffers);
  SimNetwork flat(workers, TestModel(), AllReduceAlgorithm::kFlat);
  flat.AllReduceAverage(flat_pointers, n, TrafficClass::kModelSync);

  auto grouped_buffers = original;
  auto grouped_pointers = Pointers(grouped_buffers);
  SimNetwork grouped(workers, TestHierarchy(1), AllReduceAlgorithm::kFlat);
  grouped.AllReduceAverage(grouped_pointers, n, TrafficClass::kModelSync);

  for (int k = 0; k < workers; ++k) {
    ASSERT_EQ(0, std::memcmp(flat_buffers[static_cast<size_t>(k)].data(),
                             grouped_buffers[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
  // One cluster: no uplink traffic at all; gather + broadcast stay intra.
  EXPECT_EQ(grouped.stats().bytes_total,
            2u * 5u * n * sizeof(float));  // 2 phases x (K-1) payloads
  EXPECT_GT(grouped.stats().SecondsAtDepth(1), 0.0);
  EXPECT_DOUBLE_EQ(grouped.stats().SecondsAtDepth(0), 0.0);
  EXPECT_DOUBLE_EQ(grouped.stats().SecondsAtDepth(1),
                   grouped.stats().comm_seconds);
}

TEST(HierarchicalTest, TwoClusterGroupedAllReduceGolden) {
  // K = 4 workers in 2 clusters of 2. Per-worker payload p:
  //   gather:    intra latency + 1 payload over the 2 GB/s link, 2p bytes
  //   cross:     flat AllReduce of 2 leaders over the uplink, 2p bytes
  //   broadcast: same as gather.
  const size_t n = 1024;
  const size_t p = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestHierarchy(2), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 7);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  const CommStats& stats = network.stats();
  const double intra_phase = 1e-4 + static_cast<double>(p) / 2e9;
  const double uplink_phase = 1e-2 + 2.0 * static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(1), 2.0 * intra_phase);
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(0), uplink_phase);
  EXPECT_DOUBLE_EQ(stats.comm_seconds, 2.0 * intra_phase + uplink_phase);
  EXPECT_EQ(stats.bytes_total, 6u * p);
  EXPECT_EQ(stats.bytes_model_sync, 6u * p);
  EXPECT_EQ(stats.model_sync_count, 1u);
}

TEST(HierarchicalTest, ModelSyncSecondsMatchesAccountedCharge) {
  const size_t n = 4096;
  const int workers = 8;
  SimNetwork network(workers, TestHierarchy(2),
                     AllReduceAlgorithm::kRecursiveHalving);
  auto buffers = RandomBuffers(workers, n, 8);
  auto pointers = Pointers(buffers);
  const double predicted = network.ModelSyncSeconds(n * sizeof(float));
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, predicted);
}

TEST(HierarchicalTest, PointToPointCrossesBothTiers) {
  SimNetwork network(4, TestHierarchy(2), AllReduceAlgorithm::kFlat);
  network.PointToPoint(100, TrafficClass::kLocalState);
  const size_t p = 400;
  EXPECT_EQ(network.stats().bytes_total, 2u * p);  // intra hop + uplink hop
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / 2e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p) / 1e8);
}

TEST(HierarchicalTest, UnevenClustersUseLargestForTime) {
  // K = 5 in 2 clusters -> sizes {3, 2}; phases pace on the 3-cluster.
  const size_t p = 1000;
  const TopologyTree h = TestHierarchy(2);
  EXPECT_EQ(h.GroupSize(0, 5), 3);
  const TreeCost cost =
      h.GroupedAllReduceCost(p, 5, AllReduceAlgorithm::kFlat);
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1),
                   2.0 * (1e-4 + 2.0 * static_cast<double>(p) / 2e9));
  // Members: 5 workers - 2 leaders = 3 payloads per intra phase.
  EXPECT_EQ(cost.BytesAt(1), 2u * 3u * p);
}

TEST(HierarchicalTest, PerClusterIntraLinksDefaultToSharedModel) {
  // Spelling out per-cluster copies of the shared intra link must not
  // change any cost — the heterogeneous path degenerates bit-exactly.
  const size_t p = 1000;
  const TopologyTree shared = TestHierarchy(2);
  const TopologyTree hetero = TestHierarchy(2, {TestIntra(), TestIntra()});
  for (int workers : {2, 4, 5, 9}) {
    const TreeCost a =
        shared.GroupedAllReduceCost(p, workers, AllReduceAlgorithm::kFlat);
    const TreeCost b =
        hetero.GroupedAllReduceCost(p, workers, AllReduceAlgorithm::kFlat);
    EXPECT_DOUBLE_EQ(a.SecondsAt(1), b.SecondsAt(1)) << workers;
    EXPECT_DOUBLE_EQ(a.SecondsAt(0), b.SecondsAt(0)) << workers;
    EXPECT_EQ(a.BytesAt(1), b.BytesAt(1)) << workers;
    EXPECT_EQ(a.BytesAt(0), b.BytesAt(0)) << workers;
  }
}

TEST(HierarchicalTest, HeterogeneousClusterLinksPaceOnTheirOwnModel) {
  // K = 4 in 2 clusters of 2; cluster 1's intra link is 10x slower than
  // cluster 0's, so both intra phases pace on cluster 1 even though the
  // cluster sizes match.
  const size_t p = 1 << 20;
  std::vector<NetworkModel> links = {TestIntra(), TestIntra()};
  links[1].bandwidth_bytes_per_sec = 2e8;  // 10x slower
  const TopologyTree h = TestHierarchy(2, links);
  EXPECT_EQ(h.GroupSize(0, 4), 2);
  EXPECT_EQ(h.GroupSize(1, 4), 2);
  const TreeCost cost =
      h.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat);
  const double slow_phase = 1e-4 + static_cast<double>(p) / 2e8;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * slow_phase);
  // Bytes do not depend on link speed: 2 members x 2 phases.
  EXPECT_EQ(cost.BytesAt(1), 2u * 2u * p);

  // A fast model for cluster 1 instead hands pacing back to cluster 0.
  links[1].bandwidth_bytes_per_sec = 2e10;
  const TreeCost fast = TestHierarchy(2, links).GroupedAllReduceCost(
      p, 4, AllReduceAlgorithm::kFlat);
  const double shared_phase = 1e-4 + static_cast<double>(p) / 2e9;
  EXPECT_DOUBLE_EQ(fast.SecondsAt(1), 2.0 * shared_phase);
}

TEST(HierarchicalTest, ClusterSizesAreContiguousAndBalanced) {
  const TopologyTree h = TestHierarchy(3);
  // 8 workers over 3 clusters: sizes {3, 3, 2}.
  EXPECT_EQ(h.GroupSize(0, 8), 3);
  EXPECT_EQ(h.GroupSize(1, 8), 3);
  EXPECT_EQ(h.GroupSize(2, 8), 2);
  EXPECT_EQ(h.GroupBegin(2, 8), 6);
}

TEST(AccountingTest, SlowestLinkPacesFlatCollectives) {
  // Golden straggler accounting: with a 4x-slow worker on the shared
  // channel, the flat AllReduce takes latency + K * p / (bw / 4) — the
  // slowest participating link paces everyone. Bytes stay unchanged.
  const size_t n = 1024;
  const size_t p = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  network.SetWorkerLinkFactors({1.0, 4.0, 1.0, 1.0});
  auto buffers = RandomBuffers(workers, n, 21);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds,
                   1e-3 + 4.0 * static_cast<double>(workers) *
                              static_cast<double>(p) / 1e9);
  EXPECT_EQ(network.stats().bytes_total,
            static_cast<size_t>(workers) * p);
}

TEST(AccountingTest, AllOnesLinkFactorsMatchHomogeneousExactly) {
  const size_t n = 2048;
  const int workers = 5;
  auto run = [&](bool with_factors) {
    SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kRing);
    if (with_factors) {
      network.SetWorkerLinkFactors(std::vector<double>(workers, 1.0));
    }
    auto buffers = RandomBuffers(workers, n, 22);
    auto pointers = Pointers(buffers);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    network.Broadcast(pointers, n, 0, TrafficClass::kModelSync);
    return network.stats();
  };
  const CommStats plain = run(false);
  const CommStats ones = run(true);
  EXPECT_DOUBLE_EQ(plain.comm_seconds, ones.comm_seconds);
  EXPECT_EQ(plain.bytes_total, ones.bytes_total);
}

TEST(AccountingTest, SlowestMemberPacesItsClusterOnly) {
  // K = 4 in 2 clusters of 2; worker 3 (cluster 1) is 8x slow. Cluster 1's
  // intra phases slow 8x, cluster 0's do not — pacing takes the max. The
  // uplink is paced by leaders (workers 0 and 2), both factor 1.
  const size_t p = 1 << 20;
  const TopologyTree h = TestHierarchy(2);
  const std::vector<double> factors = {1.0, 1.0, 1.0, 8.0};
  const TreeCost cost =
      h.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat, &factors);
  const double slow_phase = 1e-4 + static_cast<double>(p) / (2e9 / 8.0);
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * slow_phase);
  const double uplink_phase = 1e-2 + 2.0 * static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), uplink_phase);

  // A slow *leader* (worker 2) instead slows the uplink phase.
  const std::vector<double> slow_leader = {1.0, 1.0, 8.0, 1.0};
  const TreeCost leader_cost =
      h.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat, &slow_leader);
  EXPECT_DOUBLE_EQ(leader_cost.SecondsAt(0),
                   1e-2 + 2.0 * static_cast<double>(p) / (1e8 / 8.0));
}

TEST(AccountingTest, PointToPointBillsTheUploadingWorkersLink) {
  // A slow worker's state uploads transit *its* link: the same straggler
  // factor that paces collectives also paces its point-to-point traffic,
  // and under heterogeneous cluster links the upload uses its cluster's
  // intra model. Workers without a factor stay at homogeneous cost.
  const size_t n = 100;
  const size_t p = n * sizeof(float);
  std::vector<NetworkModel> links = {TestIntra(), TestIntra()};
  links[1].bandwidth_bytes_per_sec = 4e8;  // workers 2, 3
  SimNetwork network(4, TestHierarchy(2, links), AllReduceAlgorithm::kFlat);
  network.SetWorkerLinkFactors({1.0, 1.0, 1.0, 5.0});

  network.PointToPoint(n, TrafficClass::kLocalState, 0);  // fast cluster
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / 2e9);
  const double uplink_fast = 1e-2 + static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0), uplink_fast);

  network.ResetStats();
  network.PointToPoint(n, TrafficClass::kLocalState, 3);  // slow worker
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / (4e8 / 5.0));
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p) / (1e8 / 5.0));
  // Bytes are link-speed independent.
  EXPECT_EQ(network.stats().bytes_total, 2u * p);
}

TEST(AccountingTest, ModelSyncSecondsReflectsSlowestLink) {
  SimNetwork network(4, TestModel(), AllReduceAlgorithm::kFlat);
  const double before = network.ModelSyncSeconds(1 << 20);
  network.SetWorkerLinkFactors({1.0, 1.0, 6.0, 1.0});
  const double after = network.ModelSyncSeconds(1 << 20);
  EXPECT_DOUBLE_EQ(after - 1e-3, 6.0 * (before - 1e-3));
}

TEST(AccountingTest, AlgorithmNames) {
  EXPECT_STREQ(AllReduceAlgorithmName(AllReduceAlgorithm::kFlat), "flat");
  EXPECT_STREQ(AllReduceAlgorithmName(AllReduceAlgorithm::kRing), "ring");
  EXPECT_STREQ(
      AllReduceAlgorithmName(AllReduceAlgorithm::kRecursiveHalving),
      "halving");
}

TEST(HierarchicalTest, EdgeCloudPresetIsTwoTier) {
  const TopologyTree preset = TopologyTree::EdgeCloud(3);
  EXPECT_TRUE(preset.enabled());
  EXPECT_EQ(preset.depth(), 2);
  EXPECT_EQ(preset.num_leaf_groups(), 3);
  const NetworkModel& intra = preset.node(preset.NodeOfLeafGroup(0)).link;
  const NetworkModel& uplink = preset.node(0).link;
  EXPECT_GT(intra.bandwidth_bytes_per_sec, uplink.bandwidth_bytes_per_sec);
  EXPECT_LT(intra.latency_seconds, uplink.latency_seconds);
}

}  // namespace
}  // namespace fedra
