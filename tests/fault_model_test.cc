// Fault-injection tests: FaultConfig validation, bit-deterministic Markov
// churn/link schedules, loss/retry sampling, deadline cutoffs — and the
// trainer-level contracts: survivor-only averaging parity, retry/backoff
// accounting against the analytic formula, rejoin catch-up billing,
// zero-survivor rounds, worker-parallelism independence, and hierarchical
// FDA with a whole subtree down.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/fda_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sim/topology_tree.h"
#include "tensor/vec_ops.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

// ------------------------------------------------------------ validation --

TEST(FaultConfigTest, ValidatesRanges) {
  EXPECT_TRUE(FaultConfig::None().Validate().ok());
  EXPECT_TRUE(FaultConfig::Churn(10.0, 2.0).Validate().ok());

  FaultConfig bad;
  bad.worker_mttf_rounds = 0.5;  // crash probability would exceed 1
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig::Churn(10.0, 0.5);  // repair probability would exceed 1
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.link_mttf_rounds = 4.0;  // outages on, but mttr unset (0 < 1)
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.message_loss_prob = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad.message_loss_prob = -0.1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.max_retries = -1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.retry_backoff_seconds = -0.001;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.round_deadline_seconds = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
}

// Satellite contract: a bad fault config surfaces as a Status from
// TrainerConfig::Validate (callers can report it) instead of a CHECK crash.
TEST(FaultConfigTest, TrainerValidateSurfacesFaultErrors) {
  TrainerConfig config;
  config.faults.worker_mttf_rounds = 0.25;
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());

  config = TrainerConfig();
  config.faults.message_loss_prob = 0.1;
  config.sync_compression = CompressionConfig::TopK(0.01);
  // Faults compose with compressed sync since the WireCodec pipeline:
  // survivors' deltas ride payload-carrying subset collectives.
  EXPECT_TRUE(config.Validate().ok());

  config = TrainerConfig();
  config.faults = FaultConfig::Churn(10.0, 2.0);
  EXPECT_TRUE(config.Validate().ok());
}

// ---------------------------------------------------------- determinism --

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  const FaultConfig config = [] {
    FaultConfig c = FaultConfig::Churn(4.0, 2.0);
    c.link_mttf_rounds = 6.0;
    c.link_mttr_rounds = 2.0;
    return c;
  }();
  FaultInjector a(config, 8, /*seed=*/77);
  FaultInjector b(config, 8, /*seed=*/77);
  for (int round = 0; round < 200; ++round) {
    a.BeginRound();
    b.BeginRound();
    EXPECT_EQ(a.worker_up(), b.worker_up());
    EXPECT_EQ(a.rejoined(), b.rejoined());
    EXPECT_EQ(a.NumUp(), b.NumUp());
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(a.LinkUp(k), b.LinkUp(k));
    }
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const FaultConfig config = FaultConfig::Churn(4.0, 2.0);
  FaultInjector a(config, 8, /*seed=*/77);
  FaultInjector b(config, 8, /*seed=*/78);
  bool diverged = false;
  for (int round = 0; round < 200 && !diverged; ++round) {
    a.BeginRound();
    b.BeginRound();
    diverged = a.worker_up() != b.worker_up();
  }
  EXPECT_TRUE(diverged);
}

// ------------------------------------------------------ chain statistics --

TEST(FaultInjectorTest, AvailabilityMatchesMttfOverMttfPlusMttr) {
  // Stationary availability of the up/down chain is mttf / (mttf + mttr).
  const FaultConfig config = FaultConfig::Churn(8.0, 2.0);
  FaultInjector injector(config, 64, /*seed=*/5);
  int64_t up = 0;
  int64_t total = 0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    injector.BeginRound();
    up += injector.NumUp();
    total += 64;
  }
  const double availability = static_cast<double>(up) /
                              static_cast<double>(total);
  EXPECT_NEAR(availability, 8.0 / 10.0, 0.02);
}

TEST(FaultInjectorTest, RejoinedListsDownToUpTransitions) {
  const FaultConfig config = FaultConfig::Churn(3.0, 2.0);
  FaultInjector injector(config, 16, /*seed=*/9);
  std::vector<char> previous = injector.worker_up();
  int total_rejoins = 0;
  for (int round = 0; round < 500; ++round) {
    injector.BeginRound();
    std::vector<int> expected;
    for (int k = 0; k < 16; ++k) {
      if (previous[static_cast<size_t>(k)] == 0 && injector.IsUp(k)) {
        expected.push_back(k);
      }
    }
    EXPECT_EQ(injector.rejoined(), expected);
    total_rejoins += static_cast<int>(expected.size());
    previous = injector.worker_up();
  }
  EXPECT_GT(total_rejoins, 0);
}

TEST(FaultInjectorTest, TreeGroupsShareOneLinkEntity) {
  const TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  ASSERT_EQ(tree.num_leaf_groups(), 4);
  FaultConfig config;
  config.link_mttf_rounds = 3.0;
  config.link_mttr_rounds = 2.0;
  FaultInjector injector(config, 8, /*seed=*/3, &tree);
  int outages = 0;
  for (int round = 0; round < 300; ++round) {
    injector.BeginRound();
    for (int g = 0; g < 4; ++g) {
      // Two workers per leaf group: one shared link state.
      EXPECT_EQ(injector.LinkUp(2 * g), injector.LinkUp(2 * g + 1));
      outages += injector.LinkUp(2 * g) ? 0 : 1;
    }
    // Churn is off: every worker computes every round.
    EXPECT_EQ(injector.NumUp(), 8);
  }
  EXPECT_GT(outages, 0);
}

// ------------------------------------------------------ delivery / loss --

TEST(FaultInjectorTest, DeliveryExtremes) {
  FaultConfig config;
  FaultInjector never_lossy(config, 2, /*seed=*/1);
  for (int i = 0; i < 64; ++i) {
    const FaultInjector::Delivery outcome = never_lossy.SampleDelivery();
    EXPECT_TRUE(outcome.delivered);
    EXPECT_EQ(outcome.retries, 0);
  }

  config.message_loss_prob = 1.0;
  config.max_retries = 3;
  FaultInjector always_lossy(config, 2, /*seed=*/1);
  for (int i = 0; i < 64; ++i) {
    const FaultInjector::Delivery outcome = always_lossy.SampleDelivery();
    EXPECT_FALSE(outcome.delivered);
    EXPECT_EQ(outcome.retries, 3);
  }

  config.max_retries = 0;  // no retransmissions at all
  FaultInjector no_retries(config, 2, /*seed=*/1);
  const FaultInjector::Delivery outcome = no_retries.SampleDelivery();
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.retries, 0);
}

TEST(FaultInjectorTest, DeliveryStatisticsMatchGeometricTruncation) {
  FaultConfig config;
  config.message_loss_prob = 0.5;
  config.max_retries = 2;
  FaultInjector injector(config, 2, /*seed=*/11);
  const int draws = 40000;
  int delivered = 0;
  for (int i = 0; i < draws; ++i) {
    delivered += injector.SampleDelivery().delivered ? 1 : 0;
  }
  // P(delivered) = 1 - p^(max_retries + 1) = 1 - 0.125.
  EXPECT_NEAR(static_cast<double>(delivered) / draws, 0.875, 0.01);
}

// ------------------------------------------------------------- deadline --

TEST(FaultInjectorTest, DeadlineCutsSlowWorkersAndWaitsOut) {
  FaultConfig config;
  config.round_deadline_seconds = 0.3;
  FaultInjector injector(config, 3, /*seed=*/1);
  std::vector<double> step_seconds = {0.1, 0.5, 0.2};
  std::vector<char> mask = {1, 1, 1};
  // Worker 1 misses the deadline: cut, and the round closes at the full
  // deadline (the coordinator waited it out).
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.3);
  EXPECT_EQ(mask, (std::vector<char>{1, 0, 1}));

  // Nobody cut: the barrier is the slowest participant.
  step_seconds = {0.1, 0.25, 0.2};
  mask = {1, 1, 1};
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.25);
  EXPECT_EQ(mask, (std::vector<char>{1, 1, 1}));

  // Entries already masked out are ignored entirely.
  step_seconds = {0.1, 9.9, 0.2};
  mask = {1, 0, 1};
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.2);

  // No deadline configured: plain max over the masked entries.
  FaultConfig no_deadline;
  no_deadline.worker_mttf_rounds = 10.0;
  no_deadline.worker_mttr_rounds = 2.0;
  FaultInjector plain(no_deadline, 3, /*seed=*/1);
  step_seconds = {0.1, 0.5, 0.2};
  mask = {1, 1, 1};
  EXPECT_DOUBLE_EQ(plain.ApplyDeadline(step_seconds, &mask), 0.5);
}

// ----------------------------------------------- survivor-only averaging --

TEST(FaultCollectivesTest, SubsetAverageMatchesSmallerFleet) {
  const size_t n = 97;
  const std::vector<int> participants = {0, 2, 3, 6};
  // The subset collective over {0,2,3,6} of a 7-worker fleet must be
  // bit-identical (values, bytes, seconds, counters) to a 4-worker fleet
  // running the plain collective over the same buffers.
  std::vector<std::vector<float>> big(7, std::vector<float>(n));
  Rng rng(21);
  for (auto& buffer : big) {
    for (auto& x : buffer) {
      x = rng.NextUniform(-3.0f, 3.0f);
    }
  }
  std::vector<std::vector<float>> small;
  for (int k : participants) {
    small.push_back(big[static_cast<size_t>(k)]);
  }

  SimNetwork subset_net(7, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  std::vector<float*> subset_ptrs;
  for (int k : participants) {
    subset_ptrs.push_back(big[static_cast<size_t>(k)].data());
  }
  subset_net.AllReduceAverageSubset(subset_ptrs, participants, n,
                                    TrafficClass::kModelSync);

  SimNetwork small_net(4, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  std::vector<float*> small_ptrs;
  for (auto& buffer : small) {
    small_ptrs.push_back(buffer.data());
  }
  small_net.AllReduceAverage(small_ptrs, n, TrafficClass::kModelSync);

  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(big[static_cast<size_t>(participants[i])][j], small[i][j]);
    }
  }
  // Non-participants untouched is implied by construction; billing parity:
  EXPECT_EQ(subset_net.stats().bytes_total, small_net.stats().bytes_total);
  EXPECT_DOUBLE_EQ(subset_net.stats().comm_seconds,
                   small_net.stats().comm_seconds);
  EXPECT_EQ(subset_net.stats().allreduce_calls,
            small_net.stats().allreduce_calls);
  EXPECT_EQ(subset_net.stats().model_sync_count,
            small_net.stats().model_sync_count);
}

TEST(FaultCollectivesTest, SubtreeSubsetSingleSurvivorIsFree) {
  TopologyTree tree = TopologyTree::EdgeCloud(2);
  SimNetwork network(4, std::move(tree), AllReduceAlgorithm::kFlat);
  const size_t n = 16;
  std::vector<float> buffer(n, 2.0f);
  std::vector<char> active = {1, 0, 1, 1};  // worker 1 absent
  const int group0_node = network.tree().NodeOfLeafGroup(0);
  network.SubtreeAllReduceAverage(group0_node, {buffer.data()}, n,
                                  TrafficClass::kModelSync, &active);
  // A single surviving member is its own average: no wire traffic at all.
  EXPECT_EQ(network.stats().bytes_total, 0u);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, 0.0);
  EXPECT_EQ(network.stats().subtree_allreduce_calls, 1u);
  for (float x : buffer) {
    EXPECT_EQ(x, 2.0f);
  }
}

// Every CommStats field a collective writes, compared bit for bit.
void ExpectSameStats(const CommStats& a, const CommStats& b) {
  EXPECT_EQ(a.allreduce_calls, b.allreduce_calls);
  EXPECT_EQ(a.model_sync_count, b.model_sync_count);
  EXPECT_EQ(a.subtree_allreduce_calls, b.subtree_allreduce_calls);
  EXPECT_EQ(a.subtree_sync_count, b.subtree_sync_count);
  EXPECT_EQ(a.bytes_total, b.bytes_total);
  EXPECT_EQ(a.bytes_local_state, b.bytes_local_state);
  EXPECT_EQ(a.bytes_model_sync, b.bytes_model_sync);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.seconds_local_state, b.seconds_local_state);
  EXPECT_EQ(a.seconds_model_sync, b.seconds_model_sync);
  EXPECT_EQ(a.seconds_by_depth, b.seconds_by_depth);
  EXPECT_EQ(a.bytes_by_depth, b.bytes_by_depth);
}

// The contract that lets every caller take the participant-list path: a
// full ascending participant list reproduces the unmasked collective bit
// for bit (values, bytes, simulated seconds, both breakdowns, counters) on
// every topology and transport algorithm, with and without link factors,
// and a subtree collective under an all-ones mask reproduces the null mask.
TEST(FaultCollectivesTest, FullParticipantListMatchesUnmaskedCollective) {
  const int k = 6;
  const size_t n = 53;
  const std::vector<int> everyone = {0, 1, 2, 3, 4, 5};
  const std::vector<char> all_ones(k, 1);
  const std::vector<size_t> payloads = {400, 212, 97, 400, 8, 150};
  const std::vector<double> slow_links = {1.0, 3.0, 1.0, 1.5, 1.0, 2.0};
  struct Setup {
    const char* name;
    TopologyTree tree;
    AllReduceAlgorithm algorithm;
  };
  const std::vector<Setup> setups = {
      {"flat", TopologyTree::SingleTier(NetworkModel::Hpc()),
       AllReduceAlgorithm::kFlat},
      {"ring", TopologyTree::SingleTier(NetworkModel::Hpc()),
       AllReduceAlgorithm::kRing},
      {"halving", TopologyTree::SingleTier(NetworkModel::Hpc()),
       AllReduceAlgorithm::kRecursiveHalving},
      {"edge-cloud", TopologyTree::EdgeCloud(2), AllReduceAlgorithm::kRing},
      {"device-site-cloud", TopologyTree::DeviceSiteCloud(2, 2),
       AllReduceAlgorithm::kFlat},
  };
  for (const Setup& setup : setups) {
    for (bool link_factors : {false, true}) {
      SCOPED_TRACE(std::string(setup.name) +
                   (link_factors ? " + link factors" : ""));
      SimNetwork plain(k, setup.tree, setup.algorithm);
      SimNetwork subset(k, setup.tree, setup.algorithm);
      if (link_factors) {
        plain.SetWorkerLinkFactors(slow_links);
        subset.SetWorkerLinkFactors(slow_links);
      }
      // Fresh identical inputs before every collective, so each one
      // averages distinct spans rather than an already-equal fleet.
      std::vector<std::vector<float>> plain_data(
          k, std::vector<float>(n));
      std::vector<std::vector<float>> subset_data = plain_data;
      Rng rng(31);
      auto refill = [&] {
        for (auto& buffer : plain_data) {
          for (auto& x : buffer) {
            x = rng.NextUniform(-4.0f, 4.0f);
          }
        }
        subset_data = plain_data;
      };
      std::vector<float*> plain_ptrs;
      std::vector<float*> subset_ptrs;
      for (int w = 0; w < k; ++w) {
        plain_ptrs.push_back(plain_data[static_cast<size_t>(w)].data());
        subset_ptrs.push_back(subset_data[static_cast<size_t>(w)].data());
      }
      refill();
      plain.AllReduceAverage(plain_ptrs, n, TrafficClass::kModelSync);
      subset.AllReduceAverageSubset(subset_ptrs, everyone, n,
                                    TrafficClass::kModelSync);
      EXPECT_EQ(plain_data, subset_data);
      ExpectSameStats(plain.stats(), subset.stats());
      refill();
      plain.AllReduceAverageWithPayloads(plain_ptrs, n, payloads,
                                         TrafficClass::kLocalState);
      subset.AllReduceAverageSubsetWithPayloads(
          subset_ptrs, everyone, n, payloads, TrafficClass::kLocalState);
      EXPECT_EQ(plain_data, subset_data);
      ExpectSameStats(plain.stats(), subset.stats());

      // Subtree collectives over every node: null mask vs all-ones.
      for (int id = 0; id < setup.tree.num_nodes(); ++id) {
        int begin = 0;
        int end = 0;
        setup.tree.SubtreeSpan(id, k, &begin, &end);
        std::vector<float*> plain_span(plain_ptrs.begin() + begin,
                                       plain_ptrs.begin() + end);
        std::vector<float*> subset_span(subset_ptrs.begin() + begin,
                                        subset_ptrs.begin() + end);
        const std::vector<size_t> span_payloads(payloads.begin() + begin,
                                                payloads.begin() + end);
        refill();
        plain.SubtreeAllReduceAverage(id, plain_span, n,
                                      TrafficClass::kLocalState);
        subset.SubtreeAllReduceAverage(id, subset_span, n,
                                       TrafficClass::kLocalState, &all_ones);
        EXPECT_EQ(plain_data, subset_data);
        refill();
        plain.SubtreeAllReduceAverage(id, plain_span, n,
                                      TrafficClass::kModelSync, nullptr,
                                      &span_payloads);
        subset.SubtreeAllReduceAverage(id, subset_span, n,
                                       TrafficClass::kModelSync, &all_ones,
                                       &span_payloads);
        EXPECT_EQ(plain_data, subset_data);
        ExpectSameStats(plain.stats(), subset.stats());
      }
    }
  }
}

// ------------------------------------------------------- trainer churn --

SynthImageData SmallMnistLike() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 512;
  config.num_test = 256;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

ModelFactory SmallMlpFactory() {
  return [] { return zoo::Mlp(16 * 16, {24}, 10); };
}

TrainerConfig BaseConfig(int num_workers) {
  TrainerConfig config;
  config.num_workers = num_workers;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 11;
  config.max_steps = 60;
  config.eval_every_steps = 30;
  config.eval_subset = 128;
  return config;
}

TEST(FaultTrainerTest, ChurnBillsOneCatchUpSyncPerRejoin) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.faults = FaultConfig::Churn(4.0, 2.0);
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  LocalSgdPolicy policy(TauSchedule::Fixed(5));
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  // 60 rounds at mttf 4: rejoins certainly happened, and each one paid
  // exactly one catch-up model download.
  EXPECT_GT(result->rejoin_count, 0u);
  EXPECT_EQ(result->comm.catch_up_syncs, result->rejoin_count);
  // No message loss configured: nothing retried or dropped.
  EXPECT_EQ(result->comm.retries, 0u);
  EXPECT_EQ(result->comm.dropped_messages, 0u);
  EXPECT_DOUBLE_EQ(result->comm.seconds_retry, 0.0);
  // Class split still covers the total.
  EXPECT_NEAR(result->comm.seconds_model_sync +
                  result->comm.seconds_local_state,
              result->comm.comm_seconds,
              1e-12 * std::max(1.0, result->comm.comm_seconds));

  // Bit-determinism: the same config replays the same faults and history.
  DistributedTrainer again(SmallMlpFactory(), data.train, data.test,
                           config);
  LocalSgdPolicy policy2(TauSchedule::Fixed(5));
  auto replay = again.Run(&policy2);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->rejoin_count, result->rejoin_count);
  EXPECT_EQ(replay->comm.bytes_total, result->comm.bytes_total);
  EXPECT_EQ(replay->final_test_accuracy, result->final_test_accuracy);
}

TEST(FaultTrainerTest, TotalLossRetryAccountingMatchesAnalyticFormula) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 10;
  config.eval_every_steps = 5;
  config.faults.message_loss_prob = 1.0;  // every contribution dropped
  config.faults.max_retries = 2;
  config.faults.retry_backoff_seconds = 0.005;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  const size_t dim = trainer.model_dim();
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  // Every round: both contributions retried twice then dropped; the sync
  // itself never happens.
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->skipped_syncs, 10u);
  EXPECT_EQ(result->comm.retries, 10u * 2u * 2u);
  EXPECT_EQ(result->comm.dropped_messages, 10u * 2u);
  EXPECT_EQ(result->comm.model_sync_count, 0u);

  // The only traffic is the retransmissions: 2 payloads per worker-round.
  const double payload = static_cast<double>(dim * sizeof(float));
  EXPECT_EQ(result->comm.bytes_total,
            static_cast<uint64_t>(10u * 2u * 2u * dim * sizeof(float)));

  // Analytic retry time: retry i waits backoff * 2^i, then retransmits
  // over the flat link (latency + payload / bandwidth).
  const NetworkModel link = NetworkModel::Hpc();
  const double per_send = link.latency_seconds +
                          payload / link.bandwidth_bytes_per_sec;
  const double per_worker_round = (0.005 + per_send) + (0.010 + per_send);
  const double expected = 10.0 * 2.0 * per_worker_round;
  EXPECT_NEAR(result->comm.seconds_retry, expected, 1e-9 * expected);
  // Retries were the only traffic, so they ARE the comm time.
  EXPECT_DOUBLE_EQ(result->comm.comm_seconds, result->comm.seconds_retry);
}

TEST(FaultTrainerTest, ImpossibleDeadlineSkipsEveryRound) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 15;
  config.eval_every_steps = 5;
  // Every step takes base_step_seconds = 0.01 > deadline: all cut, every
  // round closes with zero participants at exactly the deadline.
  config.straggler = StragglerModel::None(0.01);
  config.faults.round_deadline_seconds = 0.005;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->zero_participant_rounds, 15u);
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.bytes_total, 0u);
  EXPECT_NEAR(result->compute_seconds, 15.0 * 0.005, 1e-12);
  // Local training still happened and state carried forward: the run
  // produced a real (if unsynchronized) model.
  EXPECT_GT(result->final_test_accuracy, 0.0);
}

// The fault schedule and every downstream number are a pure function of
// (config, seed), never of the worker execution order: a child pinned to
// FEDRA_NUM_THREADS=1 (the serial reference) and one at 4 must print the
// same result hash, rejoins, retries and drops included.
uint64_t FaultSweepHash() {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.faults = FaultConfig::Churn(5.0, 2.0);
  config.faults.message_loss_prob = 0.05;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  LocalSgdPolicy policy(TauSchedule::Fixed(4));
  auto result = trainer.Run(&policy);
  FEDRA_CHECK(result.ok());
  return testing::HashTrainResult(*result);
}

TEST(FaultTrainerThreadSweepTest, HashModePrintsWorkloadHash) {
  std::printf("FAULTHASH %s\n", testing::HexHash(FaultSweepHash()).c_str());
}

TEST(FaultTrainerThreadSweepTest, FaultScheduleIndependentOfThreadCount) {
  if (testing::SkipThreadSweep()) {
    GTEST_SKIP() << "sweep child, or no /proc/self/exe to re-execute";
  }
  // Each child (and this process, at whatever pool size it runs) must
  // produce the same hash; a failed child returns "child-failed".
  const std::string expected = testing::HexHash(FaultSweepHash());
  for (int threads : {1, 4}) {
    EXPECT_EQ(testing::RunWithThreads(threads,
                                      "FaultTrainerThreadSweepTest."
                                      "HashModePrintsWorkloadHash",
                                      "FAULTHASH"),
              expected)
        << threads << " threads";
  }
}

// ------------------------------------------- hierarchical subtree down --

// Hand-built cluster harness: 4 workers on a 2-cluster tree, no trainer
// loop — MaybeSync is driven directly with a participation mask.
struct HierarchicalHarness {
  static constexpr size_t kDim = 8;

  HierarchicalHarness()
      : arena(4, kDim, 0),
        network(4, TopologyTree::EdgeCloud(2), AllReduceAlgorithm::kFlat),
        sync_params(kDim, 0.0f),
        prev_sync_params(kDim, 0.0f) {
    workers.resize(4);
    for (int k = 0; k < 4; ++k) {
      WorkerState& worker = workers[static_cast<size_t>(k)];
      worker.view = arena.view(k);
      worker.drift = arena.drift(k);
      // Distinct params per worker so subtree variance estimates are
      // strictly positive.
      for (size_t i = 0; i < kDim; ++i) {
        worker.view.params[i] =
            static_cast<float>(k + 1) + 0.1f * static_cast<float>(i);
      }
    }
    ctx.workers = &workers;
    ctx.arena = &arena;
    ctx.network = &network;
    ctx.dim = kDim;
    ctx.sync_params = &sync_params;
    ctx.prev_sync_params = &prev_sync_params;
  }

  std::unique_ptr<HierarchicalFdaPolicy> MakePolicy(
      std::vector<double> theta_by_depth) {
    HierarchicalFdaConfig config;
    config.monitor.kind = MonitorKind::kLinear;
    config.theta_by_depth = std::move(theta_by_depth);
    auto policy = MakeHierarchicalFdaPolicy(config, kDim);
    FEDRA_CHECK(policy.ok()) << policy.status();
    policy.value()->Initialize(ctx);
    return std::move(policy).value();
  }

  WorkerArena arena;
  SimNetwork network;
  std::vector<float> sync_params;
  std::vector<float> prev_sync_params;
  std::vector<WorkerState> workers;
  ClusterContext ctx;
};

TEST(FaultHierarchicalTest, WholeSubtreeDownLocalSyncOnSurvivors) {
  HierarchicalHarness harness;
  // Leaf threshold 0 (always trips), root threshold astronomical.
  auto policy = harness.MakePolicy({1e18, 0.0});
  // Cluster 0 (workers 0, 1) is entirely absent this round.
  std::vector<char> mask = {0, 0, 1, 1};
  harness.ctx.participation = &mask;

  std::vector<float> before0(harness.workers[0].view.params,
                             harness.workers[0].view.params + 8);
  std::vector<float> expected(8);
  for (size_t i = 0; i < 8; ++i) {
    expected[i] = (harness.workers[2].view.params[i] +
                   harness.workers[3].view.params[i]) /
                  2.0f;
  }

  EXPECT_FALSE(policy->MaybeSync(harness.ctx));

  // Cluster 1 averaged locally; the absent cluster and the global anchor
  // are untouched; the uplink carried nothing.
  EXPECT_EQ(policy->local_sync_count(), 1u);
  EXPECT_EQ(policy->global_sync_count(), 0u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(harness.workers[2].view.params[i], expected[i]);
    EXPECT_FLOAT_EQ(harness.workers[3].view.params[i], expected[i]);
    EXPECT_EQ(harness.workers[0].view.params[i], before0[i]);
    EXPECT_EQ(harness.sync_params[i], 0.0f);
  }
  // One leaf state allreduce + one local model sync, both on cluster 1's
  // own tier; the root tier is silent.
  EXPECT_EQ(harness.network.stats().subtree_allreduce_calls, 2u);
  EXPECT_EQ(harness.network.stats().BytesAtDepth(0), 0u);
  EXPECT_DOUBLE_EQ(harness.network.stats().SecondsAtDepth(0), 0.0);
}

TEST(FaultHierarchicalTest, WholeSubtreeDownGlobalSyncAveragesSurvivors) {
  HierarchicalHarness harness;
  // Root threshold 0: everything escalates; leaf threshold astronomical.
  auto policy = harness.MakePolicy({0.0, 1e18});
  std::vector<char> mask = {0, 0, 1, 1};
  harness.ctx.participation = &mask;

  std::vector<float> before0(harness.workers[0].view.params,
                             harness.workers[0].view.params + 8);
  std::vector<float> expected(8);
  for (size_t i = 0; i < 8; ++i) {
    expected[i] = (harness.workers[2].view.params[i] +
                   harness.workers[3].view.params[i]) /
                  2.0f;
  }

  EXPECT_TRUE(policy->MaybeSync(harness.ctx));

  // Global sync over the survivors only: the anchor moves to their mean,
  // the absent cluster keeps its stale params for a later catch-up.
  EXPECT_EQ(policy->global_sync_count(), 1u);
  EXPECT_EQ(policy->local_sync_count(), 0u);
  // The root aggregated from a single active child: no billable
  // child-representative exchange happened.
  EXPECT_EQ(policy->escalation_count(), 0u);
  EXPECT_EQ(harness.network.stats().child_exchange_calls, 0u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(harness.sync_params[i], expected[i]);
    EXPECT_FLOAT_EQ(harness.workers[2].view.params[i], expected[i]);
    EXPECT_EQ(harness.workers[0].view.params[i], before0[i]);
  }
  EXPECT_EQ(harness.ctx.sync_count, 1u);
}

// Null mask must keep the hierarchical scheduler's arithmetic identical
// to the masked all-ones case (the bit-identity contract).
TEST(FaultHierarchicalTest, AllOnesMaskMatchesNullMask) {
  HierarchicalHarness masked;
  HierarchicalHarness plain;
  auto masked_policy = masked.MakePolicy({1e18, 0.0});
  auto plain_policy = plain.MakePolicy({1e18, 0.0});
  std::vector<char> mask = {1, 1, 1, 1};
  masked.ctx.participation = &mask;

  EXPECT_EQ(masked_policy->MaybeSync(masked.ctx),
            plain_policy->MaybeSync(plain.ctx));
  for (int k = 0; k < 4; ++k) {
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(masked.workers[static_cast<size_t>(k)].view.params[i],
                plain.workers[static_cast<size_t>(k)].view.params[i]);
    }
  }
  EXPECT_EQ(masked.network.stats().bytes_total,
            plain.network.stats().bytes_total);
  EXPECT_DOUBLE_EQ(masked.network.stats().comm_seconds,
                   plain.network.stats().comm_seconds);
}

}  // namespace
}  // namespace fedra
