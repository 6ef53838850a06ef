// Golden-history parity tests for the shared-graph / arena refactor.
//
// The hard guarantee of the PR that introduced ModelGraph + WorkerArena is
// that execution is *bit-identical* to the old one-Model-per-worker trainer:
// for a fixed seed, DistributedTrainer::Run must produce the same EvalPoint
// history (step, accuracies, bytes, sync_count) it produced before the
// refactor, on both of its schedules (the asynchronous FDA goldens were
// captured from the standalone async trainer the event-ordered schedule
// replaced). Worker steps always run on the global
// pool, so the goldens must hold at every FEDRA_NUM_THREADS: the suite
// passes in the default and single-thread legs, and the thread sweep at the
// end re-runs the parallel workloads in children at 1 and 4 threads.
//
// The GOLDEN arrays below were captured from the pre-refactor trainer
// (commit c11813b) by running this test with FEDRA_GOLDEN_PRINT=1; the
// refactored trainer must keep reproducing them. Integer fields compare
// exactly; accuracies are exact sample-count ratios so they compare exactly
// too; simulated seconds compare at 1e-9 relative tolerance (double sums
// whose last bits may legitimately differ across FMA-contraction choices of
// other toolchains).

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"
#include "tensor/simd_dispatch.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

// The GOLDEN arrays are bit-exact for one accumulation pattern. Pin the
// portable SIMD level so they hold on every machine regardless of which
// intrinsics tier cpuid would pick (or what FEDRA_SIMD says): kGeneric is
// always compiled in (docs/determinism.md, "ISA levels").
[[maybe_unused]] const bool kSimdLevelPinned = [] {
  simd::SetLevel(simd::Level::kGeneric);
  return true;
}();

struct GoldenPoint {
  size_t step;
  double train_accuracy;
  double test_accuracy;
  uint64_t bytes;
  uint64_t sync_count;
  double sim_seconds;
};

void PrintHistory(const char* name, const std::vector<EvalPoint>& history) {
  std::printf("const GoldenPoint k%s[] = {\n", name);
  for (const EvalPoint& p : history) {
    std::printf("    {%zu, %.17g, %.17g, %lluull, %lluull, %.17g},\n", p.step,
                p.train_accuracy, p.test_accuracy,
                static_cast<unsigned long long>(p.bytes),
                static_cast<unsigned long long>(p.sync_count), p.sim_seconds);
  }
  std::printf("};\n");
}

bool GoldenPrintMode() {
  const char* env = std::getenv("FEDRA_GOLDEN_PRINT");
  return env != nullptr && env[0] == '1';
}

template <size_t N>
void ExpectHistoryMatches(const char* name,
                          const std::vector<EvalPoint>& history,
                          const GoldenPoint (&golden)[N]) {
  if (GoldenPrintMode()) {
    PrintHistory(name, history);
    return;
  }
  ASSERT_EQ(history.size(), N) << name;
  for (size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(::testing::Message() << name << " point " << i);
    EXPECT_EQ(history[i].step, golden[i].step);
    EXPECT_DOUBLE_EQ(history[i].train_accuracy, golden[i].train_accuracy);
    EXPECT_DOUBLE_EQ(history[i].test_accuracy, golden[i].test_accuracy);
    EXPECT_EQ(history[i].bytes, golden[i].bytes);
    EXPECT_EQ(history[i].sync_count, golden[i].sync_count);
    EXPECT_NEAR(history[i].sim_seconds, golden[i].sim_seconds,
                1e-9 * std::max(1.0, golden[i].sim_seconds));
  }
}

/// Every history must be bit-identical between the two runs (the refactor's
/// determinism claim: each worker writes only its own slab slice).
void ExpectHistoriesBitIdentical(const std::vector<EvalPoint>& a,
                                 const std::vector<EvalPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].train_accuracy, b[i].train_accuracy);
    EXPECT_EQ(a[i].test_accuracy, b[i].test_accuracy);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].sync_count, b[i].sync_count);
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
}

SynthImageData SmallMnistLike() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 512;
  config.num_test = 256;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

// Captured pre-refactor (see file comment).
const GoldenPoint kMlpLinearFda[] = {
    {20, 0.484375, 0.6796875, 103328ull, 1ull, 0.20011976114285718},
    {40, 0.7734375, 0.8046875, 206656ull, 2ull, 0.40023952228571447},
    {60, 0.9375, 0.90625, 309984ull, 3ull, 0.6003592834285717},
};

const GoldenPoint kLenetSync[] = {
    {5, 0.328125, 0.25, 855440ull, 5ull, 0.050147205714285714},
    {10, 0.625, 0.671875, 1710880ull, 10ull, 0.10029441142857141},
};

const GoldenPoint kMlpFedAvg[] = {
    {8, 0.2734375, 0.296875, 0ull, 0ull, 0.080000000000000002},
    {16, 0.4609375, 0.5390625, 51344ull, 1ull, 0.16001233485714286},
};

const GoldenPoint kMlpAsync[] = {
    {10, 0.4609375, 0.484375, 77256ull, 1ull, 0.11001600228571427},
    {20, 0.578125, 0.6328125, 77496ull, 1ull, 0.21001600228571435},
    {30, 0.6953125, 0.75, 154752ull, 2ull, 0.31003200457142871},
    {40, 0.7578125, 0.828125, 154992ull, 2ull, 0.4100320045714288},
    {50, 0.9140625, 0.859375, 232248ull, 3ull, 0.51004800685714313},
};

TrainerConfig MlpConfig(int num_workers) {
  TrainerConfig config;
  config.num_workers = num_workers;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 11;
  config.max_steps = 60;
  config.eval_every_steps = 20;
  config.eval_subset = 128;
  return config;
}

TrainResult RunMlpLinearFda(const SynthImageData& data) {
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  DistributedTrainer trainer(factory, data.train, data.test, MlpConfig(4));
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                               trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

TEST(GoldenHistoryTest, MlpLinearFda) {
  ExpectHistoryMatches("MlpLinearFda",
                       RunMlpLinearFda(SmallMnistLike()).history,
                       kMlpLinearFda);
}

TEST(GoldenHistoryTest, LenetSynchronous) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::LeNet5(1, 16, 10); };
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::SgdMomentum(0.05f, 0.9f, true);
  config.seed = 7;
  config.max_steps = 10;
  config.eval_every_steps = 5;
  config.eval_subset = 64;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::Synchronous(),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectHistoryMatches("LenetSync", result->history, kLenetSync);
}

TEST(GoldenHistoryTest, MlpFedAvg) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Sgd(0.05f);
  config.seed = 13;
  config.max_steps = 16;
  config.eval_every_steps = 8;
  config.eval_subset = 128;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::FedAvg(1),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectHistoryMatches("MlpFedAvg", result->history, kMlpFedAvg);
}

/// Three-worker async LinearFDA: 50 in-parallel steps, 150 worker steps.
TrainResult RunMlpAsyncFda(const SynthImageData& data, TrainerConfig config) {
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  config.max_steps = 50;
  config.eval_every_steps = 10;
  config.straggler = StragglerModel::None(0.01);
  DistributedTrainer trainer(factory, data.train, data.test, config);
  AlgorithmConfig algorithm = AlgorithmConfig::AsyncFda(0.5);
  algorithm.monitor.kind = MonitorKind::kLinear;
  auto policy = MakeSyncPolicy(algorithm, trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

TEST(GoldenHistoryTest, MlpAsyncFda) {
  ExpectHistoryMatches("MlpAsync",
                       RunMlpAsyncFda(SmallMnistLike(), MlpConfig(3)).history,
                       kMlpAsync);
}

// Captured at the parity-verified introduction of the hierarchical FDA
// scheduler (TopologyTree PR) with FEDRA_GOLDEN_PRINT=1: a 3-tier
// device->site->cloud run whose escalation decisions — which steps average
// at which tier and which pay the uplink — are encoded in the bytes and
// sync_count columns. A refactor that silently changes the scheduler's
// tier decisions changes these numbers.
const GoldenPoint kMlpHier3Tier[] = {
    {20, 0.5, 0.6953125, 3030816ull, 1ull, 0.42608227840000024},
    {40, 0.78125, 0.8203125, 7088512ull, 1ull, 0.81832862720000166},
    {60, 0.9453125, 0.8984375, 9297792ull, 2ull, 1.2237536511999991},
};

TrainResult RunThreeTierHierarchicalFda(const SynthImageData& data) {
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(8);
  config.topology = TopologyTree::DeviceSiteCloud(2, 2);
  DistributedTrainer trainer(factory, data.train, data.test, config);
  HierarchicalFdaConfig policy_config;
  policy_config.monitor.kind = MonitorKind::kLinear;
  policy_config.theta_by_depth = {1.2, 0.5, 0.2};
  auto policy = MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

TEST(GoldenHistoryTest, ThreeTierHierarchicalFda) {
  ExpectHistoryMatches("MlpHier3Tier",
                       RunThreeTierHierarchicalFda(SmallMnistLike()).history,
                       kMlpHier3Tier);
}

/// Composite coverage (BatchNorm, Dropout, DenseBlock, transitions) under
/// the shared graph. No golden array: the thread sweep below compares it
/// across pool sizes at runtime, so it holds on any toolchain.
TrainResult RunDenseNetLinearFda() {
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 64;
  synth.num_test = 32;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  FEDRA_CHECK(data.ok());
  auto factory = [] { return zoo::DenseNet121Lite(1, 16, 10); };
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 4;
  config.local_optimizer = OptimizerConfig::SgdMomentum(0.01f, 0.9f, true);
  config.seed = 5;
  config.max_steps = 4;
  config.eval_every_steps = 2;
  config.eval_subset = 32;
  DistributedTrainer trainer(factory, data->train, data->test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.1),
                               trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  FEDRA_CHECK(!result->history.empty());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Fleet parity: with population == cohort_size == K the fleet layer (paged
// ClientStateStore + CohortSampler + per-round rotation) must be a bitwise
// no-op — every rotation samples the identity cohort with zero rng draws,
// resident slots stay sticky with zero float roundtrips, and the population
// variance correction short-circuits. The fleet runs below must keep
// reproducing the SAME golden arrays as the resident-cohort runs above.

TEST(GoldenHistoryTest, FleetPopulationEqualsCohortMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(4);
  config.population = 4;
  config.cohort_size = 4;
  config.cohort_steps = 1;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectHistoryMatches("MlpLinearFdaFleet", result->history, kMlpLinearFda);
  EXPECT_EQ(result->comm.check_in_syncs, 0ull);
}

TEST(GoldenHistoryTest, FleetHierarchicalPopulationEqualsCohortMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(8);
  config.topology = TopologyTree::DeviceSiteCloud(2, 2);
  config.population = 8;
  config.cohort_size = 8;
  config.cohort_steps = 5;  // sparse rotations are no-ops too
  DistributedTrainer trainer(factory, data.train, data.test, config);
  HierarchicalFdaConfig policy_config;
  policy_config.monitor.kind = MonitorKind::kLinear;
  policy_config.theta_by_depth = {1.2, 0.5, 0.2};
  auto policy = MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectHistoryMatches("MlpHier3TierFleet", result->history, kMlpHier3Tier);
}

TEST(GoldenHistoryTest, FleetAsyncPopulationEqualsCohortMatchesGolden) {
  TrainerConfig config = MlpConfig(3);
  config.population = 3;
  config.cohort_size = 3;
  ExpectHistoryMatches("MlpAsyncFleet",
                       RunMlpAsyncFda(SmallMnistLike(), config).history,
                       kMlpAsync);
}

// ---------------------------------------------------------------------------
// Asynchronous FDA off the happy path: event-level churn and message loss,
// fleet rotation at sync boundaries, and a two-tier topology under heavy
// stragglers. Each run pins its history plus the fault and clock outcome;
// the event schedule's random-draw order (crash, then the upload's
// delivery, then one sync-delivery draw per live worker) and its queue
// rebuild after every attempted sync all show up in these numbers. The
// values were captured with FEDRA_GOLDEN_PRINT=1 at commit 05e653a, from
// the standalone event-driven async trainer the event-ordered schedule
// replaced.

struct AsyncGolden {
  uint64_t total_syncs;
  uint64_t bytes_total;
  uint64_t retries;
  uint64_t dropped_messages;
  uint64_t rejoin_count;
  uint64_t skipped_syncs;
  uint64_t final_test_accuracy_bits;
  double final_sim_seconds;
};

const GoldenPoint kAsyncChurnLoss[] = {
    {10, 0.390625, 0.4921875, 590848ull, 5ull, 0.12009834857142855},
    {20, 0.5234375, 0.6328125, 976304ull, 8ull, 0.25013768800000002},
    {30, 0.734375, 0.7890625, 1336064ull, 11ull, 0.38019669714285736},
    {40, 0.7890625, 0.8515625, 1875512ull, 14ull, 0.51027537600000039},
    {50, 0.875, 0.875, 2543392ull, 19ull, 0.64037372457142894},
};
const AsyncGolden kAsyncChurnLossOutcome = {
    19ull, 2543392ull, 172ull, 108ull,
    10ull, 1ull, 0x3fec600000000000ull, 0.64037372457142894};

const GoldenPoint kAsyncFleetChurn[] = {
    {10, 0.3359375, 0.484375, 257016ull, 1ull, 0.1200196697142857},
    {20, 0.46875, 0.5703125, 565376ull, 2ull, 0.23003933942857149},
    {30, 0.625, 0.703125, 565696ull, 2ull, 0.33003933942857155},
    {40, 0.7421875, 0.8125, 566016ull, 2ull, 0.43003933942857164},
    {50, 0.7109375, 0.6953125, 617656ull, 2ull, 0.55003933942857175},
};
const AsyncGolden kAsyncFleetChurnOutcome = {
    2ull, 617656ull, 0ull, 0ull,
    8ull, 0ull, 0x3fe5e00000000000ull, 0.55003933942857175};

const GoldenPoint kAsyncEdgeCloudStragglers[] = {
    {10, 0.3671875, 0.515625, 308704ull, 2ull, 0.19598970343526409},
    {20, 0.5546875, 0.6328125, 617408ull, 4ull, 0.38694852389501644},
    {30, 0.703125, 0.75, 772080ull, 5ull, 0.54452918009906781},
    {40, 0.8046875, 0.875, 1080784ull, 7ull, 0.72304333845026025},
    {50, 0.875, 0.8828125, 1235456ull, 8ull, 0.88993238084654047},
};
const AsyncGolden kAsyncEdgeCloudStragglersOutcome = {
    8ull, 1235456ull, 0ull, 0ull,
    0ull, 0ull, 0x3fecc00000000000ull, 0.88993238084654047};

template <size_t N>
void ExpectAsyncMatches(const char* name, const TrainResult& result,
                        const GoldenPoint (&history)[N],
                        const AsyncGolden& golden) {
  ExpectHistoryMatches(name, result.history, history);
  // The run ends where its clock stops: at the target, or at the budget
  // (sim_seconds_to_target equals the totals when the target was missed).
  const double clock = result.sim_seconds_to_target;
  const uint64_t accuracy_bits =
      std::bit_cast<uint64_t>(result.final_test_accuracy);
  if (GoldenPrintMode()) {
    std::printf(
        "const AsyncGolden k%sOutcome = {%lluull, %lluull, %lluull, "
        "%lluull, %lluull, %lluull, 0x%llxull, %.17g};\n",
        name, static_cast<unsigned long long>(result.total_syncs),
        static_cast<unsigned long long>(result.comm.bytes_total),
        static_cast<unsigned long long>(result.comm.retries),
        static_cast<unsigned long long>(result.comm.dropped_messages),
        static_cast<unsigned long long>(result.rejoin_count),
        static_cast<unsigned long long>(result.skipped_syncs),
        static_cast<unsigned long long>(accuracy_bits), clock);
    return;
  }
  EXPECT_EQ(result.total_syncs, golden.total_syncs) << name;
  EXPECT_EQ(result.comm.bytes_total, golden.bytes_total) << name;
  EXPECT_EQ(result.comm.retries, golden.retries) << name;
  EXPECT_EQ(result.comm.dropped_messages, golden.dropped_messages) << name;
  EXPECT_EQ(result.rejoin_count, golden.rejoin_count) << name;
  EXPECT_EQ(result.skipped_syncs, golden.skipped_syncs) << name;
  EXPECT_EQ(accuracy_bits, golden.final_test_accuracy_bits) << name;
  EXPECT_NEAR(clock, golden.final_sim_seconds,
              1e-9 * std::max(1.0, golden.final_sim_seconds))
      << name;
}

/// 50 in-parallel steps (200 worker steps) of async LinearFDA over four
/// MLP workers.
TrainerConfig AsyncConfig() {
  TrainerConfig config = MlpConfig(4);
  config.eval_every_steps = 10;
  config.straggler = StragglerModel::None(0.01);
  return config;
}

TrainResult RunAsyncLinearFda(const SynthImageData& data,
                              TrainerConfig config, double theta) {
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  config.max_steps = 50;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  AlgorithmConfig algorithm = AlgorithmConfig::AsyncFda(theta);
  algorithm.monitor.kind = MonitorKind::kLinear;
  auto policy = MakeSyncPolicy(algorithm, trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

/// Resident workers under churn and heavy message loss with one retry:
/// crashes, repairs, dropped uploads, and syncs that lose every
/// contribution.
TrainResult RunAsyncChurnLoss(const SynthImageData& data) {
  TrainerConfig config = AsyncConfig();
  config.faults = FaultConfig::Churn(20.0, 3.0);
  config.faults.message_loss_prob = 0.6;
  config.faults.max_retries = 1;
  return RunAsyncLinearFda(data, config, 0.02);
}

/// A 16-client fleet rotating four slots at every successful sync, under
/// churn.
TrainResult RunAsyncFleetChurn(const SynthImageData& data) {
  TrainerConfig config = AsyncConfig();
  config.population = 16;
  config.cohort_size = 4;
  config.faults = FaultConfig::Churn(20.0, 3.0);
  return RunAsyncLinearFda(data, config, 0.1);
}

/// Two edge clusters under the cloud, half the workers 8x slower: uploads
/// bill the tree path, sync stalls follow the grouped collective.
TrainResult RunAsyncEdgeCloudStragglers(const SynthImageData& data) {
  TrainerConfig config = AsyncConfig();
  config.topology = TopologyTree::EdgeCloud(2);
  config.straggler = StragglerModel::Heavy(0.01);
  config.straggler.slow_worker_prob = 0.5;
  return RunAsyncLinearFda(data, config, 0.1);
}

TEST(GoldenHistoryTest, AsyncChurnLossMatchesGolden) {
  const TrainResult result = RunAsyncChurnLoss(SmallMnistLike());
  EXPECT_GT(result.rejoin_count, 0ull);
  EXPECT_GT(result.skipped_syncs, 0ull);
  ExpectAsyncMatches("AsyncChurnLoss", result, kAsyncChurnLoss,
                     kAsyncChurnLossOutcome);
}

TEST(GoldenHistoryTest, AsyncFleetChurnMatchesGolden) {
  const TrainResult result = RunAsyncFleetChurn(SmallMnistLike());
  EXPECT_GT(result.comm.check_in_syncs, 0ull);
  EXPECT_GT(result.rejoin_count, 0ull);
  ExpectAsyncMatches("AsyncFleetChurn", result, kAsyncFleetChurn,
                     kAsyncFleetChurnOutcome);
}

TEST(GoldenHistoryTest, AsyncEdgeCloudStragglersMatchesGolden) {
  const TrainResult result = RunAsyncEdgeCloudStragglers(SmallMnistLike());
  EXPECT_GT(result.total_syncs, 0ull);
  ExpectAsyncMatches("AsyncEdgeCloudStragglers", result,
                     kAsyncEdgeCloudStragglers,
                     kAsyncEdgeCloudStragglersOutcome);
}

/// Fault chains must also agree at population == K: the fleet constructs a
/// population-sized injector with an explicit client->link map, which has to
/// reproduce the resident constructor's chains bit-for-bit (same crash and
/// outage schedule, same availability the sampler reads). Runtime-compared
/// resident-vs-fleet pair; availability-weighted sampling covers the
/// sampler's fault-reading path.
TEST(GoldenHistoryTest, FleetFaultedPopulationEqualsCohortBitIdentical) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  auto run_with = [&](bool fleet) {
    TrainerConfig config = MlpConfig(4);
    config.faults.worker_mttf_rounds = 4.0;
    config.faults.worker_mttr_rounds = 2.0;
    config.faults.message_loss_prob = 0.15;
    if (fleet) {
      config.population = 4;
      config.cohort_size = 4;
      config.cohort_schedule = CohortScheduleKind::kAvailability;
    }
    DistributedTrainer trainer(factory, data.train, data.test, config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return std::move(result).value();
  };
  TrainResult resident = run_with(false);
  TrainResult fleet = run_with(true);
  ASSERT_FALSE(resident.history.empty());
  ExpectHistoriesBitIdentical(resident.history, fleet.history);
  EXPECT_EQ(resident.rejoin_count, fleet.rejoin_count);
  EXPECT_EQ(resident.comm.bytes_total, fleet.comm.bytes_total);
  EXPECT_EQ(fleet.comm.check_in_syncs, 0ull);
}

// ---------------------------------------------------------------------------
// Compressed training: with a mask stage the codec picks the coordinates
// the monitor sees (MaskPreview, every step) and the ones each sync ships
// (CompressInPlace), so any change to the top-k selection or to the
// masked quantize shows up in the history, the sync count and the bytes
// to the accuracy target. The values were captured with
// FEDRA_GOLDEN_PRINT=1 at commit 3f2a135, from the indirect nth_element
// selection, before the histogram-threshold selection replaced it.

struct CompressedGolden {
  uint64_t result_hash;
  uint64_t total_syncs;
  uint64_t bytes_to_target;
};

const CompressedGolden kFleetTopKQ8LinearFda = {0x5e8d0e783755e186ull, 51ull,
                                                 3280008ull};
const CompressedGolden kLayerTopKQ8SketchFda = {0xa4fe7d88eff58ddcull, 7ull,
                                                 1646332ull};

void ExpectCompressedMatches(const char* name, const TrainResult& result,
                             const CompressedGolden& golden) {
  const uint64_t hash = testing::HashTrainResult(result);
  if (GoldenPrintMode()) {
    std::printf("const CompressedGolden k%s = {0x%sull, %lluull, %lluull};\n",
                name, testing::HexHash(hash).c_str(),
                static_cast<unsigned long long>(result.total_syncs),
                static_cast<unsigned long long>(result.bytes_to_target));
    return;
  }
  ASSERT_TRUE(result.reached_target) << name;
  EXPECT_EQ(testing::HexHash(hash), testing::HexHash(golden.result_hash))
      << name;
  EXPECT_EQ(result.total_syncs, golden.total_syncs) << name;
  EXPECT_EQ(result.bytes_to_target, golden.bytes_to_target) << name;
}

/// A churned 2000-client fleet rotating 8 slots under top-5% + q8 with
/// error feedback paged through the client store: LinearFDA monitors the
/// masked drift.
TrainResult RunCompressedFleetLinearFda(const SynthImageData& data) {
  auto factory = [] { return zoo::Mlp(16 * 16, {16}, 10); };
  TrainerConfig config = MlpConfig(8);
  config.local_optimizer = OptimizerConfig::Sgd(0.05f);
  config.batch_size = 8;
  config.population = 2000;
  config.cohort_size = 8;
  config.cohort_steps = 10;
  config.cohort_schedule = CohortScheduleKind::kAvailability;
  config.faults = FaultConfig::Churn(10.0, 2.5);
  config.sync_compression = CompressionConfig::Stages(
      {CodecStageConfig::TopK(0.05), CodecStageConfig::Quantize(8)});
  config.max_steps = 200;
  config.eval_every_steps = 20;
  config.accuracy_target = 0.6;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.05),
                               trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

/// Four resident workers under layer-wise top-5% + q8 (every ModelGraph
/// block keeps its own 5%, including the 10-float output bias): SketchFDA
/// accumulates the masked drift into the AMS sketch.
TrainResult RunLayerTopKSketchFda(const SynthImageData& data) {
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(4);
  config.sync_compression = CompressionConfig::Stages(
      {CodecStageConfig::LayerTopK(0.05), CodecStageConfig::Quantize(8)});
  config.max_steps = 200;
  config.accuracy_target = 0.8;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::SketchFda(0.05),
                               trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

TEST(GoldenHistoryTest, CompressedFleetMatchesGolden) {
  const SynthImageData data = SmallMnistLike();
  const TrainResult fleet = RunCompressedFleetLinearFda(data);
  EXPECT_GT(fleet.comm.check_in_syncs, 0ull);
  EXPECT_GT(fleet.total_syncs, 0ull);
  ExpectCompressedMatches("FleetTopKQ8LinearFda", fleet,
                          kFleetTopKQ8LinearFda);
  const TrainResult layered = RunLayerTopKSketchFda(data);
  EXPECT_GT(layered.total_syncs, 0ull);
  ExpectCompressedMatches("LayerTopKQ8SketchFda", layered,
                          kLayerTopKQ8SketchFda);
}

// ---------------------------------------------------------------------------
// Thread-count parity: the parallel workloads above (4- and 8-worker MLPs,
// the BatchNorm DenseNet, the async fault/fleet/topology runs) must produce
// bit-identical results for any pool size. The global pool is sized once per process, so the sweep re-runs
// the hash test in children pinned to 1 and 4 threads; the 1-thread child
// is the serial reference.

uint64_t GoldenSweepHash() {
  const SynthImageData data = SmallMnistLike();
  uint64_t hash = testing::HashTrainResult(RunMlpLinearFda(data));
  hash = hash * 31 +
         testing::HashTrainResult(RunThreeTierHierarchicalFda(data));
  hash = hash * 31 + testing::HashTrainResult(RunDenseNetLinearFda());
  // The event-ordered schedule steps one worker at a time on the calling
  // thread; its kernels and collectives still fan out over the pool.
  hash = hash * 31 + testing::HashTrainResult(RunAsyncChurnLoss(data));
  hash = hash * 31 + testing::HashTrainResult(RunAsyncFleetChurn(data));
  return hash * 31 +
         testing::HashTrainResult(RunAsyncEdgeCloudStragglers(data));
}

TEST(GoldenHistoryThreadSweepTest, HashModePrintsWorkloadHash) {
  std::printf("GOLDENHASH %s\n",
              testing::HexHash(GoldenSweepHash()).c_str());
}

TEST(GoldenHistoryThreadSweepTest, BitIdenticalAcrossThreadCounts) {
  if (testing::SkipThreadSweep()) {
    GTEST_SKIP() << "sweep child, or no /proc/self/exe to re-execute";
  }
  // Each child (and this process, at whatever pool size it runs) must
  // produce the same hash; a failed child returns "child-failed".
  const std::string expected = testing::HexHash(GoldenSweepHash());
  for (int threads : {1, 4}) {
    EXPECT_EQ(testing::RunWithThreads(threads,
                                      "GoldenHistoryThreadSweepTest."
                                      "HashModePrintsWorkloadHash",
                                      "GOLDENHASH"),
              expected)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace fedra
