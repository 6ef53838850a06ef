// Tests for asynchronous FDA (paper §3.3) on the trainer's event-ordered
// schedule: it trains, it synchronizes on variance, under heavy stragglers
// it makes faster simulated-time progress than BSP-style FDA because fast
// workers never wait, and every config the schedule cannot honour comes
// back as a Status.

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "data/synth.h"
#include "nn/zoo.h"

namespace fedra {
namespace {

SynthImageData SmallData() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 384;
  config.num_test = 128;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

ModelFactory MlpFactory() {
  return [] { return zoo::Mlp(16 * 16, {16}, 10); };
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.num_workers = 4;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 21;
  config.max_steps = 200;
  config.eval_subset = 128;
  config.straggler = StragglerModel::None(0.01);
  return config;
}

AlgorithmConfig LinearAsync(double theta) {
  AlgorithmConfig algorithm = AlgorithmConfig::AsyncFda(theta);
  algorithm.monitor.kind = MonitorKind::kLinear;
  return algorithm;
}

StatusOr<TrainResult> RunAsync(const SynthImageData& data,
                               const TrainerConfig& config,
                               const AlgorithmConfig& algorithm) {
  DistributedTrainer trainer(MlpFactory(), data.train, data.test, config);
  auto policy = MakeSyncPolicy(algorithm, trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  return trainer.Run(policy->get());
}

TEST(AsyncFdaTest, RunsAndSynchronizes) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_steps = 100;  // 400 worker steps
  auto result = RunAsync(data, config, LinearAsync(0.02));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->algorithm, "AsyncFDA(LinearFDA)");
  EXPECT_EQ(result->total_steps, 100u);
  EXPECT_GT(result->total_syncs, 0u);
  EXPECT_GT(result->sim_seconds_to_target, 0.0);
  EXPECT_GT(result->comm.bytes_local_state, 0u);
  // The shared result bookkeeping also evaluates the final model on the
  // train set; the standalone async trainer left this at zero.
  EXPECT_GT(result->final_train_accuracy, 0.0);
}

TEST(AsyncFdaTest, HistoryCarriesEpochAndTrainAccuracy) {
  // Regression: async history rows used to carry epoch=0 and no train
  // accuracy, making async CSV/plots incomparable with the sync trainer's.
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_steps = 100;
  auto result = RunAsync(data, config, LinearAsync(0.05));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->history.empty());
  double prev_epoch = 0.0;
  for (const EvalPoint& point : result->history) {
    EXPECT_GT(point.epoch, prev_epoch);
    prev_epoch = point.epoch;
    // 384 train samples / 4 workers / batch 16 = 6 steps per local epoch.
    EXPECT_DOUBLE_EQ(point.epoch, static_cast<double>(point.step) / 6.0);
    EXPECT_GT(point.train_accuracy, 0.02);  // recorded, not default zero
  }
}

TEST(AsyncFdaTest, HugeThetaMeansNoSyncs) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_steps = 50;
  auto result = RunAsync(data, config, LinearAsync(1e12));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.bytes_model_sync, 0u);
}

TEST(AsyncFdaTest, DeterministicAcrossRuns) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_steps = 50;
  auto a = RunAsync(data, config, LinearAsync(0.05));
  auto b = RunAsync(data, config, LinearAsync(0.05));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_syncs, b->total_syncs);
  EXPECT_DOUBLE_EQ(a->sim_seconds_to_target, b->sim_seconds_to_target);
  EXPECT_EQ(a->comm.bytes_total, b->comm.bytes_total);
}

TEST(AsyncFdaTest, MaxStepsBoundsTheWorkerSteps) {
  // max_steps counts in-parallel steps: K * max_steps worker steps. Each
  // delivered upload bills one state-sized message, so with a huge Theta
  // (no syncs, no stalls) the local-state bytes count the worker steps.
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.eval_every_steps = 1000;  // no evaluation before the budget
  size_t per_step_bytes = 0;
  for (size_t max_steps : {size_t{10}, size_t{20}}) {
    config.max_steps = max_steps;
    auto result = RunAsync(data, config, LinearAsync(1e12));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->total_steps, max_steps);
    const size_t worker_steps =
        max_steps * static_cast<size_t>(config.num_workers);
    ASSERT_EQ(result->comm.bytes_local_state % worker_steps, 0u);
    if (per_step_bytes == 0) {
      per_step_bytes = result->comm.bytes_local_state / worker_steps;
      EXPECT_GT(per_step_bytes, 0u);
    }
    EXPECT_EQ(result->comm.bytes_local_state, per_step_bytes * worker_steps);
  }
}

TEST(AsyncFdaTest, FedProxPullsWorkersTowardTheAnchor) {
  // The proximal term comes from the shared worker step, so it applies on
  // the event-ordered schedule too.
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_steps = 50;
  auto plain = RunAsync(data, config, LinearAsync(0.05));
  config.fedprox_mu = 0.5f;
  auto prox = RunAsync(data, config, LinearAsync(0.05));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(prox.ok());
  ASSERT_EQ(plain->history.size(), prox->history.size());
  bool differs = plain->total_syncs != prox->total_syncs ||
                 plain->comm.bytes_total != prox->comm.bytes_total ||
                 plain->final_test_accuracy != prox->final_test_accuracy;
  for (size_t i = 0; i < plain->history.size(); ++i) {
    differs |= plain->history[i].test_accuracy !=
               prox->history[i].test_accuracy;
  }
  EXPECT_TRUE(differs);
}

TEST(AsyncFdaTest, RejectsRoundScopedFaults) {
  SynthImageData data = SmallData();
  TrainerConfig outages = BaseConfig();
  outages.max_steps = 5;
  outages.faults.link_mttf_rounds = 10.0;
  outages.faults.link_mttr_rounds = 2.0;
  auto result = RunAsync(data, outages, LinearAsync(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("link_mttf_rounds"),
            std::string::npos);

  TrainerConfig deadline = BaseConfig();
  deadline.max_steps = 5;
  deadline.faults.round_deadline_seconds = 0.02;
  result = RunAsync(data, deadline, LinearAsync(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("round_deadline_seconds"),
            std::string::npos);
}

// A fleet on the event-ordered schedule rotates after every successful
// sync with uniform sampling, so the round-scoped cohort knobs come back
// as a Status instead of being silently ignored.
TEST(AsyncFdaTest, RejectsRoundScopedCohortKnobs) {
  SynthImageData data = SmallData();
  TrainerConfig fleet = BaseConfig();
  fleet.max_steps = 5;
  fleet.population = 16;
  ASSERT_TRUE(fleet.Validate().ok());

  TrainerConfig availability = fleet;
  availability.cohort_schedule = CohortScheduleKind::kAvailability;
  availability.faults = FaultConfig::Churn(10.0, 2.0);
  auto result = RunAsync(data, availability, LinearAsync(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("kAvailability"),
            std::string::npos);

  TrainerConfig period = fleet;
  period.cohort_steps = 4;
  result = RunAsync(data, period, LinearAsync(0.05));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("cohort_steps"),
            std::string::npos);

  // The defaults still run.
  EXPECT_TRUE(RunAsync(data, fleet, LinearAsync(0.05)).ok());
}

TEST(AsyncFdaTest, FasterThanBspUnderHeavyStragglers) {
  // The §3.3 claim: async lets fast workers proceed. Compare simulated
  // seconds per in-parallel step against the lock-step schedule's BSP
  // barrier (which pays the slowest worker's time every step).
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.num_workers = 5;
  // Half the workers are 8x slower in expectation; both schedules derive
  // the same per-worker factors from the seed (shared fork id), so the
  // comparison is apples-to-apples.
  config.straggler = StragglerModel::Heavy(0.01);
  config.straggler.slow_worker_prob = 0.5;
  config.seed = 31;
  config.max_steps = 100;

  DistributedTrainer bsp_trainer(MlpFactory(), data.train, data.test,
                                 config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.05),
                               bsp_trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto bsp = bsp_trainer.Run(policy->get());
  ASSERT_TRUE(bsp.ok());
  const double bsp_seconds_per_step =
      bsp->compute_seconds / static_cast<double>(bsp->total_steps);

  auto result = RunAsync(data, config, LinearAsync(0.05));
  ASSERT_TRUE(result.ok());
  const double async_seconds_per_step =
      result->sim_seconds_to_target /
      static_cast<double>(result->total_steps);

  // With ~20% of workers 8x slower, BSP pays ~8x base per step while async
  // pays ~mean; require a clear separation.
  EXPECT_LT(async_seconds_per_step, 0.7 * bsp_seconds_per_step);
}

TEST(AsyncFdaTest, ReachesAccuracyTarget) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.accuracy_target = 0.5;
  config.max_steps = 1000;
  AlgorithmConfig algorithm = AlgorithmConfig::AsyncFda(0.02);
  algorithm.monitor.sketch_cols = 64;
  auto result = RunAsync(data, config, algorithm);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->reached_target);
  EXPECT_GT(result->final_test_accuracy, 0.45);
}

}  // namespace
}  // namespace fedra
