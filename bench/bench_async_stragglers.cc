// §3.3 — Asynchronous FDA under stragglers.
//
// Compares BSP-style FDA (every step barriers on the slowest worker) with
// the coordinator-based asynchronous FDA, on the same workload, same
// Theta, same straggler assignment (shared seed), for a homogeneous
// cluster and one where half the workers run 8x slower.
//
// Expected shape: without stragglers the two are comparable in simulated
// wall time; with stragglers, async FDA's time-per-step stays near the
// cluster mean while BSP pays the slowest worker's time every step.

#include <cstdio>

#include "bench/harness.h"
#include "bench/presets.h"
#include "nn/zoo.h"
#include "util/string_util.h"

namespace fedra {
namespace bench {
namespace {

struct Outcome {
  double seconds_per_step = 0.0;
  double accuracy = 0.0;
  uint64_t syncs = 0;
};

int Main() {
  Banner("async_stragglers", "BSP FDA vs async FDA, with and without "
                             "stragglers");
  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 1024;
  data_config.num_test = 512;
  auto data = GenerateSynthImages(data_config);
  FEDRA_CHECK_OK(data.status());

  const int workers = 5;
  const size_t steps = 300;
  const double theta = 0.3;

  auto base_config = [&](StragglerModel straggler) {
    TrainerConfig config;
    config.num_workers = workers;
    config.batch_size = 8;
    config.local_optimizer = OptimizerConfig::Adam(0.002f);
    config.max_steps = steps;
    config.eval_every_steps = 50;
    config.eval_subset = 256;
    config.seed = 31;
    config.straggler = straggler;
    return config;
  };

  auto run_bsp = [&](StragglerModel straggler) {
    DistributedTrainer trainer(factory, data->train, data->test,
                               base_config(straggler));
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(theta),
                                 trainer.model_dim());
    FEDRA_CHECK_OK(policy.status());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK_OK(result.status());
    Outcome outcome;
    outcome.seconds_per_step =
        (result->compute_seconds + result->comm.comm_seconds) /
        static_cast<double>(result->total_steps);
    outcome.accuracy = result->final_test_accuracy;
    outcome.syncs = result->total_syncs;
    return outcome;
  };

  auto run_async = [&](StragglerModel straggler) {
    DistributedTrainer trainer(factory, data->train, data->test,
                               base_config(straggler));
    AlgorithmConfig async = AlgorithmConfig::AsyncFda(theta);
    async.monitor.kind = MonitorKind::kLinear;
    auto policy = MakeSyncPolicy(async, trainer.model_dim());
    FEDRA_CHECK_OK(policy.status());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK_OK(result.status());
    Outcome outcome;
    // The event-ordered clock stops at the budget: sim_seconds_to_target.
    outcome.seconds_per_step = result->sim_seconds_to_target /
                               static_cast<double>(result->total_steps);
    outcome.accuracy = result->final_test_accuracy;
    outcome.syncs = result->total_syncs;
    return outcome;
  };

  StragglerModel none = StragglerModel::None(0.01);
  StragglerModel heavy = StragglerModel::Heavy(0.01);
  heavy.slow_worker_prob = 0.5;

  std::printf("\n| %-22s | %14s | %8s | %6s |\n", "configuration",
              "sim s / step", "accuracy", "syncs");
  std::printf("|------------------------|----------------|----------|"
              "--------|\n");
  struct Case {
    const char* name;
    Outcome outcome;
  };
  Case cases[] = {
      {"BSP FDA, homogeneous", run_bsp(none)},
      {"Async FDA, homogeneous", run_async(none)},
      {"BSP FDA, stragglers", run_bsp(heavy)},
      {"Async FDA, stragglers", run_async(heavy)},
  };
  for (const auto& c : cases) {
    std::printf("| %-22s | %14.5f | %8.3f | %6llu |\n", c.name,
                c.outcome.seconds_per_step, c.outcome.accuracy,
                static_cast<unsigned long long>(c.outcome.syncs));
  }

  std::printf("\nClaims:\n");
  bool all_ok = true;
  all_ok &= CheckClaim(
      "homogeneous: async within 2x of BSP time per step",
      cases[1].outcome.seconds_per_step <
          2.0 * cases[0].outcome.seconds_per_step);
  all_ok &= CheckClaim(
      "stragglers: async is >= 1.5x faster per step than BSP",
      1.5 * cases[3].outcome.seconds_per_step <
          cases[2].outcome.seconds_per_step);
  all_ok &= CheckClaim(
      "async still learns (accuracy within 0.1 of BSP, stragglers)",
      cases[3].outcome.accuracy > cases[2].outcome.accuracy - 0.1);
  std::printf("\nasync_stragglers %s\n", all_ok ? "PASS" : "FAIL");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fedra

int main() { return fedra::bench::Main(); }
