// Asynchronous FDA on a heterogeneous edge fleet (paper §3.3): a cluster
// where some devices are much slower (older phones, throttled thermal
// envelopes). BSP-style training pays the slowest device's step time at
// every barrier; the coordinator-based asynchronous FDA lets fast devices
// keep training and still triggers variance-based synchronization.

#include <cstdio>

#include "core/algorithms.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"

using namespace fedra;

int main() {
  auto data = GenerateSynthImages([] {
    SynthImageConfig config = MnistLikeConfig();
    config.num_train = 2048;
    config.num_test = 512;
    return config;
  }());
  FEDRA_CHECK_OK(data.status());
  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {48}, 10); };

  // The edge fleet: median step 20 ms, 30% of devices 8x slower.
  StragglerModel fleet;
  fleet.base_step_seconds = 0.02;
  fleet.lognormal_sigma = 0.25;
  fleet.slow_worker_prob = 0.3;
  fleet.slow_factor = 8.0;

  TrainerConfig config;
  config.num_workers = 6;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.max_steps = 400;
  config.eval_every_steps = 50;
  config.straggler = fleet;
  config.seed = 7;

  // Synchronous-FDA (BSP barriers) for reference.
  DistributedTrainer bsp_trainer(factory, data->train, data->test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.4),
                               bsp_trainer.model_dim());
  FEDRA_CHECK_OK(policy.status());
  auto bsp = bsp_trainer.Run(policy->get());
  FEDRA_CHECK_OK(bsp.status());

  // Asynchronous FDA: same Theta, same fleet, same step budget.
  DistributedTrainer async_trainer(factory, data->train, data->test, config);
  AlgorithmConfig async = AlgorithmConfig::AsyncFda(0.4);
  async.monitor.kind = MonitorKind::kLinear;
  auto async_policy = MakeSyncPolicy(async, async_trainer.model_dim());
  FEDRA_CHECK_OK(async_policy.status());
  auto result = async_trainer.Run(async_policy->get());
  FEDRA_CHECK_OK(result.status());

  const double bsp_wall = bsp->compute_seconds + bsp->comm.comm_seconds;
  std::printf("BSP FDA   : %zu steps in %.1f simulated s "
              "(%.1f ms/step), accuracy %.1f%%, %llu syncs\n",
              bsp->total_steps, bsp_wall,
              1e3 * bsp_wall / static_cast<double>(bsp->total_steps),
              100.0 * bsp->final_test_accuracy,
              static_cast<unsigned long long>(bsp->total_syncs));
  // The event-ordered clock stops at the budget: sim_seconds_to_target.
  const size_t worker_steps =
      result->total_steps * static_cast<size_t>(config.num_workers);
  const double async_wall = result->sim_seconds_to_target;
  const double async_per_step =
      async_wall / static_cast<double>(result->total_steps);
  std::printf("Async FDA : %zu worker-steps in %.1f simulated s "
              "(%.1f ms/in-parallel step), accuracy %.1f%%, %llu syncs\n",
              worker_steps, async_wall, 1e3 * async_per_step,
              100.0 * result->final_test_accuracy,
              static_cast<unsigned long long>(result->total_syncs));
  std::printf("\nspeedup from dropping the per-step barrier: %.1fx\n",
              (1e3 * bsp_wall / static_cast<double>(bsp->total_steps)) /
                  (1e3 * async_per_step));
  std::printf("(as §3.3 notes, the win is straggler tolerance, not "
              "bandwidth: local states are tiny either way)\n");
  return 0;
}
