// Churn FDA: the paper's headline robustness claim, measured. Dynamic
// averaging degrades gracefully when the fleet does not cooperate — here
// 20% of the workers are down at any moment (Markov churn, MTTF 10 rounds)
// and 1% of sync contributions are lost in transit. FDA under that fault
// schedule still reaches the accuracy target with a bounded uplink-time
// overhead versus the fault-free run, while a fault-oblivious FedAvg —
// which averages stale, zero-delta contributions from crashed clients as
// if nothing happened — visibly lags at the same step budget.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/churn_fda

#include <cstdio>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/fedopt_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "util/string_util.h"

using namespace fedra;

namespace {

/// The fault-oblivious strawman: runs its inner policy as if the fleet were
/// healthy. With the participation mask and the fault layer hidden, FedAvg
/// averages every worker's delta — stale params from crashed workers
/// included — and never runs the loss/retry gauntlet.
class FaultObliviousPolicy : public SyncPolicy {
 public:
  explicit FaultObliviousPolicy(SyncPolicy* inner) : inner_(inner) {}

  void Initialize(ClusterContext& ctx) override { inner_->Initialize(ctx); }
  bool MaybeSync(ClusterContext& ctx) override {
    const std::vector<char>* participation = ctx.participation;
    FaultInjector* faults = ctx.faults;
    ctx.participation = nullptr;
    ctx.faults = nullptr;
    const bool synced = inner_->MaybeSync(ctx);
    ctx.participation = participation;
    ctx.faults = faults;
    return synced;
  }
  std::string name() const override { return inner_->name(); }

 private:
  SyncPolicy* inner_;
};

TrainResult RunOne(const char* tag, ModelFactory factory,
                   const SynthImageData& data, const TrainerConfig& config,
                   SyncPolicy* policy) {
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto result = trainer.Run(policy);
  FEDRA_CHECK_OK(result.status());
  std::printf(
      "%-22s acc %5.1f%%  steps-to-target %4zu  syncs %4llu  skipped %3llu"
      "  rejoins %3llu\n"
      "%-22s uplink %.3fs  retries %llu  dropped %llu  comm %s\n",
      tag, 100.0 * result->final_test_accuracy,
      result->reached_target ? result->steps_to_target : result->total_steps,
      static_cast<unsigned long long>(result->total_syncs),
      static_cast<unsigned long long>(result->skipped_syncs),
      static_cast<unsigned long long>(result->rejoin_count), "",
      result->comm.SecondsAtDepth(0),
      static_cast<unsigned long long>(result->comm.retries),
      static_cast<unsigned long long>(result->comm.dropped_messages),
      HumanBytes(static_cast<double>(result->comm.bytes_total)).c_str());
  return std::move(result).value();
}

}  // namespace

int main() {
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 2048;
  data_config.num_test = 512;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  FEDRA_CHECK_OK(data.status());

  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {32}, 10); };

  TrainerConfig config;
  config.num_workers = 8;  // K
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  // Mild heterogeneity: half of each shard is label-sorted, so worker
  // drifts genuinely diverge and averaging quality matters.
  config.partition = PartitionConfig::SortedFraction(0.5);
  config.network = NetworkModel::Federated();
  config.accuracy_target = 0.95;
  config.max_steps = 1500;
  config.eval_every_steps = 50;
  config.seed = 17;

  // The fault schedule: MTTF 10 / MTTR 2.5 rounds => stationary
  // availability 10 / 12.5 = 80% (20% of the fleet down at any time),
  // plus 1% transit loss on every sync contribution.
  FaultConfig faults = FaultConfig::Churn(10.0, 2.5);
  faults.message_loss_prob = 0.01;
  FEDRA_CHECK_OK(faults.Validate());

  const double theta = 0.5;
  std::printf("LinearFDA, K = %d, Theta = %.1f, d = %zu\n\n",
              config.num_workers, theta, factory()->num_params());

  // 1. The fault-free reference.
  auto fda_policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(theta),
                                   factory()->num_params());
  FEDRA_CHECK_OK(fda_policy.status());
  const TrainResult clean =
      RunOne("FDA fault-free", factory, *data, config, fda_policy->get());

  // 2. The same FDA under churn + loss.
  config.faults = faults;
  auto fda_churn_policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(theta),
                                         factory()->num_params());
  FEDRA_CHECK_OK(fda_churn_policy.status());
  const TrainResult churn = RunOne("FDA 20% churn/1% loss", factory, *data,
                                   config, fda_churn_policy->get());

  // 3. The strawman: FedAvg that ignores the participation mask and
  //    averages every worker's (stale) delta as if the fleet were healthy.
  FedOptPolicy fedavg(FedOptConfig::FedAvg(/*local_epochs=*/1));
  FaultObliviousPolicy fedavg_oblivious(&fedavg);
  const TrainResult strawman = RunOne("FedAvg fault-oblivious", factory,
                                      *data, config, &fedavg_oblivious);

  // 4. The same FedAvg, fault-aware: survivors-only averaging.
  FedOptPolicy fedavg_aware(FedOptConfig::FedAvg(/*local_epochs=*/1));
  const TrainResult aware = RunOne("FedAvg fault-aware", factory, *data,
                                   config, &fedavg_aware);

  // The claims, enforced. FDA still gets there under faults...
  FEDRA_CHECK(clean.reached_target);
  FEDRA_CHECK(churn.reached_target)
      << "FDA under churn missed the accuracy target";
  // ...the survivors' extra uplink time (retries, catch-up syncs, extra
  // variance trips) stays bounded...
  // The single shared channel is the uplink: depth 0 of the network.
  const double churn_uplink = churn.comm.SecondsAtDepth(0);
  const double clean_uplink = clean.comm.SecondsAtDepth(0);
  FEDRA_CHECK_LT(churn_uplink, 3.0 * clean_uplink + 1.0)
      << "churn uplink overhead exploded";
  // ...rejoiners actually paid their catch-up downloads, and the fault
  // layer really fired (this is not a fault-free rerun):
  FEDRA_CHECK_GT(churn.rejoin_count, 0u);
  FEDRA_CHECK_EQ(churn.comm.catch_up_syncs, churn.rejoin_count);
  FEDRA_CHECK_GT(churn.comm.retries + churn.comm.dropped_messages, 0u);
  // ...while the fault-oblivious average — diluted every round by the
  // crashed clients' zero deltas — needs more steps to the target than
  // its fault-aware twin, and burns more uplink time than FDA under the
  // same fault schedule.
  const size_t oblivious_steps = strawman.reached_target
                                     ? strawman.steps_to_target
                                     : strawman.total_steps + 1;
  const size_t aware_steps =
      aware.reached_target ? aware.steps_to_target : aware.total_steps + 1;
  FEDRA_CHECK_GT(oblivious_steps, aware_steps)
      << "the oblivious strawman should be slower than survivor-only "
         "averaging";
  FEDRA_CHECK_GT(strawman.comm.bytes_total, churn.comm.bytes_total)
      << "the oblivious strawman should out-communicate FDA";

  std::printf(
      "\nUnder 20%% churn FDA pays %.2fx the fault-free uplink seconds and\n"
      "still clears %.0f%%. The oblivious FedAvg average is diluted by the\n"
      "crashed clients' zero deltas: %zu steps to target vs %zu for\n"
      "survivor-only averaging, at %.2fx FDA's communication volume.\n",
      churn_uplink / (clean_uplink > 0.0 ? clean_uplink : 1.0),
      100.0 * config.accuracy_target, oblivious_steps, aware_steps,
      static_cast<double>(strawman.comm.bytes_total) /
          static_cast<double>(churn.comm.bytes_total));
  return 0;
}
