#include "workloads.h"

#include <cstdio>
#include <utility>

#include "core/compression.h"
#include "nn/zoo.h"
#include "sim/fault_model.h"
#include "sim/network_model.h"

namespace e2e {

using fedra::AlgorithmConfig;
using fedra::Status;
using fedra::StatusOr;

namespace {

// The bench presets' hard synth-MNIST 16x16 task: convergence takes
// hundreds of steps, so the run lives in the paper's regime.
fedra::SynthImageConfig HardMnist16(uint64_t seed) {
  fedra::SynthImageConfig data = fedra::MnistLikeConfig();
  data.image_size = 16;
  data.num_train = 1024;
  data.num_test = 512;
  data.noise_stddev = 0.45f;
  data.deform_stddev = 0.5f;
  data.seed = seed;
  return data;
}

// Paper Fig. 3: LeNet-5, K = 8, SketchFDA at Theta = 4 with the paper's
// 5 x 250 sketch, IID shards.
Workload LeNetFda(uint64_t seed) {
  Workload w;
  w.name = "lenet_fda";
  w.seed = seed;
  w.threads = 4;
  w.model_name = "LeNet-5";
  w.data = HardMnist16(seed);
  w.factory = [] { return fedra::zoo::LeNet5(1, 16, 10); };
  w.trainer.num_workers = 8;
  w.trainer.batch_size = 8;
  w.trainer.local_optimizer = fedra::OptimizerConfig::Adam(0.002f);
  w.trainer.partition = fedra::PartitionConfig::Iid();
  w.trainer.seed = seed;
  w.trainer.accuracy_target = 0.80;
  w.trainer.max_steps = 1000;
  w.trainer.eval_every_steps = 200;
  w.trainer.eval_subset = 1024;
  w.algorithm = AlgorithmConfig::SketchFda(4.0);
  return w;
}

// The coded arm of examples/compressed_fleet_fda: 10^5 clients through 64
// slots, Markov churn, top-5% + 8-bit codec with error feedback.
Workload FleetCodec(uint64_t seed) {
  Workload w;
  w.name = "fleet_codec";
  w.seed = seed;
  w.threads = 1;
  w.model_name = "MLP 256-16-10";
  w.data = fedra::MnistLikeConfig();
  w.data.image_size = 16;
  w.data.num_train = 2048;
  w.data.num_test = 512;
  w.data.seed = seed;
  w.factory = [] { return fedra::zoo::Mlp(16 * 16, {16}, 10); };
  fedra::TrainerConfig& t = w.trainer;
  t.num_workers = 64;
  t.population = 100000;
  t.cohort_size = 64;
  t.cohort_steps = 20;
  t.cohort_schedule = fedra::CohortScheduleKind::kAvailability;
  t.batch_size = 8;
  t.local_optimizer = fedra::OptimizerConfig::Sgd(0.05f);
  t.partition = fedra::PartitionConfig::SortedFraction(0.5);
  t.network = fedra::NetworkModel::Federated();
  t.seed = seed;
  t.accuracy_target = 0.58;
  t.max_steps = 1200;
  t.eval_every_steps = 300;
  t.eval_subset = 256;
  t.faults = fedra::FaultConfig::Churn(10.0, 2.5);
  t.sync_compression = fedra::CompressionConfig::Stages(
      {fedra::CodecStageConfig::TopK(0.05),
       fedra::CodecStageConfig::Quantize(8)});
  w.algorithm = AlgorithmConfig::LinearFda(0.15);
  return w;
}

// The paper's Synchronous (BSP) arm on a wide MLP: a full-model AllReduce
// and a 273k-parameter Adam step on every round. Runnable by name but not
// listed in BENCHMARK.json: its 35 MB of per-round worker state streams
// through the shared L3, and on a shared host its timings spread past any
// bound the benchmark allows (see README.md, Steadiness).
Workload WideSync(uint64_t seed) {
  Workload w;
  w.name = "wide_sync";
  w.seed = seed;
  w.threads = 1;
  w.model_name = "MLP 256-1024-10";
  w.data = HardMnist16(seed);
  w.factory = [] { return fedra::zoo::Mlp(16 * 16, {1024}, 10); };
  w.trainer.num_workers = 8;
  w.trainer.batch_size = 16;
  w.trainer.local_optimizer = fedra::OptimizerConfig::Adam(0.002f);
  w.trainer.partition = fedra::PartitionConfig::Iid();
  w.trainer.seed = seed;
  w.trainer.accuracy_target = 0.83;
  w.trainer.max_steps = 1200;
  w.trainer.eval_every_steps = 150;
  w.trainer.eval_subset = 256;
  w.algorithm = AlgorithmConfig::Synchronous();
  return w;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lenet_fda", "fleet_codec",
                                                 "wide_sync"};
  return names;
}

uint64_t DefaultSeed(const std::string& name) {
  if (name == "fleet_codec") {
    return 23;  // the seed of examples/compressed_fleet_fda
  }
  return 2025;  // the figure benches' trainer seed
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "lenet_fda") {
    return LeNetFda(seed);
  }
  if (name == "fleet_codec") {
    return FleetCodec(seed);
  }
  if (name == "wide_sync") {
    return WideSync(seed);
  }
  return Status::NotFound("unknown workload '" + name + "'");
}

StatusOr<Prepared> Prepare(const Workload& workload) {
  auto data = fedra::GenerateSynthImages(workload.data);
  if (!data.ok()) {
    return data.status();
  }
  Prepared prepared;
  prepared.trainer = std::make_unique<fedra::DistributedTrainer>(
      workload.factory, std::move(data->train), std::move(data->test),
      workload.trainer);
  auto policy =
      fedra::MakeSyncPolicy(workload.algorithm, prepared.trainer->model_dim());
  if (!policy.ok()) {
    return policy.status();
  }
  prepared.policy = std::move(policy).value();
  return prepared;
}

bool UsesMonitor(const Workload& w) {
  const fedra::Algorithm a = w.algorithm.algorithm;
  return a == fedra::Algorithm::kSketchFda ||
         a == fedra::Algorithm::kLinearFda || a == fedra::Algorithm::kExactFda;
}

std::string ConfigJson(const Workload& w) {
  const fedra::TrainerConfig& t = w.trainer;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seed\": %llu, \"threads\": %d, \"model\": %s, "
      "\"data\": {\"image_size\": %d, \"num_train\": %zu, \"num_test\": %zu, "
      "\"noise_stddev\": %.2f, \"deform_stddev\": %.2f}, "
      "\"algorithm\": %s, \"workers\": %d, \"batch_size\": %d, "
      "\"optimizer\": %s, \"partition\": %s, \"population\": %zu, "
      "\"cohort_steps\": %d, \"churn_mttf_mttr\": [%.1f, %.1f], "
      "\"compression\": %s, \"accuracy_target\": %.2f, "
      "\"max_steps\": %zu, \"eval_every_steps\": %zu, \"eval_subset\": %zu}",
      static_cast<unsigned long long>(w.seed), w.threads,
      JsonString(w.model_name).c_str(),
      w.data.image_size, w.data.num_train, w.data.num_test,
      static_cast<double>(w.data.noise_stddev),
      static_cast<double>(w.data.deform_stddev),
      JsonString(w.algorithm.ToString()).c_str(), t.num_workers,
      t.batch_size, JsonString(t.local_optimizer.ToString()).c_str(),
      JsonString(t.partition.ToString()).c_str(), t.population,
      t.cohort_steps, t.faults.worker_mttf_rounds,
      t.faults.worker_mttr_rounds,
      JsonString(t.sync_compression.ToString()).c_str(), t.accuracy_target,
      t.max_steps, t.eval_every_steps, t.eval_subset);
  return buf;
}

// Exact agreement of everything a run's outcome consists of.
bool SameOutcome(const fedra::TrainResult& a, const fedra::TrainResult& b) {
  if (a.reached_target != b.reached_target ||
      a.steps_to_target != b.steps_to_target ||
      a.bytes_to_target != b.bytes_to_target ||
      a.syncs_to_target != b.syncs_to_target ||
      a.total_steps != b.total_steps || a.total_syncs != b.total_syncs ||
      a.final_test_accuracy != b.final_test_accuracy ||
      a.comm.bytes_total != b.comm.bytes_total ||
      a.comm.allreduce_calls != b.comm.allreduce_calls ||
      a.history.size() != b.history.size()) {
    return false;
  }
  for (size_t i = 0; i < a.history.size(); ++i) {
    const fedra::EvalPoint& p = a.history[i];
    const fedra::EvalPoint& q = b.history[i];
    if (p.step != q.step || p.test_accuracy != q.test_accuracy ||
        p.train_accuracy != q.train_accuracy || p.bytes != q.bytes ||
        p.sync_count != q.sync_count) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
