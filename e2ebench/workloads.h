// The benchmark's three training workloads, built only from fedra's public
// API (DistributedTrainer, MakeSyncPolicy, the zoo and the synthetic data
// generator). The workload seed feeds both SynthImageConfig::seed and
// TrainerConfig::seed; the trainer receives only the generated data.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/model.h"
#include "util/status.h"

namespace e2e {

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Global thread-pool size the workload is measured at (FEDRA_NUM_THREADS,
  /// capped at the host's core count by run.py).
  int threads = 1;
  std::string model_name;
  fedra::SynthImageConfig data;
  fedra::ModelFactory factory;
  fedra::TrainerConfig trainer;
  fedra::AlgorithmConfig algorithm;
};

/// Names of all workloads, in the order run.py lists them.
const std::vector<std::string>& WorkloadNames();

/// The seed a workload uses when none is given on the command line.
uint64_t DefaultSeed(const std::string& name);

/// Builds workload `name` for `seed`. NotFound for an unknown name.
fedra::StatusOr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Everything Run() needs: generated data, the trainer, a fresh policy.
struct Prepared {
  std::unique_ptr<fedra::DistributedTrainer> trainer;
  std::unique_ptr<fedra::SyncPolicy> policy;
};

/// The set-up the benchmark times as setup_s: synthetic-data generation,
/// DistributedTrainer construction and MakeSyncPolicy.
fedra::StatusOr<Prepared> Prepare(const Workload& workload);

/// True for the FDA family, whose policy runs a variance monitor.
bool UsesMonitor(const Workload& workload);

/// The workload's full configuration as one JSON object.
std::string ConfigJson(const Workload& workload);

/// Exact agreement of a run's outcome: steps, bytes and syncs to target,
/// totals, and every evaluation point of the history.
bool SameOutcome(const fedra::TrainResult& a, const fedra::TrainResult& b);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
