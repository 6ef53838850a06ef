// Algorithm registry: a uniform config that names every DDL strategy in the
// paper's evaluation (plus the Local-SGD schedules from related work and the
// Exact-monitor ablation) and a factory building the matching SyncPolicy.
// Benches and examples drive training runs exclusively through this.

#ifndef FEDRA_CORE_ALGORITHMS_H_
#define FEDRA_CORE_ALGORITHMS_H_

#include <memory>
#include <string>

#include "core/baselines.h"
#include "core/fedopt_policy.h"
#include "core/trainer.h"
#include "core/variance_monitor.h"

namespace fedra {

enum class Algorithm {
  kSynchronous,  // BSP: sync every step
  kLocalSgd,     // fixed / decaying / increasing tau
  kSketchFda,    // paper §3.1
  kLinearFda,    // paper §3.2
  kExactFda,     // oracle monitor (ablation)
  kAsyncFda,     // paper §3.3: event-ordered schedule, coordinator decides
  kFedAvg,       // FedOpt family
  kFedAvgM,
  kFedAdam,
};

const char* AlgorithmName(Algorithm algorithm);

struct AlgorithmConfig {
  Algorithm algorithm = Algorithm::kSketchFda;
  double theta = 1.0;        // FDA family: the variance threshold
  MonitorConfig monitor;     // FDA family: estimator parameters
  TauSchedule tau = TauSchedule::Fixed(16);  // kLocalSgd
  FedOptConfig fedopt;       // FedOpt family

  static AlgorithmConfig Synchronous();
  static AlgorithmConfig LocalSgd(TauSchedule schedule);
  static AlgorithmConfig SketchFda(double theta);
  static AlgorithmConfig LinearFda(double theta);
  static AlgorithmConfig ExactFda(double theta);
  /// Asynchronous FDA over `monitor` (SketchFDA's estimator by default).
  static AlgorithmConfig AsyncFda(double theta);
  static AlgorithmConfig FedAvg(int local_epochs = 1);
  static AlgorithmConfig FedAvgM(int local_epochs = 1);
  static AlgorithmConfig FedAdam(int local_epochs = 1);

  Status Validate() const;
  std::string ToString() const;
};

/// Builds the SyncPolicy for a model of dimension `dim`.
StatusOr<std::unique_ptr<SyncPolicy>> MakeSyncPolicy(
    const AlgorithmConfig& config, size_t dim);

}  // namespace fedra

#endif  // FEDRA_CORE_ALGORITHMS_H_
