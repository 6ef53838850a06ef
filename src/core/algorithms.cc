#include "core/algorithms.h"

#include "core/fda_policy.h"
#include "util/string_util.h"

namespace fedra {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSynchronous:
      return "Synchronous";
    case Algorithm::kLocalSgd:
      return "LocalSGD";
    case Algorithm::kSketchFda:
      return "SketchFDA";
    case Algorithm::kLinearFda:
      return "LinearFDA";
    case Algorithm::kExactFda:
      return "ExactFDA";
    case Algorithm::kAsyncFda:
      return "AsyncFDA";
    case Algorithm::kFedAvg:
      return "FedAvg";
    case Algorithm::kFedAvgM:
      return "FedAvgM";
    case Algorithm::kFedAdam:
      return "FedAdam";
  }
  return "unknown";
}

AlgorithmConfig AlgorithmConfig::Synchronous() {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kSynchronous;
  return config;
}

AlgorithmConfig AlgorithmConfig::LocalSgd(TauSchedule schedule) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kLocalSgd;
  config.tau = schedule;
  return config;
}

AlgorithmConfig AlgorithmConfig::SketchFda(double theta) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kSketchFda;
  config.theta = theta;
  config.monitor.kind = MonitorKind::kSketch;
  return config;
}

AlgorithmConfig AlgorithmConfig::LinearFda(double theta) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kLinearFda;
  config.theta = theta;
  config.monitor.kind = MonitorKind::kLinear;
  return config;
}

AlgorithmConfig AlgorithmConfig::ExactFda(double theta) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kExactFda;
  config.theta = theta;
  config.monitor.kind = MonitorKind::kExact;
  return config;
}

AlgorithmConfig AlgorithmConfig::AsyncFda(double theta) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kAsyncFda;
  config.theta = theta;
  return config;
}

AlgorithmConfig AlgorithmConfig::FedAvg(int local_epochs) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kFedAvg;
  config.fedopt = FedOptConfig::FedAvg(local_epochs);
  return config;
}

AlgorithmConfig AlgorithmConfig::FedAvgM(int local_epochs) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kFedAvgM;
  config.fedopt = FedOptConfig::FedAvgM(local_epochs);
  return config;
}

AlgorithmConfig AlgorithmConfig::FedAdam(int local_epochs) {
  AlgorithmConfig config;
  config.algorithm = Algorithm::kFedAdam;
  config.fedopt = FedOptConfig::FedAdam(local_epochs);
  return config;
}

Status AlgorithmConfig::Validate() const {
  switch (algorithm) {
    case Algorithm::kSketchFda:
    case Algorithm::kLinearFda:
    case Algorithm::kExactFda:
    case Algorithm::kAsyncFda:
      if (theta < 0.0) {
        return Status::InvalidArgument("theta must be >= 0");
      }
      return monitor.Validate();
    case Algorithm::kLocalSgd:
      if (tau.tau0 == 0) {
        return Status::InvalidArgument("tau0 must be > 0");
      }
      return Status::Ok();
    case Algorithm::kFedAvg:
    case Algorithm::kFedAvgM:
    case Algorithm::kFedAdam:
      if (fedopt.local_epochs < 1) {
        return Status::InvalidArgument("local_epochs must be >= 1");
      }
      return fedopt.server_optimizer.Validate();
    case Algorithm::kSynchronous:
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown algorithm");
}

std::string AlgorithmConfig::ToString() const {
  switch (algorithm) {
    case Algorithm::kSynchronous:
      return "Synchronous";
    case Algorithm::kLocalSgd:
      return StrFormat("LocalSGD(%s)", tau.ToString().c_str());
    case Algorithm::kSketchFda:
    case Algorithm::kLinearFda:
    case Algorithm::kExactFda:
    case Algorithm::kAsyncFda:
      return StrFormat("%s(theta=%g)", AlgorithmName(algorithm), theta);
    case Algorithm::kFedAvg:
    case Algorithm::kFedAvgM:
    case Algorithm::kFedAdam:
      return StrFormat("%s(E=%d)", AlgorithmName(algorithm),
                       fedopt.local_epochs);
  }
  return "unknown";
}

StatusOr<std::unique_ptr<SyncPolicy>> MakeSyncPolicy(
    const AlgorithmConfig& config, size_t dim) {
  FEDRA_RETURN_IF_ERROR(config.Validate());
  switch (config.algorithm) {
    case Algorithm::kSynchronous:
      return std::unique_ptr<SyncPolicy>(
          std::make_unique<SynchronousPolicy>());
    case Algorithm::kLocalSgd:
      return std::unique_ptr<SyncPolicy>(
          std::make_unique<LocalSgdPolicy>(config.tau));
    case Algorithm::kSketchFda:
    case Algorithm::kLinearFda:
    case Algorithm::kExactFda: {
      auto monitor = MakeVarianceMonitor(config.monitor, dim);
      if (!monitor.ok()) {
        return monitor.status();
      }
      return std::unique_ptr<SyncPolicy>(std::make_unique<FdaSyncPolicy>(
          std::move(monitor).value(), config.theta));
    }
    case Algorithm::kAsyncFda: {
      auto monitor = MakeVarianceMonitor(config.monitor, dim);
      if (!monitor.ok()) {
        return monitor.status();
      }
      return std::unique_ptr<SyncPolicy>(std::make_unique<AsyncFdaPolicy>(
          std::move(monitor).value(), config.theta));
    }
    case Algorithm::kFedAvg:
    case Algorithm::kFedAvgM:
    case Algorithm::kFedAdam:
      return std::unique_ptr<SyncPolicy>(
          std::make_unique<FedOptPolicy>(config.fedopt));
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace fedra
