#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "metrics/ascii_plot.h"
#include "metrics/kde.h"
#include "metrics/summary.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fedra {
namespace bench {

namespace {

std::string AlgoConfigString(const AlgorithmConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kSketchFda:
    case Algorithm::kLinearFda:
    case Algorithm::kExactFda:
    case Algorithm::kAsyncFda:
      return StrFormat("theta=%g", config.theta);
    case Algorithm::kLocalSgd:
      return config.tau.ToString();
    case Algorithm::kFedAvg:
    case Algorithm::kFedAvgM:
    case Algorithm::kFedAdam:
      return StrFormat("E=%d", config.fedopt.local_epochs);
    case Algorithm::kSynchronous:
      return "-";
  }
  return "-";
}

char GlyphFor(const std::string& algorithm) {
  if (algorithm.find("Sketch") != std::string::npos) {
    return 'S';
  }
  if (algorithm.find("Linear") != std::string::npos) {
    return 'L';
  }
  if (algorithm.find("Exact") != std::string::npos) {
    return 'E';
  }
  if (algorithm.find("Synchronous") != std::string::npos) {
    return 'o';
  }
  if (algorithm.find("FedAdam") != std::string::npos) {
    return 'A';
  }
  if (algorithm.find("FedAvgM") != std::string::npos) {
    return 'M';
  }
  if (algorithm.find("FedAvg") != std::string::npos) {
    return 'F';
  }
  return '+';
}

}  // namespace

std::vector<SweepRow> RunSweep(const SweepSpec& spec) {
  std::vector<SweepRow> rows;
  Stopwatch total;
  for (const AlgorithmConfig& algo : spec.algorithms) {
    for (int workers : spec.worker_counts) {
      TrainerConfig config = spec.base;
      config.num_workers = workers;
      config.partition = spec.partition;
      config.accuracy_target = spec.accuracy_target;
      DistributedTrainer trainer(spec.factory, spec.data.train,
                                 spec.data.test, config);
      auto policy = MakeSyncPolicy(algo, trainer.model_dim());
      FEDRA_CHECK_OK(policy.status());
      auto result = trainer.Run(policy->get());
      FEDRA_CHECK_OK(result.status());
      SweepRow row;
      row.algorithm = result->algorithm;
      row.config = AlgoConfigString(algo);
      row.workers = workers;
      row.theta = algo.theta;
      row.heterogeneity = spec.partition.ToString();
      row.reached_target = result->reached_target;
      row.steps = result->steps_to_target;
      row.gigabytes = result->gigabytes_to_target();
      row.syncs = result->syncs_to_target;
      row.final_accuracy = result->final_test_accuracy;
      row.comm_seconds = result->comm.comm_seconds;
      row.compute_seconds = result->compute_seconds;
      rows.push_back(row);
      std::printf("  run %-12s %-10s K=%-3d %-16s -> %s steps=%zu GB=%.4g\n",
                  row.algorithm.c_str(), row.config.c_str(), workers,
                  row.heterogeneity.c_str(),
                  row.reached_target ? "hit " : "MISS", row.steps,
                  row.gigabytes);
      std::fflush(stdout);
    }
  }
  std::printf("  sweep wall time: %.1fs\n", total.ElapsedSeconds());
  return rows;
}

void PrintRows(const std::string& title, const std::vector<SweepRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf(
      "| %-12s | %-12s | %3s | %-16s | %3s | %8s | %10s | %6s | %6s |\n",
      "algorithm", "config", "K", "heterogeneity", "hit", "steps",
      "comm (GB)", "syncs", "acc");
  std::printf(
      "|--------------|--------------|-----|------------------|-----|"
      "----------|------------|--------|--------|\n");
  for (const auto& row : rows) {
    std::printf(
        "| %-12s | %-12s | %3d | %-16s | %3s | %8zu | %10.4g | %6llu | "
        "%5.3f |\n",
        row.algorithm.c_str(), row.config.c_str(), row.workers,
        row.heterogeneity.c_str(), row.reached_target ? "yes" : "no",
        row.steps, row.gigabytes,
        static_cast<unsigned long long>(row.syncs), row.final_accuracy);
  }
}

void PrintKdeSummary(const std::vector<SweepRow>& rows) {
  // Group rows by algorithm.
  std::vector<std::string> algorithms;
  for (const auto& row : rows) {
    bool known = false;
    for (const auto& name : algorithms) {
      known |= name == row.algorithm;
    }
    if (!known) {
      algorithms.push_back(row.algorithm);
    }
  }
  std::printf("\nKDE modes over (communication, computation) clouds "
              "(cf. the paper's bivariate KDE plots):\n");
  for (const auto& algorithm : algorithms) {
    std::vector<double> log_gb;
    std::vector<double> log_steps;
    for (const auto& row : rows) {
      if (row.algorithm == algorithm && row.reached_target &&
          row.gigabytes > 0.0 && row.steps > 0) {
        log_gb.push_back(std::log10(row.gigabytes));
        log_steps.push_back(std::log10(static_cast<double>(row.steps)));
      }
    }
    if (log_gb.empty()) {
      std::printf("  %-12s: no runs reached the target\n",
                  algorithm.c_str());
      continue;
    }
    Kde2d kde(log_gb, log_steps);
    auto mode = kde.FindMode(48);
    std::printf("  %-12s: mode at comm=%.4g GB, steps=%.4g  (%zu runs)\n",
                algorithm.c_str(), std::pow(10.0, mode.x),
                std::pow(10.0, mode.y), log_gb.size());
  }
}

void PrintScatter(const std::string& title,
                  const std::vector<SweepRow>& rows) {
  std::vector<ScatterSeries> series;
  for (const auto& row : rows) {
    if (!row.reached_target) {
      continue;
    }
    ScatterSeries* found = nullptr;
    for (auto& s : series) {
      if (s.label == row.algorithm) {
        found = &s;
      }
    }
    if (found == nullptr) {
      ScatterSeries s;
      s.label = row.algorithm;
      s.glyph = GlyphFor(row.algorithm);
      series.push_back(s);
      found = &series.back();
    }
    found->xs.push_back(row.gigabytes);
    found->ys.push_back(static_cast<double>(row.steps));
  }
  ScatterOptions options;
  options.title = title;
  options.x_label = "Communication (GB)";
  options.y_label = "In-Parallel Learning Steps";
  options.width = 64;
  options.height = 16;
  std::printf("\n%s\n", RenderScatter(series, options).c_str());
}

void WriteCsv(const std::string& experiment_id,
              const std::vector<SweepRow>& rows,
              const std::string& suffix) {
  std::filesystem::create_directories("bench_out");
  CsvWriter csv({"algorithm", "config", "workers", "theta", "heterogeneity",
                 "reached_target", "steps", "gigabytes", "syncs",
                 "final_accuracy", "comm_seconds", "compute_seconds"});
  for (const auto& row : rows) {
    csv.Add(row.algorithm, row.config, row.workers, row.theta,
            row.heterogeneity, row.reached_target ? 1 : 0, row.steps,
            row.gigabytes, row.syncs, row.final_accuracy, row.comm_seconds,
            row.compute_seconds);
  }
  const std::string path =
      "bench_out/" + experiment_id + suffix + ".csv";
  FEDRA_CHECK_OK(csv.WriteToFile(path));
  std::printf("  wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

bool CheckClaim(const std::string& name, bool condition) {
  std::printf("  [%s] %s\n", condition ? "PASS" : "FAIL", name.c_str());
  return condition;
}

double MeanGigabytes(const std::vector<SweepRow>& rows,
                     const std::string& algorithm) {
  std::vector<double> values;
  for (const auto& row : rows) {
    if (row.algorithm == algorithm && row.reached_target &&
        row.gigabytes > 0.0) {
      values.push_back(row.gigabytes);
    }
  }
  return values.empty() ? 0.0 : GeometricMean(values);
}

double MeanSteps(const std::vector<SweepRow>& rows,
                 const std::string& algorithm) {
  std::vector<double> values;
  for (const auto& row : rows) {
    if (row.algorithm == algorithm && row.reached_target &&
        row.steps > 0) {
      values.push_back(static_cast<double>(row.steps));
    }
  }
  return values.empty() ? 0.0 : GeometricMean(values);
}

double BestGigabytes(const std::vector<SweepRow>& rows,
                     const std::string& algorithm, int workers) {
  double best = 0.0;
  for (const auto& row : rows) {
    if (row.algorithm != algorithm || !row.reached_target ||
        (workers > 0 && row.workers != workers)) {
      continue;
    }
    if (best == 0.0 || row.gigabytes < best) {
      best = row.gigabytes;
    }
  }
  return best;
}

double BestSteps(const std::vector<SweepRow>& rows,
                 const std::string& algorithm, int workers) {
  double best = 0.0;
  for (const auto& row : rows) {
    if (row.algorithm != algorithm || !row.reached_target ||
        (workers > 0 && row.workers != workers)) {
      continue;
    }
    if (best == 0.0 || static_cast<double>(row.steps) < best) {
      best = static_cast<double>(row.steps);
    }
  }
  return best;
}

std::vector<int> WorkerCounts(const std::vector<SweepRow>& rows) {
  std::vector<int> counts;
  for (const auto& row : rows) {
    bool known = false;
    for (int k : counts) {
      known |= k == row.workers;
    }
    if (!known) {
      counts.push_back(row.workers);
    }
  }
  return counts;
}

void Banner(const std::string& experiment_id, const std::string& subtitle) {
  std::printf("==========================================================\n");
  std::printf("fedra bench %s — %s\n", experiment_id.c_str(),
              subtitle.c_str());
  std::printf("==========================================================\n");
}

}  // namespace bench
}  // namespace fedra
