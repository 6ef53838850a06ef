#include "tests/test_util.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/loss.h"
#include "util/check.h"

namespace fedra {
namespace testing {

namespace {

/// loss = sum_i weight_i * output_i with fixed random weights.
double WeightedLoss(const Tensor& output, const std::vector<float>& weights) {
  FEDRA_CHECK_EQ(output.numel(), weights.size());
  double loss = 0.0;
  for (size_t i = 0; i < output.numel(); ++i) {
    loss += static_cast<double>(output[i]) * weights[i];
  }
  return loss;
}

void UpdateErrors(double analytic, double numeric, GradCheckResult* result) {
  const double abs_error = std::fabs(analytic - numeric);
  // The scale floor absorbs central-difference noise on near-zero
  // gradients: float32 forward passes of deep nets perturb the loss by
  // ~1e-5, which divided by 2*eps would otherwise dominate the relative
  // error whenever the true gradient is ~0.
  const double scale =
      std::max({std::fabs(analytic), std::fabs(numeric), 2e-2});
  result->max_abs_error = std::max(result->max_abs_error, abs_error);
  result->max_rel_error = std::max(result->max_rel_error, abs_error / scale);
}

}  // namespace

GradCheckResult CheckInputGradient(LayerHarness* harness, const Tensor& input,
                                   uint64_t seed, double epsilon) {
  Rng rng(seed);
  harness->ctx().training = false;  // deterministic path (no dropout masks)

  Tensor base_output = harness->Forward(input);
  std::vector<float> weights(base_output.numel());
  FillUniform(weights.data(), weights.size(), &rng, -1.0f, 1.0f);

  // Analytic gradient: backprop the loss weights.
  Tensor grad_output(base_output.shape());
  for (size_t i = 0; i < weights.size(); ++i) {
    grad_output[i] = weights[i];
  }
  // Re-run forward so the layer's caches match this input.
  harness->Forward(input);
  Tensor analytic = harness->Backward(grad_output);

  GradCheckResult result;
  Tensor perturbed = input;
  for (size_t i = 0; i < input.numel(); ++i) {
    const float saved = perturbed[i];
    perturbed[i] = saved + static_cast<float>(epsilon);
    const double loss_hi = WeightedLoss(harness->Forward(perturbed), weights);
    perturbed[i] = saved - static_cast<float>(epsilon);
    const double loss_lo = WeightedLoss(harness->Forward(perturbed), weights);
    perturbed[i] = saved;
    const double numeric = (loss_hi - loss_lo) / (2.0 * epsilon);
    UpdateErrors(static_cast<double>(analytic[i]), numeric, &result);
  }
  return result;
}

GradCheckResult CheckParamGradient(Model* model, const Tensor& input,
                                   const std::vector<int>& labels,
                                   size_t num_probes, uint64_t seed,
                                   double epsilon) {
  Rng rng(seed);
  model->ZeroGrads();
  Tensor logits = model->Forward(input, /*training=*/false);
  LossResult loss = SoftmaxCrossEntropy(logits, labels);
  model->Backward(loss.grad_logits);

  GradCheckResult result;
  const size_t dim = model->num_params();
  for (size_t probe = 0; probe < num_probes; ++probe) {
    const size_t i = static_cast<size_t>(rng.NextBounded(dim));
    const float saved = model->params()[i];
    model->params()[i] = saved + static_cast<float>(epsilon);
    const double loss_hi =
        SoftmaxCrossEntropy(model->Forward(input, false), labels).loss;
    model->params()[i] = saved - static_cast<float>(epsilon);
    const double loss_lo =
        SoftmaxCrossEntropy(model->Forward(input, false), labels).loss;
    model->params()[i] = saved;
    const double numeric = (loss_hi - loss_lo) / (2.0 * epsilon);
    UpdateErrors(static_cast<double>(model->grads()[i]), numeric, &result);
  }
  return result;
}

namespace {

constexpr char kSweepChildEnv[] = "FEDRA_THREAD_SWEEP_CHILD";

std::string SelfExecutable() {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    return std::string();
  }
  return std::string(exe, static_cast<size_t>(len));
}

uint64_t HashMix(uint64_t hash, uint64_t value) {
  return hash ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Starts this binary's tests matching `gtest_filter` in a sweep child at
// FEDRA_NUM_THREADS=`value`; `stderr_redirect` says where its stderr goes.
FILE* OpenChild(const std::string& value, const std::string& gtest_filter,
                const char* stderr_redirect) {
  const std::string command = std::string(kSweepChildEnv) +
                              "=1 FEDRA_NUM_THREADS='" + value + "' '" +
                              SelfExecutable() + "' --gtest_filter='" +
                              gtest_filter + "' " + stderr_redirect;
  return popen(command.c_str(), "r");
}

}  // namespace

bool SkipThreadSweep() {
  return std::getenv(kSweepChildEnv) != nullptr || SelfExecutable().empty();
}

std::string RunWithThreads(int threads, const std::string& gtest_filter,
                           const std::string& tag) {
  FILE* pipe =
      OpenChild(std::to_string(threads), gtest_filter, "2>/dev/null");
  if (pipe == nullptr) {
    return "child-failed";
  }
  const std::string prefix = tag + " ";
  std::string value;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::strncmp(line, prefix.c_str(), prefix.size()) == 0) {
      value.assign(line + prefix.size());
      while (!value.empty() &&
             (value.back() == '\n' || value.back() == '\r')) {
        value.pop_back();
      }
    }
  }
  if (pclose(pipe) != 0 || value.empty()) {
    return "child-failed";
  }
  return value;
}

int RunWithThreadsValue(const std::string& value,
                        const std::string& gtest_filter, std::string* output) {
  output->clear();
  FILE* pipe = OpenChild(value, gtest_filter, "2>&1");
  if (pipe == nullptr) {
    return -1;
  }
  char chunk[256];
  while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) {
    output->append(chunk);
  }
  return pclose(pipe);
}

std::string HexHash(uint64_t hash) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

uint64_t HashTrainResult(const TrainResult& result) {
  uint64_t hash = 0x811c9dc5ULL;
  for (const EvalPoint& p : result.history) {
    hash = HashMix(hash, p.step);
    hash = HashMix(hash, Bits(p.train_accuracy));
    hash = HashMix(hash, Bits(p.test_accuracy));
    hash = HashMix(hash, p.bytes);
    hash = HashMix(hash, p.sync_count);
    hash = HashMix(hash, Bits(p.sim_seconds));
  }
  for (uint64_t value :
       {uint64_t{result.reached_target}, uint64_t{result.steps_to_target},
        result.bytes_to_target, uint64_t{result.total_steps},
        result.total_syncs, result.comm.bytes_total, result.comm.retries,
        result.comm.dropped_messages, result.rejoin_count,
        result.zero_participant_rounds, result.skipped_syncs,
        Bits(result.final_test_accuracy), Bits(result.final_train_accuracy),
        Bits(result.compute_seconds)}) {
    hash = HashMix(hash, value);
  }
  return hash;
}

}  // namespace testing
}  // namespace fedra
