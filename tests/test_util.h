// Shared test helpers: random tensor filling and finite-difference gradient
// checking for layers and models.

#ifndef FEDRA_TESTS_TEST_UTIL_H_
#define FEDRA_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedra {
namespace testing {

inline void FillUniform(Tensor* t, Rng* rng, float lo = -1.0f,
                        float hi = 1.0f) {
  for (size_t i = 0; i < t->numel(); ++i) {
    (*t)[i] = rng->NextUniform(lo, hi);
  }
}

inline void FillUniform(float* data, size_t n, Rng* rng, float lo = -1.0f,
                        float hi = 1.0f) {
  for (size_t i = 0; i < n; ++i) {
    data[i] = rng->NextUniform(lo, hi);
  }
}

/// Standalone execution environment for a single layer: a finalized
/// ParameterStore with owned buffers, a LayerStateStore, and the
/// ExecContext tying them together. Registers + binds + (optionally)
/// initializes the layer on construction.
class LayerHarness {
 public:
  explicit LayerHarness(Layer* layer, uint64_t init_seed = 1) : layer_(layer) {
    layer_->RegisterParams(&store_);
    store_.Finalize();
    layer_->BindOffsets(store_);
    states_ = std::make_unique<LayerStateStore>(store_.num_state_slots());
    ctx_.view = ParameterView{store_.params(), store_.grads(),
                              store_.num_params()};
    ctx_.states = states_.get();
    Rng rng(init_seed);
    layer_->InitParams(&rng, ctx_.view);
  }

  ParameterStore& store() { return store_; }
  ExecContext& ctx() { return ctx_; }

  Tensor Forward(const Tensor& input) { return layer_->Forward(input, ctx_); }
  Tensor Backward(const Tensor& grad_output) {
    return layer_->Backward(grad_output, ctx_);
  }

 private:
  Layer* layer_;
  ParameterStore store_;
  std::unique_ptr<LayerStateStore> states_;
  ExecContext ctx_;
};

/// Scalar loss used for gradient checks: weighted sum of the output.
/// Fixed random weights make the check sensitive to every output element.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

/// Checks d(loss)/d(input) of a harnessed layer against central finite
/// differences.
GradCheckResult CheckInputGradient(LayerHarness* harness, const Tensor& input,
                                   uint64_t seed, double epsilon = 1e-3);

/// Checks d(loss)/d(params) of a model (all parameters at once, sampled
/// `num_probes` coordinates to keep runtime bounded).
GradCheckResult CheckParamGradient(Model* model, const Tensor& input,
                                   const std::vector<int>& labels,
                                   size_t num_probes, uint64_t seed,
                                   double epsilon = 1e-3);

// ------------------------------------------------ thread-count parity --
//
// The global pool is sized once per process, so a sweep re-executes this
// test binary with FEDRA_NUM_THREADS pinned, runs one test that prints
// "<tag> <value>", and compares the values the children printed.

/// True inside a sweep's child process, or when this binary cannot
/// re-execute itself (no /proc/self/exe): sweep tests skip themselves then.
bool SkipThreadSweep();

/// Runs the tests matching `gtest_filter` of this binary in a child
/// process at FEDRA_NUM_THREADS = `threads` and returns the text after
/// "<tag> " on the last line starting with it; "child-failed" when the
/// child exits non-zero or prints no such line.
std::string RunWithThreads(int threads, const std::string& gtest_filter,
                           const std::string& tag);

/// The "%016llx" spelling of a hash, as sweep children print it.
std::string HexHash(uint64_t hash);

/// Hash of everything the determinism contract fixes about a run: every
/// evaluation point (accuracies and simulated seconds by their bits), the
/// totals, the final accuracies and the fault-layer counters.
uint64_t HashTrainResult(const TrainResult& result);

}  // namespace testing
}  // namespace fedra

#endif  // FEDRA_TESTS_TEST_UTIL_H_
