// Model evaluation: batched accuracy / loss over a dataset.
//
// Every batch runs ModelGraph::Infer on an execution slot leased from the
// model's graph: a training=false Forward that keeps no activations for a
// Backward that never comes, so an evaluation raises the process's memory
// high-water mark by its live tensors only. Leasing (rather than using the
// Model's own slot) lets a trainer evaluate on a slot its workers just
// released. Batches stay at 256 by default: BatchNorm2d normalizes with
// batch statistics even at eval (nn/layers_norm.h), so the batch size is
// part of a BN model's semantics — smaller chunks would change accuracy.

#ifndef FEDRA_METRICS_EVALUATION_H_
#define FEDRA_METRICS_EVALUATION_H_

#include "data/dataset.h"
#include "nn/model.h"

namespace fedra {

struct EvalResult {
  double accuracy = 0.0;
  double mean_loss = 0.0;
  size_t samples = 0;
};

/// Runs the model in eval mode over the whole dataset in batches.
EvalResult Evaluate(Model* model, const Dataset& dataset,
                    int batch_size = 256);

/// Accuracy on a random subset of `max_samples` (cheaper mid-training probe;
/// deterministic in `seed`).
EvalResult EvaluateSubset(Model* model, const Dataset& dataset,
                          size_t max_samples, uint64_t seed,
                          int batch_size = 256);

}  // namespace fedra

#endif  // FEDRA_METRICS_EVALUATION_H_
