#include "metrics/evaluation.h"

#include <algorithm>

#include "nn/loss.h"
#include "util/rng.h"

namespace fedra {

namespace {

EvalResult EvaluateIndices(Model* model, const Dataset& dataset,
                           const std::vector<size_t>& indices,
                           int batch_size) {
  EvalResult result;
  size_t correct = 0;
  double loss_sum = 0.0;
  ModelGraph& graph = model->graph();
  const ParameterView view = model->view();
  ModelGraph::ExecSlot slot = graph.AcquireSlot();
  for (size_t start = 0; start < indices.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(indices.size(),
                                start + static_cast<size_t>(batch_size));
    const std::vector<size_t> batch(indices.begin() + static_cast<long>(start),
                                    indices.begin() + static_cast<long>(end));
    Tensor images = dataset.GatherImages(batch);
    std::vector<int> labels = dataset.GatherLabels(batch);
    Tensor logits = graph.Infer(images, view, slot);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    correct += loss.correct;
    loss_sum += loss.loss * static_cast<double>(batch.size());
  }
  result.samples = indices.size();
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(indices.size());
  result.mean_loss = loss_sum / static_cast<double>(indices.size());
  return result;
}

}  // namespace

EvalResult Evaluate(Model* model, const Dataset& dataset, int batch_size) {
  std::vector<size_t> indices(dataset.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  return EvaluateIndices(model, dataset, indices, batch_size);
}

EvalResult EvaluateSubset(Model* model, const Dataset& dataset,
                          size_t max_samples, uint64_t seed, int batch_size) {
  if (max_samples >= dataset.size()) {
    return Evaluate(model, dataset, batch_size);
  }
  Rng rng(seed);
  std::vector<size_t> indices = rng.Permutation(dataset.size());
  indices.resize(max_samples);
  return EvaluateIndices(model, dataset, indices, batch_size);
}

}  // namespace fedra
