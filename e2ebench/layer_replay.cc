#include "layer_replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <vector>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/variance_monitor.h"
#include "data/batching.h"
#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "opt/optimizer.h"
#include "core/trainer.h"
#include "sim/collectives.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  FEDRA_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median seconds per call of `call`, timed in blocks long enough (about a
// twentieth of the budget) that clock overhead vanishes for tiny calls.
// At least five blocks, more while the budget lasts.
template <typename F>
double MedianPerCall(F&& call, double budget_s) {
  call();  // warm caches and lazy scratch
  const Clock::time_point probe = Clock::now();
  call();
  const double one = std::max(SecondsSince(probe), 1e-9);
  const size_t per_block =
      std::max<size_t>(1, static_cast<size_t>(budget_s / 20.0 / one));
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  while (per_call.size() < 5 ||
         (per_call.size() < 41 && SecondsSince(start) < budget_s)) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < per_block; ++i) {
      call();
    }
    per_call.push_back(SecondsSince(t0) / static_cast<double>(per_block));
  }
  return Median(std::move(per_call));
}

std::vector<float> GaussianVector(size_t n, float stddev, uint64_t seed) {
  fedra::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.NextGaussian(0.0f, stddev);
  }
  return v;
}

}  // namespace

std::vector<LayerTime> ReplayLayers(const Workload& w,
                                    const LayerCounts& counts,
                                    const ModelSnapshot& snapshot,
                                    double budget_seconds) {
  const double slice = budget_seconds / 12.0;
  const fedra::TrainerConfig& config = w.trainer;
  const int k_workers = config.num_workers;
  auto data = fedra::GenerateSynthImages(w.data);
  FEDRA_CHECK_OK(data.status());
  const fedra::Dataset& train = data->train;
  const fedra::Dataset& test = data->test;
  std::unique_ptr<fedra::Model> model = w.factory();
  model->InitParams(config.seed);
  const size_t dim = model->num_params();
  const bool fda = UsesMonitor(w);
  const bool codec = config.sync_compression.enabled();
  // Under faults the policy's collectives run over the round's
  // participants only; the replay takes the median count, ascending ids.
  const bool subset = config.faults.enabled();
  std::vector<int> participants(static_cast<size_t>(
      subset ? std::clamp(counts.participants, 1, k_workers) : k_workers));
  std::iota(participants.begin(), participants.end(), 0);
  const size_t num_active = participants.size();
  std::vector<LayerTime> out;
  auto add = [&](const char* name, const char* unit, double seconds,
                 uint64_t calls, bool in_coverage = true) {
    const double scale = std::string(unit) == "ms" ? 1e3 : 1e6;
    out.push_back({name, unit, seconds * scale, calls, in_coverage});
  };

  // data: one worker's mini-batch draw and gather over its shard.
  {
    const size_t shard = std::max<size_t>(
        1, train.size() / static_cast<size_t>(k_workers));
    std::vector<size_t> indices(shard);
    std::iota(indices.begin(), indices.end(), 0);
    fedra::BatchSampler sampler(indices, config.batch_size,
                                fedra::Rng(config.seed));
    const double s = MedianPerCall(
        [&] {
          const std::vector<size_t>& batch = sampler.NextBatch();
          fedra::Tensor images = train.GatherImages(batch);
          std::vector<int> labels = train.GatherLabels(batch);
          FEDRA_CHECK_EQ(labels.size(), batch.size());
        },
        slice);
    add("data.batch_us", "us", s, counts.worker_steps);
  }

  // nn: training forward, then loss + backward, against the model's view.
  {
    std::vector<size_t> batch(static_cast<size_t>(config.batch_size));
    std::iota(batch.begin(), batch.end(), 0);
    const fedra::Tensor images = train.GatherImages(batch);
    const std::vector<int> labels = train.GatherLabels(batch);
    fedra::ModelGraph& graph = model->graph();
    const fedra::ParameterView view = model->view();
    fedra::ModelGraph::ExecSlot slot = graph.AcquireSlot();
    fedra::Rng rng(config.seed);
    std::vector<double> fwd;
    std::vector<double> bwd;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 3; ++i) {  // warm-up
      fedra::Tensor logits = graph.Forward(images, view, slot, true, &rng);
      fedra::LossResult loss = fedra::SoftmaxCrossEntropy(logits, labels);
      graph.Backward(loss.grad_logits, view, slot);
    }
    while (fwd.size() < 20 ||
           (fwd.size() < 20000 && SecondsSince(start) < 2.0 * slice)) {
      std::fill(view.grads, view.grads + dim, 0.0f);
      const Clock::time_point t0 = Clock::now();
      fedra::Tensor logits = graph.Forward(images, view, slot, true, &rng);
      const Clock::time_point t1 = Clock::now();
      fedra::LossResult loss = fedra::SoftmaxCrossEntropy(logits, labels);
      graph.Backward(loss.grad_logits, view, slot);
      const Clock::time_point t2 = Clock::now();
      fwd.push_back(std::chrono::duration<double>(t1 - t0).count());
      bwd.push_back(std::chrono::duration<double>(t2 - t1).count());
    }
    add("nn.forward_us", "us", Median(fwd), counts.worker_steps);
    add("nn.backward_us", "us", Median(bwd), counts.worker_steps);
  }

  // opt: one local optimizer step over the whole model span.
  {
    std::unique_ptr<fedra::Optimizer> optimizer =
        fedra::Optimizer::Create(config.local_optimizer, dim);
    std::vector<float> params(model->params(), model->params() + dim);
    const std::vector<float> grads = GaussianVector(dim, 1e-3f, 11);
    const double s = MedianPerCall(
        [&] { optimizer->Step(params.data(), grads.data(), dim); }, slice);
    add("opt.step_us", "us", s, counts.worker_steps);
  }

  // core: FDA monitor state, the variance estimate, the codec. Inputs are
  // the cohort's real models from the traced run's snapshot, visited
  // worker by worker as MaybeSync does (so each call meets cold rows).
  FEDRA_CHECK(!snapshot.empty());
  const std::vector<std::vector<float>>& rows = snapshot.params;
  const std::vector<float>& sync = snapshot.sync_params;
  FEDRA_CHECK_EQ(sync.size(), dim);
  const size_t num_rows = rows.size();
  std::vector<std::vector<float>> drifts(num_rows, std::vector<float>(dim));
  for (size_t k = 0; k < num_rows; ++k) {
    for (size_t i = 0; i < dim; ++i) {
      drifts[k][i] = rows[k][i] - sync[i];
    }
  }
  size_t next = 0;  // round-robin worker cursor
  auto next_row = [&] {
    next = (next + 1) % num_rows;
    return next;
  };
  std::unique_ptr<fedra::VarianceMonitor> monitor;
  std::vector<std::vector<float>> states;
  std::unique_ptr<fedra::SyncCompressor> compressor;
  if (codec) {
    compressor = std::make_unique<fedra::SyncCompressor>(
        config.sync_compression, dim, k_workers);
  }
  double monitor_s = 0.0;
  double estimate_s = 0.0;
  double preview_s = 0.0;
  double compress_s = 0.0;
  if (fda) {
    auto made = fedra::MakeVarianceMonitor(w.algorithm.monitor, dim);
    FEDRA_CHECK_OK(made.status());
    monitor = std::move(made).value();
    states.assign(num_rows, std::vector<float>(monitor->StateSize()));
    if (compressor != nullptr && compressor->has_mask()) {
      preview_s = MedianPerCall(
          [&] { compressor->MaskPreview(drifts[next_row()].data(), dim); },
          slice);
      std::vector<std::vector<uint32_t>> kept(num_rows);
      for (size_t k = 0; k < num_rows; ++k) {
        compressor->MaskPreview(drifts[k].data(), dim);
        kept[k] = compressor->kept_indices();
      }
      monitor_s = MedianPerCall(
          [&] {
            const size_t k = next_row();
            monitor->ComputeLocalStateSparse(drifts[k].data(),
                                             kept[k].data(), kept[k].size(),
                                             states[k].data());
          },
          slice);
    } else {
      monitor_s = MedianPerCall(
          [&] {
            const size_t k = next_row();
            monitor->ComputeDriftAndState(rows[k].data(), sync.data(),
                                          drifts[k].data(),
                                          states[k].data());
          },
          slice);
    }
    if (!config.fleet_enabled()) {
      double sink = 0.0;
      estimate_s = MedianPerCall(
          [&] { sink += monitor->EstimateVariance(states[0].data()); },
          slice);
      FEDRA_CHECK(sink == sink);  // keeps the estimate live
    }
  }
  if (compressor != nullptr) {
    std::vector<float> delta(dim);
    compress_s = MedianPerCall(
        [&] {
          const size_t k = next_row();
          std::copy(drifts[k].begin(), drifts[k].end(), delta.begin());
          compressor->CompressInPlace(static_cast<int>(k), delta.data(),
                                      dim);
        },
        slice);
  }
  add("core.monitor_us", "us", monitor_s, counts.monitored_states);
  add("core.mask_preview_us", "us", preview_s,
      preview_s > 0.0 ? counts.monitored_states : 0);
  add("core.compress_us", "us", compress_s, counts.compressed_deltas);

  // core: one fleet swap, the departing client's CheckOut plus a
  // first-touch arrival's CheckIn (most arrivals in a 10^5 population).
  // The store the swaps leave behind then serves the fleet's
  // population-corrected variance estimate.
  double checkin_s = 0.0;
  if (config.fleet_enabled()) {
    fedra::ClientStoreConfig store_config;
    store_config.population = config.population;
    store_config.cohort_slots = k_workers;
    store_config.dim = dim;
    store_config.opt_state_slots = config.local_optimizer.StateSlots();
    store_config.seed = config.seed;
    fedra::ClientStateStore store(store_config);
    store.SetStateSize(monitor != nullptr ? monitor->StateSize() : 0);
    const bool residuals = compressor != nullptr &&
                           compressor->has_residuals();
    store.SetResidualSize(residuals ? dim : 0);
    std::vector<float> opt_state(store_config.opt_state_slots * dim, 0.0f);
    float* opt_ptr = opt_state.empty() ? nullptr : opt_state.data();
    std::vector<float> state_out(store.state_size() + 1);
    std::vector<float> residual(dim, 1e-3f);
    std::vector<float> slot_params = rows[0];
    const fedra::Rng stream(config.seed);
    uint32_t client = 0;
    store.CheckIn(client, sync.data(), slot_params.data(), opt_ptr,
                  state_out.data(), residuals ? residual.data() : nullptr);
    // Every swap leaves one stored page behind; cap the replay's pages.
    const uint32_t max_swaps = 512;
    std::vector<double> samples;
    const Clock::time_point start = Clock::now();
    while (client + 1 < max_swaps &&
           (samples.size() < 20 || SecondsSince(start) < slice)) {
      std::copy(rows[0].begin(), rows[0].end(), slot_params.begin());
      const Clock::time_point t0 = Clock::now();
      store.CheckOut(client, slot_params.data(), sync.data(), opt_ptr,
                     stream, stream, 0, config.cohort_steps, monitor.get(),
                     residuals ? residual.data() : nullptr);
      ++client;
      store.CheckIn(client, sync.data(), slot_params.data(), opt_ptr,
                    state_out.data(), residuals ? residual.data() : nullptr);
      samples.push_back(SecondsSince(t0));
    }
    checkin_s = Median(std::move(samples));
    if (monitor != nullptr) {
      double sink = 0.0;
      estimate_s = MedianPerCall(
          [&] {
            sink += store.PopulationEstimate(*monitor, states[0].data(),
                                             static_cast<int>(num_active));
          },
          slice);
      FEDRA_CHECK(sink == sink);
    }
  }
  add("core.checkin_us", "us", checkin_s, counts.check_ins);
  add("core.estimate_us", "us", estimate_s, fda ? counts.policy_calls : 0);

  // sim: the per-round state AllReduce and the model-sync AllReduce, over
  // all K workers or, under faults, over the round's participants.
  {
    fedra::SimNetwork network = fedra::MakeSimNetwork(config);
    double state_s = 0.0;
    if (monitor != nullptr) {
      const size_t n = monitor->StateSize();
      std::vector<std::vector<float>> rows(num_active,
                                           GaussianVector(n, 1.0f, 14));
      std::vector<float*> buffers;
      for (auto& row : rows) {
        buffers.push_back(row.data());
      }
      state_s = MedianPerCall(
          [&] {
            if (subset) {
              network.AllReduceAverageSubset(
                  buffers, participants, n, fedra::TrafficClass::kLocalState);
            } else {
              network.AllReduceAverage(buffers, n,
                                       fedra::TrafficClass::kLocalState);
            }
          },
          slice);
    }
    add("sim.state_allreduce_us", "us", state_s,
        monitor != nullptr ? counts.policy_calls : 0);
    std::vector<std::vector<float>> models(rows.begin(),
                                           rows.begin() + num_active);
    std::vector<float*> buffers;
    for (auto& row : models) {
      buffers.push_back(row.data());
    }
    const std::vector<size_t> payloads(
        num_active, compressor != nullptr ? compressor->WireBytes(dim) : 0);
    constexpr fedra::TrafficClass kSync = fedra::TrafficClass::kModelSync;
    const double model_s = MedianPerCall(
        [&] {
          if (compressor != nullptr && subset) {
            network.AllReduceAverageSubsetWithPayloads(
                buffers, participants, dim, payloads, kSync);
          } else if (compressor != nullptr) {
            network.AllReduceAverageWithPayloads(buffers, dim, payloads,
                                                 kSync);
          } else if (subset) {
            network.AllReduceAverageSubset(buffers, participants, dim, kSync);
          } else {
            network.AllReduceAverage(buffers, dim, kSync);
          }
        },
        slice);
    add("sim.model_allreduce_us", "us", model_s, counts.model_syncs);
  }

  // metrics: one evaluation probe at eval_subset (the trainer runs a test
  // and a train probe at every evaluation point; the per-call figure is
  // their mean), then the end-of-run pair: Evaluate on the whole test set
  // and a train probe of up to 2048 samples.
  {
    std::vector<double> probe;
    std::vector<double> final_eval;
    const size_t final_train = std::min<size_t>(train.size(), 2048);
    uint64_t probe_seed = config.seed;
    fedra::EvaluateSubset(model.get(), test, config.eval_subset, probe_seed);
    const Clock::time_point start = Clock::now();
    while (probe.size() < 3 ||
           (probe.size() < 200 && SecondsSince(start) < 2.0 * slice)) {
      ++probe_seed;
      const Clock::time_point t0 = Clock::now();
      fedra::EvaluateSubset(model.get(), test, config.eval_subset,
                            probe_seed);
      fedra::EvaluateSubset(model.get(), train, config.eval_subset,
                            probe_seed + 77);
      const Clock::time_point t1 = Clock::now();
      fedra::Evaluate(model.get(), test);
      fedra::EvaluateSubset(model.get(), train, final_train, probe_seed);
      probe.push_back(0.5 * std::chrono::duration<double>(t1 - t0).count());
      final_eval.push_back(SecondsSince(t1));
    }
    add("metrics.eval_probe_ms", "ms", Median(std::move(probe)),
        2 * counts.eval_points);
    add("metrics.final_eval_ms", "ms", Median(std::move(final_eval)), 1);
  }

  // util: a thread-pool fork/join round trip with a trivial body.
  {
    fedra::ThreadPool& pool = fedra::GlobalThreadPool();
    const size_t n = std::max<size_t>(1, pool.num_threads());
    std::vector<int> hits(n, 0);
    const double s = MedianPerCall(
        [&] { pool.ParallelFor(n, [&](size_t i) { ++hits[i]; }); }, slice);
    // The library's internal ParallelFor calls cannot be counted from
    // outside, so this layer reports a unit cost only.
    add("util.parallel_for_us", "us", s, 0, /*in_coverage=*/false);
  }
  return out;
}

}  // namespace e2e
