// Micro-benchmarks (google-benchmark) of the kernels FDA's per-step cost
// rests on: AMS sketch construction and estimation, the simulated
// AllReduce, GEMM, convolution, and the fused FDA vec kernels.
//
// --backend=ref|fast (default fast) selects which implementation the GEMM,
// Conv2d, pooling, BatchNorm, and depthwise benchmarks run: `fast` is the
// vectorized backend in tensor/ops.cc, `ref` the scalar oracle in
// tensor/ref_ops.h. --threads=N pins the global thread pool (N=1 gives
// deterministic single-core numbers; sweep N for scheduler scaling curves).
// Record results with google-benchmark's own flags, e.g.
//   bench_micro --backend=ref --benchmark_out=BENCH_micro_ref.json
//               --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/variance_monitor.h"
#include "core/worker_arena.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sketch/ams_sketch.h"
#include "tensor/ops.h"
#include "tensor/ref_ops.h"
#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

bool g_use_ref_backend = false;

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  return v;
}

void GemmDispatch(int m, int n, int k, const float* a, const float* b,
                  float* c) {
  if (g_use_ref_backend) {
    ref::Gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  } else {
    ops::Gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  }
}

void BM_SketchAccumulate(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  auto family = AmsHashFamily::Create(5, 250, dim, 1);
  auto v = RandomVec(dim, 2);
  AmsSketch sketch(family);
  for (auto _ : state) {
    sketch.Clear();
    sketch.AccumulateVector(v.data());
    benchmark::DoNotOptimize(sketch.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dim));
}
BENCHMARK(BM_SketchAccumulate)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_SketchEstimate(benchmark::State& state) {
  const size_t dim = 1 << 14;
  auto family = AmsHashFamily::Create(5, 250, dim, 3);
  auto v = RandomVec(dim, 4);
  AmsSketch sketch = AmsSketch::OfVector(family, v.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.EstimateSquaredNorm());
  }
}
BENCHMARK(BM_SketchEstimate);

void BM_HashFamilyBuild(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto family = AmsHashFamily::Create(5, 250, dim, 7);
    benchmark::DoNotOptimize(family);
  }
}
BENCHMARK(BM_HashFamilyBuild)->Arg(1 << 14)->Arg(1 << 17);

void BM_AllReduce(benchmark::State& state) {
  // The parallel reduction engine behind every simulated collective:
  // fused vec::ReduceScale tree-reduce over GlobalThreadPool chunks.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, NetworkModel::Hpc(),
                     AllReduceAlgorithm::kFlat);
  for (auto _ : state) {
    network.AllReduceAverage(pointers, dim, TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_AllReduce)->Args({1 << 14, 4})->Args({1 << 14, 16})
    ->Args({1 << 18, 4})->Args({1 << 20, 8})->Args({1 << 22, 8});

void BM_FaultInjectorRound(benchmark::State& state) {
  // One BeginRound advances every worker churn chain and link chain in
  // fixed order — the fault layer's entire per-round overhead. It must
  // stay negligible next to the collectives it gates.
  const int workers = static_cast<int>(state.range(0));
  FaultConfig config = FaultConfig::Churn(10.0, 2.5);
  config.link_mttf_rounds = 20.0;
  config.link_mttr_rounds = 3.0;
  config.message_loss_prob = 0.01;
  FaultInjector injector(config, workers, /*seed=*/7);
  for (auto _ : state) {
    injector.BeginRound();
    benchmark::DoNotOptimize(injector.NumUp());
  }
  state.SetItemsProcessed(state.iterations() * workers);
}
BENCHMARK(BM_FaultInjectorRound)->Arg(8)->Arg(64)->Arg(512);

void BM_AllReduceSerial(benchmark::State& state) {
  // The seed's serial scalar AllReduceAverage, kept verbatim as the fixed
  // baseline the reduction engine is measured against: accumulate every
  // buffer into a double scratch vector, then write the scaled mean back
  // into every buffer — K extra passes over an n-double scratch.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  std::vector<double> reduce_buffer;
  for (auto _ : state) {
    reduce_buffer.assign(dim, 0.0);
    for (const float* buffer : pointers) {
      for (size_t i = 0; i < dim; ++i) {
        reduce_buffer[i] += static_cast<double>(buffer[i]);
      }
    }
    const double inv_k = 1.0 / static_cast<double>(workers);
    for (float* buffer : pointers) {
      for (size_t i = 0; i < dim; ++i) {
        buffer[i] = static_cast<float>(reduce_buffer[i] * inv_k);
      }
    }
    benchmark::DoNotOptimize(pointers[0]);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_AllReduceSerial)->Args({1 << 14, 4})->Args({1 << 18, 4})
    ->Args({1 << 20, 8})->Args({1 << 22, 8});

void BM_TreeAllReduce(benchmark::State& state) {
  // Arbitrary-depth tree collective (3-tier device -> site -> cloud):
  // identical arithmetic again, recursive per-depth cost accounting —
  // measures the TopologyTree layer's overhead over BM_AllReduce (the
  // one-node tree).
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, TopologyTree::DeviceSiteCloud(2, 2),
                     AllReduceAlgorithm::kFlat);
  for (auto _ : state) {
    network.AllReduceAverage(pointers, dim, TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_TreeAllReduce)->Args({1 << 20, 8})->Args({1 << 20, 64});

void BM_TreeSubtreeAllReduce(benchmark::State& state) {
  // Cluster-scoped collective of the hierarchical FDA scheduler: average
  // one site's subtree (half the cohort) on its own tiers only.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, TopologyTree::DeviceSiteCloud(2, 2),
                     AllReduceAlgorithm::kFlat);
  int begin = 0;
  int end = 0;
  network.tree().SubtreeSpan(/*site 0 node=*/1, workers, &begin, &end);
  std::vector<float*> members(pointers.begin() + begin,
                              pointers.begin() + end);
  for (auto _ : state) {
    network.SubtreeAllReduceAverage(1, members, dim,
                                    TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * members.size() *
                                               sizeof(float)));
}
BENCHMARK(BM_TreeSubtreeAllReduce)->Args({1 << 20, 8});

void BM_TreeCollectiveCost(benchmark::State& state) {
  // Pure cost-model evaluation (no arithmetic): one recursive
  // GroupedAllReduceCost sweep over a `range(0)`-site tree with straggler
  // link factors — the per-collective accounting overhead the simulator
  // pays on top of the reduction itself.
  const int sites = static_cast<int>(state.range(0));
  const int workers = sites * 8;
  const TopologyTree tree = TopologyTree::DeviceSiteCloud(sites, 2);
  std::vector<double> factors(static_cast<size_t>(workers));
  Rng rng(5);
  for (auto& f : factors) {
    f = 1.0 + 3.0 * rng.NextDouble();
  }
  for (auto _ : state) {
    TreeCost cost = tree.GroupedAllReduceCost(
        1 << 22, workers, AllReduceAlgorithm::kRing, &factors);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_TreeCollectiveCost)->Arg(2)->Arg(16)->Arg(128);

void BM_ReduceMeanInto(benchmark::State& state) {
  // The trainers' eval-model averaging (one output span, no install pass).
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<const float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  std::vector<float> dst(dim);
  for (auto _ : state) {
    ReduceMeanInto(pointers.data(), pointers.size(), dim, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_ReduceMeanInto)->Args({1 << 20, 8});

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = RandomVec(static_cast<size_t>(n) * n, 20);
  auto b = RandomVec(static_cast<size_t>(n) * n, 21);
  std::vector<float> c(static_cast<size_t>(n) * n);
  for (auto _ : state) {
    GemmDispatch(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

void RunConvBench(benchmark::State& state, const ops::Conv2dGeometry& g) {
  auto input = RandomVec(static_cast<size_t>(g.batch) * g.in_channels *
                             g.in_h * g.in_w,
                         30);
  auto weight = RandomVec(static_cast<size_t>(g.out_channels) *
                              g.in_channels * g.kernel * g.kernel,
                          31);
  std::vector<float> bias(static_cast<size_t>(g.out_channels), 0.1f);
  std::vector<float> output(static_cast<size_t>(g.batch) * g.out_channels *
                            g.out_h() * g.out_w());
  ops::Conv2dWorkspace workspace;
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                         output.data());
    } else {
      ops::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                         output.data(), &workspace);
    }
    benchmark::DoNotOptimize(output.data());
  }
  const long long flops = 2LL * g.batch * g.out_channels * g.out_h() *
                          g.out_w() * g.in_channels * g.kernel * g.kernel;
  state.SetItemsProcessed(state.iterations() * flops);
}

void BM_Conv2dForward(benchmark::State& state) {
  ops::Conv2dGeometry g;
  g.batch = 8;
  g.in_channels = 8;
  g.in_h = g.in_w = 16;
  g.out_channels = 16;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  RunConvBench(state, g);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardVgg(benchmark::State& state) {
  // VGG-style body conv: 3x3, 64 -> 64 channels, 32x32 feature map.
  ops::Conv2dGeometry g;
  g.batch = 2;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  RunConvBench(state, g);
}
BENCHMARK(BM_Conv2dForwardVgg);

void BM_VarianceIdentity(benchmark::State& state) {
  // The per-step scalar work of LinearFDA's state computation.
  const size_t dim = static_cast<size_t>(state.range(0));
  auto u = RandomVec(dim, 40);
  auto xi = RandomVec(dim, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::SquaredNorm(u.data(), dim));
    benchmark::DoNotOptimize(vec::Dot(xi.data(), u.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  // ||u||^2 reads u once; <xi, u> reads both: three dim-length streams.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * dim * sizeof(float)));
}
BENCHMARK(BM_VarianceIdentity)->Arg(1 << 14)->Arg(1 << 18);

void BM_SubSquaredNorm(benchmark::State& state) {
  // The fused drift kernel: u = w - w_sync and ||u||^2 in one pass.
  const size_t dim = static_cast<size_t>(state.range(0));
  auto w = RandomVec(dim, 50);
  auto w_sync = RandomVec(dim, 51);
  std::vector<float> u(dim);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      benchmark::DoNotOptimize(
          ref::SubSquaredNorm(w.data(), w_sync.data(), u.data(), dim));
    } else {
      benchmark::DoNotOptimize(
          vec::SubSquaredNorm(w.data(), w_sync.data(), u.data(), dim));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  // Reads w and w_sync, writes u: three dim-length streams per pass.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * dim * sizeof(float)));
}
BENCHMARK(BM_SubSquaredNorm)->Arg(1 << 14)->Arg(1 << 18);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Scheduler round-trip cost: fan a trivial chunked loop over the pool and
  // wait on its completion token. With --threads=1 this measures the inline
  // fallback; with more threads, the push/steal/wake path.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> data(n, 1.0f);
  for (auto _ : state) {
    GlobalThreadPool().ParallelForRange(
        n, /*grain=*/1024, [&](size_t begin, size_t end) {
          float acc = 0.0f;
          for (size_t i = begin; i < end; ++i) {
            acc += data[i];
          }
          benchmark::DoNotOptimize(acc);
        });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // One read stream; at small n the GB/s figure is dominated by scheduler
  // round-trip cost, which is exactly what this benchmark isolates.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_MaxPool2d(benchmark::State& state) {
  // DenseNet/VGG-style downsampling: 2x2 stride-2 over a 32x32 map.
  ops::Conv2dGeometry g;
  g.batch = 8;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 2;
  g.stride = 2;
  g.pad = 0;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, 70);
  std::vector<float> output(out_numel);
  std::vector<int> argmax(out_numel);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::MaxPool2dForward(g, input.data(), output.data(), argmax.data());
    } else {
      ops::MaxPool2dForward(g, input.data(), output.data(), argmax.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out_numel) * g.kernel *
                          g.kernel);
}
BENCHMARK(BM_MaxPool2d);

void BM_AvgPool2d(benchmark::State& state) {
  ops::Conv2dGeometry g;
  g.batch = 8;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 2;
  g.stride = 2;
  g.pad = 0;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, 71);
  std::vector<float> output(out_numel);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::AvgPool2dForward(g, input.data(), output.data());
    } else {
      ops::AvgPool2dForward(g, input.data(), output.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out_numel) * g.kernel *
                          g.kernel);
}
BENCHMARK(BM_AvgPool2d);

void BM_BatchNormForward(benchmark::State& state) {
  const int batch = 8;
  const int channels = 64;
  const size_t plane = 32 * 32;
  const size_t numel = static_cast<size_t>(batch) * channels * plane;
  auto input = RandomVec(numel, 72);
  std::vector<float> gamma(static_cast<size_t>(channels), 1.0f);
  std::vector<float> beta(static_cast<size_t>(channels), 0.0f);
  std::vector<float> xhat(numel);
  std::vector<float> inv_std(static_cast<size_t>(channels));
  std::vector<float> output(numel);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::BatchNorm2dForward(batch, channels, plane, input.data(),
                              gamma.data(), beta.data(), 1e-5f, xhat.data(),
                              inv_std.data(), output.data());
    } else {
      ops::BatchNorm2dForward(batch, channels, plane, input.data(),
                              gamma.data(), beta.data(), 1e-5f, xhat.data(),
                              inv_std.data(), output.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(numel));
}
BENCHMARK(BM_BatchNormForward);

void BM_DepthwiseConv2dForward(benchmark::State& state) {
  // ConvNeXt-style 7x7 depthwise over a 32x32 map.
  ops::Conv2dGeometry g;
  g.batch = 4;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 7;
  g.stride = 1;
  g.pad = 3;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  auto input = RandomVec(in_numel, 73);
  auto weight = RandomVec(
      static_cast<size_t>(g.in_channels) * g.kernel * g.kernel, 74);
  std::vector<float> bias(static_cast<size_t>(g.in_channels), 0.1f);
  std::vector<float> output(static_cast<size_t>(g.batch) * g.in_channels *
                            g.out_h() * g.out_w());
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                                  output.data());
    } else {
      ops::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                                  output.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  const long long flops = 2LL * g.batch * g.in_channels * g.out_h() *
                          g.out_w() * g.kernel * g.kernel;
  state.SetItemsProcessed(state.iterations() * flops);
}
BENCHMARK(BM_DepthwiseConv2dForward);

// ------------------------------------------------- worker cohort bench --

// One simulated worker training step through the shared-graph + arena
// cohort: zero grads, Forward, loss, Backward, optimizer update — the unit
// the trainers repeat K times per simulated step. `range(0)` is the worker
// count K: the graph and arena are cohort-sized, the loop round-robins
// workers so the measurement includes the slab-stride access pattern.
// Counters report the arena's bytes per worker next to the old
// one-Model-per-worker baseline (params + grads vectors per Model, plus a
// per-worker optimizer-state and drift allocation).
void BM_WorkerStepMlp(benchmark::State& state) {
  const int num_workers = static_cast<int>(state.range(0));
  const int batch = 32;
  const int input_dim = 16 * 16;
  auto model = zoo::Mlp(input_dim, {128, 64}, 10);
  ModelGraph& graph = model->graph();
  const size_t dim = graph.dim();
  const OptimizerConfig opt_config = OptimizerConfig::Adam(0.001f);
  WorkerArena arena(num_workers, dim, opt_config.StateSlots());
  std::vector<std::unique_ptr<Optimizer>> optimizers;
  for (int k = 0; k < num_workers; ++k) {
    graph.InitParams(7, arena.view(k));
    optimizers.push_back(Optimizer::Create(opt_config, dim,
                                           arena.opt_state(k)));
  }
  Tensor images({batch, input_dim});
  Rng rng(11);
  for (size_t i = 0; i < images.numel(); ++i) {
    images[i] = rng.NextGaussian(0.0f, 1.0f);
  }
  std::vector<int> labels(batch);
  for (int b = 0; b < batch; ++b) {
    labels[b] = static_cast<int>(rng.NextBounded(10));
  }
  Rng worker_rng(13);
  int k = 0;
  for (auto _ : state) {
    ParameterView view = arena.view(k);
    vec::Fill(view.grads, dim, 0.0f);
    ModelGraph::ExecSlot slot = graph.AcquireSlot();
    Tensor logits = graph.Forward(images, view, slot, /*training=*/true,
                                  &worker_rng);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    graph.Backward(loss.grad_logits, view, slot);
    optimizers[static_cast<size_t>(k)]->Step(view.params, view.grads, dim);
    benchmark::DoNotOptimize(view.params[0]);
    k = (k + 1) % num_workers;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["arena_bytes_per_worker"] = static_cast<double>(
      arena.total_bytes() / static_cast<size_t>(num_workers));
  // The cohort's total slab allocations (constant in K; the per-Model
  // baseline performed ~5 heap allocations per worker) and the number of
  // activation/im2col workspaces actually materialized (scales with
  // concurrent executions, not with K — the baseline kept K of them).
  state.counters["arena_allocations"] =
      static_cast<double>(arena.allocation_count());
  state.counters["graph_exec_slots"] =
      static_cast<double>(graph.num_slots());
}
BENCHMARK(BM_WorkerStepMlp)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

// The cohort-construction cost itself: building the arena slabs and
// initializing worker 0, as a function of K. Demonstrates that setup work
// is slab-bound, not K-object-bound.
void BM_WorkerCohortSetup(benchmark::State& state) {
  const int num_workers = static_cast<int>(state.range(0));
  auto model = zoo::Mlp(16 * 16, {128, 64}, 10);
  ModelGraph& graph = model->graph();
  const size_t dim = graph.dim();
  const OptimizerConfig opt_config = OptimizerConfig::Adam(0.001f);
  for (auto _ : state) {
    WorkerArena arena(num_workers, dim, opt_config.StateSlots());
    graph.InitParams(7, arena.view(0));
    for (int k = 1; k < num_workers; ++k) {
      vec::Copy(arena.params(0), arena.params(k), dim);
    }
    benchmark::DoNotOptimize(arena.params_slab());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_workers));
}
BENCHMARK(BM_WorkerCohortSetup)
    ->Arg(4)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ fleet sweep --

/// Steady-state resident set size of this process, in bytes (VmRSS); 0 when
/// the platform has no procfs.
size_t CurrentRssBytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  size_t rss_kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::strtoul(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss_kb * 1024;
#else
  return 0;
#endif
}

/// One simulated fleet harness: K resident rows over a population-N paged
/// ClientStateStore, rotated through the CohortSampler. Each rotation
/// checks departing occupants out (drift + LinearFDA state fold into the
/// store) and arrivals in, exactly as DistributedTrainer does — minus the
/// training step, so the numbers isolate the store's paging cost.
struct FleetHarness {
  ClientStoreConfig config;
  ClientStateStore store;
  CohortSampler sampler;
  LinearVarianceMonitor monitor;
  std::vector<float> anchor;
  std::vector<std::vector<float>> params;  // K resident rows
  std::vector<uint32_t> cohort;
  uint64_t round = 0;
  uint64_t swaps = 0;

  static ClientStoreConfig MakeConfig(size_t population, int slots,
                                      size_t dim) {
    ClientStoreConfig c;
    c.population = population;
    c.cohort_slots = slots;
    c.dim = dim;
    c.opt_state_slots = 0;  // cross-device clients run plain SGD
    c.seed = 42;
    return c;
  }

  FleetHarness(size_t population, int slots, size_t dim)
      : config(MakeConfig(population, slots, dim)),
        store(config, nullptr),
        sampler(&store, CohortScheduleKind::kUniform, config.seed),
        monitor(dim),
        anchor(dim, 0.5f),
        params(static_cast<size_t>(slots)),
        cohort(static_cast<size_t>(slots)) {
    store.SetStateSize(monitor.StateSize());
    Rng rng(7);
    for (size_t k = 0; k < params.size(); ++k) {
      params[k].resize(dim);
      for (size_t j = 0; j < dim; ++j) {
        params[k][j] = anchor[j] + rng.NextGaussian(0.0f, 0.01f);
      }
      cohort[k] = static_cast<uint32_t>(k);
      store.AdoptInitialResident(cohort[k]);
    }
  }

  void Rotate() {
    const std::vector<uint32_t> sampled = sampler.Sample(round++, nullptr);
    for (size_t k = 0; k < cohort.size(); ++k) {
      if (sampled[k] == cohort[k]) {
        continue;
      }
      store.CheckOut(cohort[k], params[k].data(), anchor.data(), nullptr,
                     Rng(1), Rng(2), /*optimizer_steps=*/round,
                     /*steps_this_residency=*/1, &monitor);
    }
    for (size_t k = 0; k < cohort.size(); ++k) {
      if (sampled[k] == cohort[k]) {
        continue;
      }
      store.CheckIn(sampled[k], anchor.data(), params[k].data(), nullptr);
      // The arrival "trains": perturb so its next check-out stores a
      // nonzero drift page rather than hitting the lazy no-store path.
      params[k][0] += 0.01f;
      cohort[k] = sampled[k];
      ++swaps;
    }
  }
};

/// Per-rotation cost of the paged store as the population grows with the
/// cohort pinned at K=64: the swap set stays ~K, so rotation time and store
/// memory must be population-independent (O(cohort + touched drift)).
void BM_FleetRotation(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  const size_t dim = 4096;
  FleetHarness harness(population, /*slots=*/64, dim);
  for (auto _ : state) {
    harness.Rotate();
    benchmark::DoNotOptimize(harness.store.pages_in_use());
  }
  state.SetItemsProcessed(static_cast<int64_t>(harness.swaps));
  state.counters["swaps_per_rotation"] =
      static_cast<double>(harness.swaps) /
      static_cast<double>(std::max<uint64_t>(1, harness.round));
  state.counters["store_mb"] =
      static_cast<double>(harness.store.resident_bytes()) / (1024.0 * 1024.0);
  state.counters["touched_clients"] =
      static_cast<double>(harness.store.touched_clients());
  state.counters["pages_in_use"] =
      static_cast<double>(harness.store.pages_in_use());
}
BENCHMARK(BM_FleetRotation)
    ->Arg(64)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

/// Writes the BENCH_population.json sweep: K=64 resident slots, population
/// 64 -> 10^6, a fixed number of rotations each, reporting rotation cost,
/// per-swap check-out/in cost, store bytes, and steady-state process RSS.
int RunPopulationSweep(const std::string& path) {
  const int slots = 64;
  const size_t dim = 4096;
  const uint64_t rotations = 32;
  const size_t populations[] = {64, 4096, 65536, 1000000};
  std::string json = "[\n";
  bool first = true;
  for (size_t population : populations) {
    FleetHarness harness(population, slots, dim);
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < rotations; ++r) {
      harness.Rotate();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const ClientStateStore& store = harness.store;
    const double per_swap_us =
        harness.swaps == 0
            ? 0.0
            : seconds * 1e6 / static_cast<double>(harness.swaps);
    // One swap moves a page each way: dim + state floats out, same back.
    const size_t swap_bytes =
        2 * (dim + store.state_size()) * sizeof(float);
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%s  {\"population\": %zu, \"cohort_slots\": %d, \"dim\": %zu,\n"
        "   \"rotations\": %llu, \"swaps\": %llu,\n"
        "   \"rotation_seconds_total\": %.6f, \"per_swap_us\": %.3f,\n"
        "   \"swap_bytes\": %zu, \"store_resident_bytes\": %zu,\n"
        "   \"touched_clients\": %zu, \"pages_in_use\": %zu,\n"
        "   \"pages_allocated\": %zu, \"process_rss_bytes\": %zu}",
        first ? "" : ",\n", population, slots, dim,
        static_cast<unsigned long long>(rotations),
        static_cast<unsigned long long>(harness.swaps), seconds, per_swap_us,
        swap_bytes, store.resident_bytes(), store.touched_clients(),
        store.pages_in_use(), store.pages_allocated(), CurrentRssBytes());
    json += buf;
    first = false;
    std::printf(
        "population=%zu swaps=%llu per_swap_us=%.3f store_mb=%.1f "
        "touched=%zu rss_mb=%.1f\n",
        population, static_cast<unsigned long long>(harness.swaps),
        per_swap_us,
        static_cast<double>(store.resident_bytes()) / (1024.0 * 1024.0),
        store.touched_clients(),
        static_cast<double>(CurrentRssBytes()) / (1024.0 * 1024.0));
  }
  json += "\n]\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ------------------------------------------------- hardware-limit sweeps --

/// Median-free steady-state timing: warm up once, then grow the repetition
/// count until one measured batch runs >= 25 ms, and report seconds per
/// call. steady_clock measures elapsed time only; nothing is seeded from it.
double SecondsPerCall(const std::function<void()>& fn) {
  fn();  // warm-up: faults pages, primes caches and the dispatch table
  long reps = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (long r = 0; r < reps; ++r) {
      fn();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds >= 0.025) {
      return seconds / static_cast<double>(reps);
    }
    // Aim past the threshold with margin; cap growth for very fast calls.
    const double target = 0.035;
    reps = seconds <= 1e-6
               ? reps * 64
               : static_cast<long>(static_cast<double>(reps) * target /
                                   seconds) +
                     1;
  }
}

/// Writes BENCH_kernels.json: every dispatched kernel timed at every SIMD
/// level this host supports (simd::SupportedLevels x simd::SetLevel), with
/// bytes-touched GB/s, GFLOP/s where FLOPs are well-defined, and speedup
/// relative to the kGeneric portable path. Buffers are L2-resident
/// (n = 4096) so the numbers expose compute limits, not DRAM bandwidth.
int RunKernelsSweep(const std::string& path) {
  const size_t n = 4096;
  const size_t reduce_bufs = 8;
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  const simd::Level default_level = simd::ActiveLevel();

  auto x = RandomVec(n, 80);
  auto b2 = RandomVec(n, 81);
  auto y = RandomVec(n, 82);
  std::vector<float> out(n);
  std::vector<std::vector<float>> reduce_storage;
  std::vector<const float*> bufs;
  for (size_t k = 0; k < reduce_bufs; ++k) {
    reduce_storage.push_back(RandomVec(n, 83 + k));
    bufs.push_back(reduce_storage.back().data());
  }
  const int kc = 256;
  auto apanel = RandomVec(static_cast<size_t>(kc) * simd::kGemmMr, 90);
  auto bpanel = RandomVec(static_cast<size_t>(kc) * simd::kGemmNr, 91);
  std::vector<float> acc(static_cast<size_t>(simd::kGemmMr) * simd::kGemmNr);

  struct Kernel {
    const char* name;
    double bytes_per_call;  // streams touched, for GB/s
    double flops_per_call;  // 0 when FLOPs are not the natural unit
    std::function<void()> run;
  };
  const double fn = static_cast<double>(n);
  const Kernel kernels[] = {
      {"axpy", 3 * fn * sizeof(float), 2 * fn,
       [&] { simd::Kernels().axpy(0.37f, x.data(), y.data(), n); }},
      {"dot", 2 * fn * sizeof(float), 2 * fn,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().dot(x.data(), b2.data(),
                                                      n));
       }},
      {"squared_norm", fn * sizeof(float), 2 * fn,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().squared_norm(x.data(), n));
       }},
      {"sub_squared_norm", 3 * fn * sizeof(float), 3 * fn,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().sub_squared_norm(
             x.data(), b2.data(), out.data(), n));
       }},
      {"axpy_norm", 3 * fn * sizeof(float), 4 * fn,
       [&] {
         benchmark::DoNotOptimize(
             simd::Kernels().axpy_norm(-0.01f, x.data(), y.data(), n));
       }},
      {"reduce_scale",
       (static_cast<double>(reduce_bufs) + 1) * fn * sizeof(float),
       (static_cast<double>(reduce_bufs) + 1) * fn,
       [&] {
         simd::Kernels().reduce_scale(bufs.data(), reduce_bufs, n,
                                      1.0 / reduce_bufs, out.data());
       }},
      {"gemm_micro_8x32",
       static_cast<double>(kc) * (simd::kGemmMr + simd::kGemmNr) *
           sizeof(float),
       2.0 * kc * simd::kGemmMr * simd::kGemmNr,
       [&] {
         simd::Kernels().gemm_micro_8x32(kc, apanel.data(), bpanel.data(),
                                         acc.data());
         benchmark::DoNotOptimize(acc.data());
       }},
  };

  std::string json = "{\n  \"n\": 4096,\n  \"levels\": [";
  for (size_t i = 0; i < levels.size(); ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" +
            simd::LevelName(levels[i]) + "\"";
  }
  json += "],\n  \"default_level\": \"";
  json += simd::LevelName(default_level);
  json += "\",\n  \"kernels\": [\n";

  bool first_kernel = true;
  for (const Kernel& kernel : kernels) {
    std::vector<double> seconds(levels.size());
    double generic_seconds = 0.0;
    for (size_t i = 0; i < levels.size(); ++i) {
      simd::SetLevel(levels[i]);
      seconds[i] = SecondsPerCall(kernel.run);
      if (levels[i] == simd::Level::kGeneric) {
        generic_seconds = seconds[i];
      }
    }
    json += first_kernel ? "" : ",\n";
    first_kernel = false;
    char head[128];
    std::snprintf(head, sizeof(head), "    {\"kernel\": \"%s\", \"runs\": [",
                  kernel.name);
    json += head;
    for (size_t i = 0; i < levels.size(); ++i) {
      const double gbs = kernel.bytes_per_call / seconds[i] / 1e9;
      const double gflops = kernel.flops_per_call / seconds[i] / 1e9;
      const double speedup =
          generic_seconds > 0.0 ? generic_seconds / seconds[i] : 0.0;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n      {\"level\": \"%s\", \"ns_per_call\": %.1f, "
                    "\"gb_per_s\": %.2f, \"gflop_per_s\": %.2f, "
                    "\"speedup_vs_generic\": %.2f}",
                    i == 0 ? "" : ",", simd::LevelName(levels[i]),
                    seconds[i] * 1e9, gbs, gflops, speedup);
      json += buf;
      std::printf("%-18s %-8s %9.1f ns/call %8.2f GB/s %8.2f GFLOP/s "
                  "%5.2fx vs generic\n",
                  kernel.name, simd::LevelName(levels[i]), seconds[i] * 1e9,
                  gbs, gflops, speedup);
    }
    json += "]}";
  }
  json += "\n  ]\n}\n";
  simd::SetLevel(default_level);

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Writes BENCH_compression.json: the WireCodec zoo over a 64K-float sync
/// payload. Per codec: wire bytes and the uplink reduction factor vs the
/// raw float32 payload, the in-place encode cost, the dense vs
/// mask-restricted (sparse) SketchFDA state cost — the monitoring side of
/// the "AMS sketch accumulates the compressed drift" contract — and the
/// error-feedback residual energy after 32 rounds of re-sending the same
/// delta (bounded backlog, not linear growth).
int RunCompressionSweep(const std::string& path) {
  const size_t dim = 1 << 16;
  struct Codec {
    const char* label;
    CompressionConfig config;
    bool layered;
  };
  const Codec codecs[] = {
      {"none", CompressionConfig::None(), false},
      {"q8", CompressionConfig::Quantize8(), false},
      {"q4", CompressionConfig::Quantize4(), false},
      {"top5%", CompressionConfig::TopK(0.05), false},
      {"top5%+q8", CompressionConfig::TopKQuantize(0.05, 8), false},
      {"top5%+q4", CompressionConfig::TopKQuantize(0.05, 4), false},
      {"ltop5%+q8",
       CompressionConfig::Stages({CodecStageConfig::LayerTopK(0.05),
                                  CodecStageConfig::Quantize(8)}),
       true},
  };
  // Synthetic 16-layer model: 4096-float blocks, the layer-wise mask's unit.
  std::vector<size_t> layer_offsets;
  for (size_t offset = 0; offset < dim; offset += 4096) {
    layer_offsets.push_back(offset);
  }
  const auto drift = RandomVec(dim, 95);
  SketchVarianceMonitor sketch_monitor(dim, 5, 250, 0xa5a5a5a5ULL);
  std::vector<float> state(sketch_monitor.StateSize());
  std::string json = "[\n";
  bool first = true;
  for (const Codec& codec : codecs) {
    SyncCompressor compressor(codec.config, dim, 1);
    if (codec.layered) {
      compressor.SetLayerOffsets(layer_offsets, dim);
    }
    const size_t raw_bytes = dim * sizeof(float);
    const size_t wire_bytes = compressor.WireBytes(dim);
    std::vector<float> payload(dim);
    const double encode_us =
        codec.config.enabled()
            ? SecondsPerCall([&] {
                std::memcpy(payload.data(), drift.data(),
                            dim * sizeof(float));
                compressor.CompressInPlace(0, payload.data(), dim);
              }) * 1e6
            : 0.0;
    const double dense_state_us = SecondsPerCall([&] {
      sketch_monitor.ComputeLocalState(drift.data(), state.data());
    }) * 1e6;
    // Masked monitoring splits into selection (MaskPreview: a histogram
    // threshold select plus one scan, O(dim) — shared with the codec's own
    // mask) and the sketch accumulation proper, O(kept x rows).
    double mask_preview_us = 0.0;
    double sparse_state_us = dense_state_us;
    if (compressor.has_mask()) {
      mask_preview_us = SecondsPerCall([&] {
        benchmark::DoNotOptimize(compressor.MaskPreview(drift.data(), dim));
      }) * 1e6;
      const size_t kept = compressor.MaskPreview(drift.data(), dim);
      sparse_state_us = SecondsPerCall([&] {
        sketch_monitor.ComputeLocalStateSparse(
            drift.data(), compressor.kept_indices().data(), kept,
            state.data());
      }) * 1e6;
    }
    compressor.Reset();
    for (int round = 0; round < 32; ++round) {
      std::memcpy(payload.data(), drift.data(), dim * sizeof(float));
      compressor.CompressInPlace(0, payload.data(), dim);
    }
    const double ef_energy =
        compressor.has_residuals() ? compressor.ResidualEnergy(0) : 0.0;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s  {\"codec\": \"%s\", \"dim\": %zu, \"raw_bytes\": %zu,\n"
        "   \"wire_bytes\": %zu, \"reduction_x\": %.2f,\n"
        "   \"encode_us\": %.3f, \"mask_preview_us\": %.3f,\n"
        "   \"dense_state_us\": %.3f, \"sparse_state_us\": %.3f,\n"
        "   \"ef_energy_after_32\": %.6f}",
        first ? "" : ",\n", codec.config.ToString().c_str(), dim, raw_bytes,
        wire_bytes,
        static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes),
        encode_us, mask_preview_us, dense_state_us, sparse_state_us,
        ef_energy);
    json += buf;
    first = false;
    std::printf(
        "codec=%-10s wire=%zu reduction=%.2fx encode_us=%.1f "
        "mask_preview_us=%.1f state_us dense=%.1f sparse=%.1f\n",
        codec.label, wire_bytes,
        static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes),
        encode_us, mask_preview_us, dense_state_us, sparse_state_us);
  }
  json += "\n]\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Writes BENCH_scheduler.json: Chase-Lev pool throughput at 1, 4, and 16
/// threads. Two workloads per size: a chunked ParallelForRange sweep over a
/// 4M-float buffer (elements/s — fan-out, steal, and completion-token cost
/// amortized over real reads) and a burst of 4096 trivial Schedule()d tasks
/// plus Wait() (tasks/s — per-task push/pop/wake cost, nothing amortized).
int RunSchedulerSweep(const std::string& path) {
  const size_t thread_counts[] = {1, 4, 16};
  const size_t n = 1 << 22;
  const size_t grain = 32768;
  const int burst = 4096;
  std::vector<float> data(n, 1.0f);

  std::string json = "{\n  \"hardware_threads\": ";
  char head[64];
  std::snprintf(head, sizeof(head), "%u,\n  \"pools\": [\n",
                std::thread::hardware_concurrency());
  json += head;

  bool first = true;
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    const double sweep_seconds = SecondsPerCall([&] {
      pool.ParallelForRange(n, grain, [&](size_t begin, size_t end) {
        float acc = 0.0f;
        for (size_t i = begin; i < end; ++i) {
          acc += data[i];
        }
        benchmark::DoNotOptimize(acc);
      });
    });
    std::atomic<int> sink{0};
    const double burst_seconds = SecondsPerCall([&] {
      for (int i = 0; i < burst; ++i) {
        pool.Schedule([&] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
      pool.Wait();
    });
    const double elems_per_s = static_cast<double>(n) / sweep_seconds;
    const double tasks_per_s = static_cast<double>(burst) / burst_seconds;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"threads\": %zu, \"parallel_for_elems_per_s\": %.3e, "
        "\"parallel_for_gb_per_s\": %.2f, \"schedule_tasks_per_s\": %.3e, "
        "\"schedule_task_ns\": %.1f}",
        first ? "" : ",\n", threads, elems_per_s,
        static_cast<double>(n) * sizeof(float) / sweep_seconds / 1e9,
        tasks_per_s, burst_seconds / burst * 1e9);
    json += buf;
    first = false;
    std::printf("threads=%zu parallel_for=%.3e elems/s schedule=%.3e "
                "tasks/s\n",
                threads, elems_per_s, tasks_per_s);
  }
  json += "\n  ]\n}\n";

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

void BM_AxpyNorm(benchmark::State& state) {
  // The fused SGD update kernel: w -= lr * g and ||w||^2 in one pass.
  const size_t dim = static_cast<size_t>(state.range(0));
  auto g = RandomVec(dim, 60);
  auto w = RandomVec(dim, 61);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      benchmark::DoNotOptimize(
          ref::AxpyNorm(-0.01f, g.data(), w.data(), dim));
    } else {
      benchmark::DoNotOptimize(
          vec::AxpyNorm(-0.01f, g.data(), w.data(), dim));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  // Reads g and w, writes w back: three dim-length streams per pass.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * dim * sizeof(float)));
}
BENCHMARK(BM_AxpyNorm)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace
}  // namespace fedra

int main(int argc, char** argv) {
  // Pull out our own --backend/--threads flags before google-benchmark sees
  // argv.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const std::string value = argv[i] + 10;
      if (value == "ref") {
        fedra::g_use_ref_backend = true;
      } else if (value == "fast") {
        fedra::g_use_ref_backend = false;
      } else {
        std::fprintf(stderr, "unknown --backend=%s (want ref|fast)\n",
                     value.c_str());
        return 1;
      }
    } else if (std::strncmp(argv[i], "--population_json=", 18) == 0) {
      // Fleet population sweep: writes BENCH_population.json-style output
      // and exits without running the registered benchmarks.
      return fedra::RunPopulationSweep(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--kernels_json=", 15) == 0) {
      // Per-SIMD-level kernel sweep: writes BENCH_kernels.json and exits.
      return fedra::RunKernelsSweep(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--scheduler_json=", 17) == 0) {
      // Pool throughput sweep: writes BENCH_scheduler.json and exits.
      return fedra::RunSchedulerSweep(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--compression_json=", 19) == 0) {
      // WireCodec zoo sweep: writes BENCH_compression.json and exits.
      return fedra::RunCompressionSweep(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Sizes the lazily created global pool; must land before any kernel
      // touches it, which main() guarantees.
      const unsigned long n = std::strtoul(argv[i] + 10, nullptr, 10);
      if (n == 0) {
        std::fprintf(stderr, "--threads=N needs N >= 1\n");
        return 1;
      }
      fedra::SetGlobalThreadPoolThreads(static_cast<size_t>(n));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
