// Concurrency stress surface for the ThreadSanitizer CI leg.
//
// Every test here is correct under the pool's documented contract and is
// deliberately shaped to give TSan the interleavings where a latent race
// would hide: many simultaneous ParallelFor callers on one pool, nested
// loops whose chunk runners idle peers pick up mid-flight, multi-producer
// Schedule bursts hammering the queue's sleep/wake path, and a full trainer
// cohort (shared ModelGraph + one WorkerArena + survivor-subset
// collectives) stepping under churn and message loss. The suite also runs
// in the plain and ASan legs, where it doubles as a scheduler soak test.

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/fault_model.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

TEST(TsanStressTest, ConcurrentCallersWriteDisjointBuffersRacelessly) {
  // Six external threads share one pool; each repeatedly ParallelFors over
  // its own plain (non-atomic) buffer. Any scheduler bug that leaks a chunk
  // to the wrong caller's body — or runs one index twice concurrently — is
  // a data race on the buffer, which TSan reports even when the final
  // counts happen to come out right.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kIters = 40;
  constexpr size_t kN = 513;
  std::vector<std::vector<int>> buffers(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      auto& mine = buffers[static_cast<size_t>(t)];
      for (int iter = 0; iter < kIters; ++iter) {
        pool.ParallelForRange(kN, /*grain=*/19 + static_cast<size_t>(t),
                              [&mine](size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) {
                                  ++mine[i];
                                }
                              });
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(buffers[static_cast<size_t>(t)][i], kIters)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(TsanStressTest, NestedStealingUnderConcurrentOuterLoad) {
  // Nested ParallelFor from pool workers queues chunk runners for idle
  // peers to pick up, while independent outer callers keep the queue busy.
  // Those runners and the nested caller's own drain loop race over the same
  // ParallelCallState — TSan verifies the claim/done protocol synchronizes
  // them.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kOuterCallers = 3;
  constexpr int kOuterN = 8;
  constexpr int kInnerN = 64;
  std::vector<std::thread> callers;
  callers.reserve(kOuterCallers);
  for (int t = 0; t < kOuterCallers; ++t) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        pool.ParallelFor(kOuterN, [&](size_t) {
          pool.ParallelFor(kInnerN, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(total.load(), static_cast<long>(kOuterCallers) * 10 * kOuterN *
                              kInnerN);
}

TEST(TsanStressTest, MultiProducerScheduleAndWaitChurn) {
  // Producers burst Schedule()d closures while a separate thread spins
  // Wait(): the scheduled_in_flight_ counter, the queue pushes, and the
  // sleep/wake condvar all see maximum contention. Workers go idle (empty
  // queue) between bursts, so the check-then-sleep window in WorkerLoop is
  // crossed thousands of times.
  ThreadPool pool(3);
  constexpr int kProducers = 4;
  constexpr int kBursts = 50;
  constexpr int kTasksPerBurst = 20;
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kTasksPerBurst; ++i) {
          pool.Schedule(
              [&] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
        // Give workers a chance to drain and go back to sleep so the next
        // burst exercises the wakeup path, not just busy workers.
        std::this_thread::yield();
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kBursts * kTasksPerBurst);
}

TEST(TsanStressTest, TrainerCohortUnderFaultsIsRacelessAndDeterministic) {
  // End-to-end surface: the round's workers execute one shared ModelGraph
  // against one WorkerArena (slab rows + exec slots), the FDA policy
  // AllReduces monitor state, and the fault injector cuts workers and drops
  // contributions mid-run. Two identical runs must also produce the same
  // history — under TSan this doubles as the determinism contract's
  // dynamic check.
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 256;
  synth.num_test = 64;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  ASSERT_TRUE(data.ok());

  TrainerConfig config;
  config.num_workers = 8;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 29;
  config.max_steps = 12;
  config.eval_every_steps = 6;
  config.eval_subset = 32;
  config.faults = FaultConfig::Churn(5.0, 2.0);
  config.faults.message_loss_prob = 0.05;

  auto run_once = [&] {
    DistributedTrainer trainer([] { return zoo::Mlp(16 * 16, {24}, 10); },
                               data->train, data->test, config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok()) << result.status();
    return std::move(result).value();
  };
  TrainResult first = run_once();
  TrainResult second = run_once();
  EXPECT_EQ(first.total_steps, 12u);
  EXPECT_EQ(first.final_test_accuracy, second.final_test_accuracy);
  EXPECT_EQ(first.comm.bytes_total, second.comm.bytes_total);
  EXPECT_EQ(first.rejoin_count, second.rejoin_count);
  ASSERT_EQ(first.history.size(), second.history.size());
  for (size_t i = 0; i < first.history.size(); ++i) {
    EXPECT_EQ(first.history[i].test_accuracy, second.history[i].test_accuracy)
        << "history row " << i;
    EXPECT_EQ(first.history[i].bytes, second.history[i].bytes)
        << "history row " << i;
  }
}

TEST(TsanStressTest, ParallelForAgainstScheduledBackgroundWork) {
  // Schedule()d background closures interleave with foreground ParallelFor
  // chunks on the same queue: per-call completion tokens and the
  // scheduled_in_flight_ counter must never synchronize through each other.
  ThreadPool pool(4);
  std::atomic<int> background{0};
  std::atomic<int> foreground{0};
  for (int i = 0; i < 64; ++i) {
    pool.Schedule([&] { background.fetch_add(1, std::memory_order_relaxed); });
  }
  for (int iter = 0; iter < 20; ++iter) {
    pool.ParallelFor(128, [&](size_t) {
      foreground.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(background.load(), 64);
  EXPECT_EQ(foreground.load(), 20 * 128);
}

}  // namespace
}  // namespace fedra
