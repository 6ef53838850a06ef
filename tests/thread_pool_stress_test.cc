// Stress and regression tests for the work-stealing ThreadPool.
//
// The central regression: the old pool had one pool-wide in-flight counter,
// so Wait() inside ParallelFor blocked until *every* queued task finished —
// two independent callers on different threads each waited for the other's
// chunks. The work-stealing pool gives every ParallelFor call its own
// completion token, so a caller returns as soon as its own indices complete
// even while another caller's tasks are still running.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace fedra {
namespace {

using namespace std::chrono_literals;

// Spin-waits (with yields) until pred() holds or `timeout` elapses; returns
// whether pred() held.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolStressTest, ConcurrentCallersOnlyWaitForTheirOwnChunks) {
  ThreadPool pool(4);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> slow_started{0};
  std::atomic<bool> slow_done{false};
  std::atomic<bool> fast_done{false};

  // Caller A: two chunks that block on the gate (each pins a thread — one
  // pool worker plus the helping caller).
  std::thread slow_caller([&] {
    pool.ParallelFor(2, [&](size_t) {
      ++slow_started;
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
    slow_done.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return slow_started.load() == 2; }, 5000ms))
      << "slow caller's chunks never started";

  // Caller B: trivial chunks. With the old pool-wide counter its Wait()
  // would also wait out caller A's blocked tasks; with per-call tokens it
  // must return promptly while A is still blocked.
  std::thread fast_caller([&] {
    pool.ParallelFor(2, [](size_t) {});
    fast_done.store(true);
  });
  EXPECT_TRUE(WaitFor([&] { return fast_done.load(); }, 5000ms))
      << "independent ParallelFor was over-blocked by another caller";
  EXPECT_FALSE(slow_done.load());

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  slow_caller.join();
  fast_caller.join();
  EXPECT_TRUE(slow_done.load());
}

TEST(ThreadPoolStressTest, ManyConcurrentCallersCoverAllIndices) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kIters = 25;
  constexpr size_t kN = 257;  // not a multiple of any grain below

  std::vector<std::thread> callers;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < kIters; ++iter) {
        // Vary the grain so chunk boundaries differ between callers.
        pool.ParallelFor(
            kN, [&, t](size_t i) { ++hits[static_cast<size_t>(t)][i]; },
            /*grain=*/static_cast<size_t>(1 + (t % 5)));
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(t)][i], kIters)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, ConcurrentRangeCallsAreDisjointAndComplete) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr size_t kN = 1003;

  std::vector<std::thread> callers;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      pool.ParallelForRange(kN, /*grain=*/17,
                            [&, t](size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                ++hits[static_cast<size_t>(t)][i];
                              }
                            });
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(t)][i], 1)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, NestedCallFromWorkerCoversAllIndices) {
  // Nested ParallelFor from a pool worker used to run fully inline; it now
  // parks helper runners on the worker's own deque. Either way every index
  // must execute exactly once per call, with no deadlock under deep
  // nesting.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);

  std::atomic<int> deep_total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      pool.ParallelFor(8, [&](size_t) { ++deep_total; });
    });
  });
  EXPECT_EQ(deep_total.load(), 4 * 4 * 8);
}

TEST(ThreadPoolStressTest, NestedChunksCanBeStolenByIdlePeers) {
  // Regression for the ROADMAP scheduler gap: a nested ParallelFor called
  // from a pool worker pushes its chunk runners onto that worker's own
  // deque, so idle peers can steal them. Two nested chunks rendezvous —
  // each blocks until both have started, which is only possible when a
  // second thread picks up the stolen runner. The fully-inline behavior
  // this replaces would time the rendezvous out.
  ThreadPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<bool> rendezvous_ok{true};
  pool.Schedule([&] {
    // Runs on a pool worker, so the inner call takes the nested path.
    pool.ParallelFor(2, [&](size_t) {
      std::unique_lock<std::mutex> lock(m);
      ++arrived;
      cv.notify_all();
      if (!cv.wait_for(lock, 5000ms, [&] { return arrived == 2; })) {
        rendezvous_ok.store(false);
      }
    });
  });
  pool.Wait();
  EXPECT_TRUE(rendezvous_ok.load())
      << "nested chunks were not stealable by idle workers";
  EXPECT_EQ(arrived, 2);
}

TEST(ThreadPoolStressTest, SleepWakeHandoffNeverLosesAWakeup) {
  // Regression for the PushTask/WorkerLoop sleep handoff (the
  // atomic-then-sleep window): a worker that found every deque empty
  // re-checks `queued_` under sleep_mutex_ before sleeping, and every
  // pusher increments `queued_` *before* toggling sleep_mutex_ and
  // notifying. If either side of that protocol regressed, a push landing
  // exactly between a worker's failed TryPop and its wait() would be lost
  // and this ping-pong — one task at a time, workers asleep in between —
  // would hang until the ctest timeout. 2000 cycles cross the window far
  // more often than the one-task-per-burst pattern of real callers.
  ThreadPool pool(2);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    std::atomic<bool> ran{false};
    pool.Schedule([&] { ran.store(true, std::memory_order_release); });
    pool.Wait();
    ASSERT_TRUE(ran.load(std::memory_order_acquire)) << "cycle " << cycle;
  }
}

TEST(ThreadPoolStressTest, SleepWakeHandoffSurvivesConcurrentPushers) {
  // Same window, multi-producer flavor: several threads each push one task
  // and Wait() while workers oscillate between sleeping and draining.
  // notify_one must always land on (or before) a sleeper that can make
  // progress; a lost wakeup deadlocks some producer's Wait().
  ThreadPool pool(2);
  constexpr int kProducers = 3;
  constexpr int kCycles = 300;
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        pool.Schedule(
            [&] { executed.fetch_add(1, std::memory_order_relaxed); });
        pool.Wait();
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kCycles);
}

TEST(ThreadPoolStressTest, ParallelFor2dCoversTheGrid) {
  ThreadPool pool(4);
  constexpr size_t kRows = 13;
  constexpr size_t kCols = 29;
  std::vector<std::atomic<int>> hits(kRows * kCols);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor2d(kRows, kCols, [&](size_t r, size_t c) {
    ++hits[r * kCols + c];
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "tile " << i;
  }
}

TEST(ThreadPoolStressTest, ScheduleFromManyThreadsThenWait) {
  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kTasksEach = 100;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Schedule([&] { ++counter; });
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), kProducers * kTasksEach);
}

TEST(ThreadPoolStressTest, ParallelForWhileScheduledTasksAreBlocked) {
  // Schedule()d work pinning some workers must not stall an independent
  // ParallelFor: the caller helps, and per-call tokens ignore Schedule()'s
  // in-flight count entirely.
  ThreadPool pool(3);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> blocked{0};
  for (int i = 0; i < 2; ++i) {
    pool.Schedule([&] {
      ++blocked;
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
  }
  ASSERT_TRUE(WaitFor([&] { return blocked.load() == 2; }, 5000ms));

  std::atomic<int> counter{0};
  pool.ParallelFor(64, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 64);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.Wait();
}

TEST(ThreadPoolStressTest, LastChunkOutlastingTheSpinFallsBackToCondvar) {
  // The caller spins a bounded number of polls after draining its own
  // chunks, then sleeps on the call's condvar. Here the last chunk runs on
  // a worker for 100 ms, orders of magnitude past any spin length, so the
  // caller must take the condvar path, be woken by the final chunk, and
  // still return only after that chunk's writes are visible.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  std::atomic<bool> rendezvous_ok{true};
  bool slow_chunk_done = false;  // written by the worker, read after return
  for (int round = 0; round < 3; ++round) {
    worker_started.store(false);
    slow_chunk_done = false;
    pool.ParallelFor(2, [&](size_t) {
      if (std::this_thread::get_id() == caller) {
        // Hold the caller's chunk until a worker has claimed the other
        // one, so the slow chunk is guaranteed to run off the caller.
        if (!WaitFor([&] { return worker_started.load(); }, 5000ms)) {
          rendezvous_ok.store(false);
        }
        return;
      }
      worker_started.store(true);
      std::this_thread::sleep_for(100ms);
      slow_chunk_done = true;
    });
    ASSERT_TRUE(rendezvous_ok.load()) << "no worker claimed a chunk";
    EXPECT_TRUE(slow_chunk_done) << "caller returned before the last chunk";
  }
}

TEST(ThreadPoolStressTest, NestedCallMakesProgressWithEveryPeerBlocked) {
  // A nested ParallelFor from a pool worker whose peers are all parked on
  // a gate has nobody to steal its runners: the nested caller drains every
  // chunk itself, its spin sees the counter complete, and it returns while
  // the gate is still closed.
  ThreadPool pool(3);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> blocked{0};
  std::atomic<int> nested_total{0};
  std::atomic<bool> nested_done{false};
  for (int i = 0; i < 2; ++i) {
    pool.Schedule([&] {
      ++blocked;
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
  }
  ASSERT_TRUE(WaitFor([&] { return blocked.load() == 2; }, 5000ms));
  pool.Schedule([&] {
    pool.ParallelFor(64, [&](size_t) { ++nested_total; });
    nested_done.store(true);
  });
  EXPECT_TRUE(WaitFor([&] { return nested_done.load(); }, 5000ms))
      << "nested call stalled behind blocked peers";
  EXPECT_EQ(nested_total.load(), 64);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.Wait();
}

}  // namespace
}  // namespace fedra
