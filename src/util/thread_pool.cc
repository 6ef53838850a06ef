#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "util/check.h"

namespace fedra {

namespace {

// The pool the current thread is a worker of, or null. A nested
// ParallelFor on the *same* pool queues helpers like any caller; one from a
// worker of a different pool runs inline.
thread_local const ThreadPool* tls_pool = nullptr;

// Completion token for one ParallelForRange call. Heap-owned (shared_ptr)
// because runner tasks can outlive the call: once every chunk is claimed the
// caller returns, but runners still queued behind other callers' work wake up
// later, see the exhausted counter, and exit without touching the body.
struct ParallelCallState {
  std::atomic<size_t> next{0};  // first unclaimed index
  std::atomic<size_t> done{0};  // completed chunks
  size_t n = 0;
  size_t grain = 0;
  size_t num_chunks = 0;
  std::function<void(size_t, size_t)> body;
  std::mutex mutex;
  std::condition_variable all_done;

  // Claims grain-sized chunks until none remain. Any thread — the caller or
  // a pool worker — can run this; the dynamic handout balances load without
  // per-chunk queue traffic.
  void RunChunks() {
    for (;;) {
      const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      body(begin, std::min(begin + grain, n));
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // Lock pairs with the caller's predicate check so the final wakeup
        // can't slip between its check and its sleep.
        std::lock_guard<std::mutex> lock(mutex);
        all_done.notify_all();
      }
    }
  }
};

// Caller spin before the condvar wait in ParallelForRange. A caller that
// sleeps at the end of every trainer round is re-placed by the scheduler on
// its wakes, and its next single-threaded stretch (set-up, evaluation) lands
// on whichever core happens to be free — often one a co-tenant is slowing.
// 2^17 pauses take about 3.4 ms on an AVX-512 Xeon (26 ns each), enough to
// cover the tail of a round of small-model worker steps.
constexpr int kCallerSpinIterations = 1 << 17;

// Spin-wait hint: yields pipeline resources to a hyper-thread sibling.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

bool ThreadPool::OnPoolThread() { return tls_pool != nullptr; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) {
      num_threads = 1;
    }
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Written under the queue mutex so no worker can check the wait
    // predicate between this store and its sleep, then miss the notify.
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_release);
  }
  work_available_.notify_all();
  // Workers exit only once the queue is empty, so every queued task runs.
  for (auto& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::PushTask(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] {
        return !tasks_.empty() ||
               shutting_down_.load(std::memory_order_relaxed);
      });
      if (tasks_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  FEDRA_CHECK(!shutting_down_.load(std::memory_order_acquire))
      << "Schedule() after shutdown";
  scheduled_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  PushTask([this, task = std::move(task)] {
    task();
    if (scheduled_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      scheduled_done_.notify_all();
    }
  });
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  scheduled_done_.wait(lock, [this] {
    return scheduled_in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body,
                             size_t grain) {
  ParallelForRange(n, grain, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      body(i);
    }
  });
}

void ThreadPool::ParallelForRange(
    size_t n, size_t grain, const std::function<void(size_t, size_t)>& body) {
  if (n == 0) {
    return;
  }
  grain = std::max<size_t>(1, grain);
  const bool nested = tls_pool == this;
  // Inline when parallelism can't help: trivially small loops, a
  // single-thread pool, or a caller that is a worker of a *different* pool
  // (feeding this pool's queue from there and blocking would risk
  // cross-pool cycles; this never happens with the single global pool).
  if (n <= grain || threads_.size() == 1 ||
      (tls_pool != nullptr && !nested)) {
    body(0, n);
    return;
  }
  auto state = std::make_shared<ParallelCallState>();
  state->n = n;
  state->grain = grain;
  state->num_chunks = (n + grain - 1) / grain;
  state->body = body;
  // The caller is one runner, so at most num_chunks - 1 helpers are useful —
  // and a nested caller occupies one worker itself, leaving only
  // threads_ - 1 peers that could ever pick up a runner.
  const size_t max_helpers = nested ? threads_.size() - 1 : threads_.size();
  const size_t helpers = std::min(state->num_chunks - 1, max_helpers);
  // A nested call from a pool worker queues its helper runners on the same
  // FIFO as every other call. Idle peers pick them up (nested loops really
  // parallelize); if nobody does, the caller drains every chunk itself
  // below and the runners become no-ops when they finally run.
  // Deadlock-free: the caller only ever waits on chunks that are *running*
  // on other workers, never on queued ones — RunChunks claims all remaining
  // chunks before the wait starts.
  for (size_t t = 0; t < helpers; ++t) {
    PushTask([state] { state->RunChunks(); });
  }
  state->RunChunks();
  // Wait for this call's chunks only. Chunks claimed by workers may still be
  // running after the counter is exhausted; other callers' tasks never gate
  // this wait. Spin first, then sleep.
  auto all_done = [&] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  };
  for (int spin = 0; spin < kCallerSpinIterations; ++spin) {
    if (all_done()) {
      return;
    }
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, all_done);
}

void ThreadPool::ParallelFor2d(
    size_t rows, size_t cols, const std::function<void(size_t, size_t)>& body) {
  if (rows == 0 || cols == 0) {
    return;
  }
  ParallelFor(rows * cols,
              [&body, cols](size_t t) { body(t / cols, t % cols); });
}

namespace {

std::atomic<size_t> g_global_pool_threads{0};

// Largest FEDRA_NUM_THREADS accepted: far above any host this runs on, low
// enough that a typo cannot start tens of thousands of threads.
constexpr size_t kMaxEnvThreads = 1024;

// FEDRA_NUM_THREADS as a pool size: 0 (the default) when unset or empty,
// else a whole decimal number in [1, kMaxEnvThreads]; anything else aborts.
size_t EnvThreads() {
  // Runs exactly once, inside the static-local initializer, before any
  // pool thread exists — no concurrent setenv can race it.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("FEDRA_NUM_THREADS");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  const char* end = env + std::strlen(env);
  size_t n = 0;
  const auto [parsed_end, error] = std::from_chars(env, end, n);
  FEDRA_CHECK(error == std::errc() && parsed_end == end && n >= 1 &&
              n <= kMaxEnvThreads)
      << "FEDRA_NUM_THREADS=\"" + std::string(env) +
             "\" is not a thread count (want a whole number in [1, 1024])";
  return n;
}

}  // namespace

void SetGlobalThreadPoolThreads(size_t num_threads) {
  g_global_pool_threads.store(num_threads, std::memory_order_release);
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool([] {
    const size_t n = g_global_pool_threads.load(std::memory_order_acquire);
    return n != 0 ? n : EnvThreads();
  }());
  return pool;
}

}  // namespace fedra
