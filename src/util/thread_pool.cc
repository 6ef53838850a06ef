#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace fedra {

namespace {

thread_local bool tls_on_pool_thread = false;
// Which pool (and worker index) the current thread belongs to. A nested
// ParallelFor on the *same* pool can then feed its own deque so idle peers
// steal the chunks instead of the whole loop running inline; PushTask from a
// worker likewise goes to the worker's own deque instead of the injector.
thread_local const void* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

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

bool ThreadPool::OnPoolThread() { return tls_on_pool_thread; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) {
      num_threads = 1;
    }
  }
  deques_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    deques_.push_back(std::make_unique<ChaseLevDeque<Task>>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutting_down_.store(true, std::memory_order_release);
  {
    // Fence against a worker that has checked the predicate but not yet gone
    // to sleep; see PushTask for the same idiom.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  work_available_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
  // Workers drain everything before exiting; anything still here was pushed
  // during shutdown. Deques delete their own leftovers; the injector is a
  // plain container of owned pointers.
  for (Task* task : injector_) {
    delete task;
  }
}

void ThreadPool::PushTask(std::function<void()> task) {
  // Sleep/wake audit (TSan leg + SleepWakeHandoff* regression tests): the
  // pusher increments the occupancy counter, enqueues, then toggles
  // sleep_mutex_ before notifying. A worker sleeps only after re-checking
  // the counters *under* sleep_mutex_ (WorkerLoop's wait predicate), so for
  // any interleaving either (a) the worker takes sleep_mutex_ after the
  // pusher's toggle and the predicate sees occupancy > 0 — no sleep — or
  // (b) the worker is already parked inside wait() when the pusher toggles,
  // and the notify reaches it. The toggle is what closes the classic
  // atomic-then-sleep lost-wakeup window between a failed TryPop and the
  // wait() call; do not "optimize away" the empty lock_guard below.
  //
  // Publish the count before the task so queued_ never underflows when a
  // worker pops between the two writes; a transiently high count only costs
  // a spurious wakeup.
  Task* owned = new Task(std::move(task));
  queued_.fetch_add(1, std::memory_order_release);
  if (tls_pool == this) {
    // Worker push: lock-free onto the caller's own deque (it is the only
    // thread that ever pushes there — the Chase-Lev ownership contract).
    deques_[tls_worker_index]->PushBottom(owned);
  } else {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    injector_.push_back(owned);
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  work_available_.notify_one();
}

ThreadPool::Task* ThreadPool::TryPop(size_t preferred) {
  // 1. Own deque, LIFO — newest first keeps nested ParallelFor chunks hot
  // in the cache that just produced them.
  if (Task* task = deques_[preferred]->PopBottom()) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return task;
  }
  // 2. Injector: external submissions, FIFO across callers.
  {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    if (!injector_.empty()) {
      Task* task = injector_.front();
      injector_.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return task;
    }
  }
  // 3. Steal FIFO from each peer's deque. A lost CAS race reads as empty —
  // the winner decremented queued_, so the caller's re-check either finds
  // more work or sleeps on an accurate counter.
  const size_t num_queues = deques_.size();
  for (size_t offset = 1; offset < num_queues; ++offset) {
    if (Task* task = deques_[(preferred + offset) % num_queues]->Steal()) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_on_pool_thread = true;
  tls_pool = this;
  tls_worker_index = worker_index;
  for (;;) {
    Task* task = TryPop(worker_index);
    if (task != nullptr) {
      (*task)();
      delete task;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    work_available_.wait(lock, [this] {
      return shutting_down_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (shutting_down_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;  // shutting down and drained
    }
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
  // (feeding this pool's deques from there and blocking would risk
  // cross-pool cycles; this never happens with the single global pool).
  if (n <= grain || threads_.size() == 1 ||
      (OnPoolThread() && !nested)) {
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
  // threads_ - 1 peers that could ever steal a runner.
  const size_t max_helpers = nested ? threads_.size() - 1 : threads_.size();
  const size_t helpers = std::min(state->num_chunks - 1, max_helpers);
  // A nested call from a pool worker parks its helper runners on that
  // worker's own deque (PushTask's lock-free owner push). Idle peers steal
  // them (nested loops really parallelize); if nobody does, the caller
  // drains every chunk itself below and the runners become no-ops.
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
}  // namespace

void SetGlobalThreadPoolThreads(size_t num_threads) {
  g_global_pool_threads.store(num_threads, std::memory_order_release);
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool([] {
    size_t n = g_global_pool_threads.load(std::memory_order_acquire);
    if (n == 0) {
      // Runs exactly once, inside the static-local initializer, before any
      // pool thread exists — no concurrent setenv can race it.
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      if (const char* env = std::getenv("FEDRA_NUM_THREADS")) {
        n = static_cast<size_t>(std::strtoul(env, nullptr, 10));
      }
    }
    return n;
  }());
  return pool;
}

}  // namespace fedra
