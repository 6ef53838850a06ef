// Thread pool with one FIFO task queue and chunked ParallelFor conveniences.
//
// The simulated cluster runs every round's worker-local training steps in
// parallel; determinism is preserved because each worker owns its forked Rng
// stream and workers never share mutable state within a step. The tensor
// backend also uses the pool (GEMM row x column tile grid), so ParallelFor is
// re-entrancy safe: a nested call made from inside one of this pool's workers
// queues its helpers like any other call and the caller drains every
// unclaimed chunk itself, so it never waits on queued work.
//
// Scheduling model: one std::deque of tasks, guarded by one mutex; idle
// workers sleep on one condition variable and pop FIFO. ParallelFor balances
// load through a per-call shared chunk counter, not through the queue: every
// ParallelFor/ParallelForRange call carries its own heap-owned completion
// token, so two independent callers on different threads only ever wait
// for their *own* chunks — never each other's. The calling thread
// participates in draining its own chunks, so a ParallelFor makes progress
// even when every worker is busy with someone else's work.
// Once its chunks are claimed, the caller spins a fixed number of
// pause-hinted polls on the call's completion counter before it sleeps on
// the call's condition variable (a trainer round ends in one such wait; see
// kCallerSpinIterations). The spin reads no clock and has no knob; a chunk
// that outlasts it still completes through the condvar.

#ifndef FEDRA_UTIL_THREAD_POOL_H_
#define FEDRA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedra {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is a worker of *some* ThreadPool. GEMM
  /// uses it to keep its tile grid off pool threads.
  static bool OnPoolThread();

  /// Enqueues a task; it runs on some pool thread.
  void Schedule(std::function<void()> task);

  /// Blocks until all tasks passed to Schedule() have completed. ParallelFor
  /// chunks are tracked by their own per-call token and never count here.
  void Wait();

  /// Runs body(i) for i in [0, n), distributing across the pool and blocking
  /// until done. Indices are handed out `grain` at a time so fine-grained
  /// loops don't pay one queue round-trip per index. Runs inline when the
  /// pool has one thread or n <= grain. A nested call from one of this
  /// pool's own workers queues its helper runners on the same FIFO, where
  /// idle peers pick them up, so nested loops (a GEMM inside a parallel
  /// worker step) still fan out; the caller drains all remaining chunks
  /// itself, so on an all-busy pool the nested loop runs on the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   size_t grain = 1);

  /// Range flavor: runs body(begin, end) over disjoint [begin, end) chunks of
  /// at most `grain` indices covering [0, n). Preferred for kernels that can
  /// amortize work across a whole chunk (GEMM row-block panels, vec spans).
  void ParallelForRange(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body);

  /// 2-D tile grid: runs body(r, c) for every (r, c) in [0, rows) x [0, cols)
  /// with one task per tile. Used by the packed-panel GEMM to expose
  /// row x column parallelism instead of row blocks only.
  void ParallelFor2d(size_t rows, size_t cols,
                     const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop();
  // Appends a task to the queue and wakes one sleeping worker. The backbone
  // of Schedule and ParallelFor.
  void PushTask(std::function<void()> task);

  std::vector<std::thread> threads_;
  std::mutex mutex_;  // guards tasks_; shutting_down_ is written under it
  std::condition_variable work_available_;
  std::deque<std::function<void()>> tasks_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<size_t> scheduled_in_flight_{0};  // Schedule()d tasks only
  std::mutex wait_mutex_;
  std::condition_variable scheduled_done_;
};

/// Process-wide pool for library internals. Sized, in order of precedence, by
/// SetGlobalThreadPoolThreads(), the FEDRA_NUM_THREADS environment variable,
/// or hardware concurrency. FEDRA_NUM_THREADS, when set and non-empty, must
/// be a whole decimal number in [1, 1024]; anything else aborts before the
/// pool starts a thread.
ThreadPool& GlobalThreadPool();

/// Overrides the size of the lazily created global pool. Must be called
/// before the first GlobalThreadPool() use to have any effect (benchmarks
/// call it from main() when given --threads=N); 0 restores the default.
void SetGlobalThreadPoolThreads(size_t num_threads);

}  // namespace fedra

#endif  // FEDRA_UTIL_THREAD_POOL_H_
