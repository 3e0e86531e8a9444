#ifndef TPGNN_UTIL_THREAD_POOL_H_
#define TPGNN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

// Fixed-size worker pool shared by the trainer, the evaluator, and the
// benchmark harness.
//
// Design notes (see DESIGN.md §"Threading model"):
//  * The pool size is decided once, at first use of Global(), from the
//    TPGNN_NUM_THREADS environment variable (default: hardware
//    concurrency). Size 1 means every ParallelFor runs inline on the
//    calling thread, which is the bit-exact serial path.
//  * ParallelFor partitions [begin, end) into contiguous chunks of at most
//    `grain` indices. Each index is processed exactly once; callers that
//    need ordered results write into a pre-sized vector at slot `i`
//    (see ParallelMap) so collection order never depends on scheduling.
//  * Nested ParallelFor calls issued from inside a worker run inline on
//    that worker. This keeps nested parallel code deadlock-free without a
//    work-stealing scheduler and keeps the determinism story simple.
//  * Post queues a fire-and-forget task in FIFO order. Workers prefer
//    ParallelFor chunks (a caller is blocked on those) and run posted tasks
//    when no chunk is waiting. Tasks run with InWorker() true, so a
//    ParallelFor inside a task runs inline on that worker.
//  * Worker threads hold no tensor/autograd state; anything thread-local
//    (e.g. tensor::NoGradGuard) must be established inside the body
//    function, not around the ParallelFor call.

namespace tpgnn {

class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers (the caller participates in every
  // ParallelFor, so `num_threads` is the total parallelism). num_threads < 1
  // is clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Invokes fn(i) exactly once for every i in [begin, end), distributing
  // contiguous chunks of at most `grain` indices across the pool. Blocks
  // until all indices are processed. grain < 1 is clamped to 1. Must not
  // throw from fn; errors should CHECK-fail.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t)>& fn);

  // FIFO entry point: queues `task` to run once on a worker thread and
  // returns at once; tasks start in the order they were posted. Wakes one
  // idle worker. A pool without workers (num_threads() == 1) runs the task
  // inline before returning. Tasks still queued when the pool is destroyed
  // run before the workers exit. Must not throw from task.
  void Post(std::function<void()> task);

  // True while the current thread is executing a ParallelFor body or a
  // posted task, in which case nested ParallelFor calls run inline.
  static bool InWorker();

  // Process-wide pool sized from TPGNN_NUM_THREADS (default: hardware
  // concurrency, at least 1). Constructed on first use.
  static ThreadPool& Global();

  // Resolved size of Global() without forcing its construction.
  static int DefaultNumThreads();

 private:
  struct Chunk {
    int64_t begin = 0;
    int64_t end = 0;
  };
  // Shared state of one ParallelFor invocation; workers pull chunks until
  // the queue drains.
  struct Job {
    std::deque<Chunk> chunks;
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t pending_chunks = 0;  // Chunks not yet fully processed.
  };

  void WorkerLoop();
  // Runs chunks of `job` until its queue is empty. Returns when the calling
  // thread finds no more chunks to claim (other threads may still be
  // finishing theirs).
  void DrainJob(Job& job);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // Signals workers: job posted or stop.
  std::condition_variable done_cv_;  // Signals submitter: job finished.
  Job* job_ = nullptr;               // Live job, guarded by mu_.
  std::deque<std::function<void()>> tasks_;  // Posted, not yet started.
  bool stop_ = false;
};

// Applies fn(i) for i in [0, n) on `pool` and collects the results in index
// order; result slot i is always fn(i) regardless of thread scheduling.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ThreadPool& pool, int64_t n, int64_t grain,
                           Fn&& fn) {
  std::vector<T> results(static_cast<size_t>(n));
  pool.ParallelFor(0, n, grain, [&](int64_t i) {
    results[static_cast<size_t>(i)] = fn(i);
  });
  return results;
}

}  // namespace tpgnn

#endif  // TPGNN_UTIL_THREAD_POOL_H_
