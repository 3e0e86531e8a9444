#include "util/thread_pool.h"

#include <algorithm>

#include "util/env.h"
#include "util/logging.h"

namespace tpgnn {

namespace {

thread_local bool in_worker = false;

// RAII so fn() throwing a CHECK-abort or early return never leaves the flag
// set on a reused thread. Saves and restores the previous value: the inline
// path of a nested ParallelFor opens its own scope, and resetting the flag
// to false there would make a *subsequent* nested call from the same task
// take the submission path and deadlock waiting on its own enclosing job.
struct InWorkerScope {
  bool prev;
  InWorkerScope() : prev(in_worker) { in_worker = true; }
  ~InWorkerScope() { in_worker = prev; }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

bool ThreadPool::InWorker() { return in_worker; }

void ThreadPool::WorkerLoop() {
  for (;;) {
    Chunk chunk;
    Job* job = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || !tasks_.empty() ||
               (job_ != nullptr && !job_->chunks.empty());
      });
      if (job_ != nullptr && !job_->chunks.empty()) {
        // A ParallelFor caller is blocked on its chunks: serve it first.
        job = job_;
        chunk = job->chunks.front();
        job->chunks.pop_front();
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else {
        return;  // stop_ with nothing left to run.
      }
    }
    if (job == nullptr) {
      InWorkerScope scope;
      task();
      continue;
    }
    {
      InWorkerScope scope;
      for (int64_t i = chunk.begin; i < chunk.end; ++i) {
        (*job->fn)(i);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The submitter waits for this count, so `job` stays alive until the
      // notification below is issued under the same mutex.
      if (--job->pending_chunks == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::Post(std::function<void()> task) {
  if (workers_.empty()) {
    InWorkerScope scope;
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::DrainJob(Job& job) {
  for (;;) {
    Chunk chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job.chunks.empty()) return;
      chunk = job.chunks.front();
      job.chunks.pop_front();
    }
    {
      InWorkerScope scope;
      for (int64_t i = chunk.begin; i < chunk.end; ++i) {
        (*job.fn)(i);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--job.pending_chunks == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  // Inline paths: serial pool, nested call from a worker (avoids deadlock
  // and keeps per-thread guards scoped correctly), or a range too small to
  // split. All three preserve strict index order.
  if (num_threads_ == 1 || InWorker() || end - begin <= grain) {
    InWorkerScope scope;
    for (int64_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }

  Job job;
  for (int64_t lo = begin; lo < end; lo += grain) {
    job.chunks.push_back({lo, std::min(lo + grain, end)});
  }
  job.fn = &fn;
  job.pending_chunks = static_cast<int64_t>(job.chunks.size());

  {
    std::unique_lock<std::mutex> lock(mu_);
    // One live job at a time; concurrent external submitters queue here.
    done_cv_.wait(lock, [this] { return job_ == nullptr; });
    job_ = &job;
  }
  work_cv_.notify_all();

  DrainJob(job);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&job] { return job.pending_chunks == 0; });
    job_ = nullptr;
  }
  // Wake any submitter waiting for the job slot.
  done_cv_.notify_all();
}

int ThreadPool::DefaultNumThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int64_t configured =
      GetEnvInt("TPGNN_NUM_THREADS", hw > 0 ? hw : 1);
  return static_cast<int>(std::max<int64_t>(1, configured));
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

}  // namespace tpgnn
