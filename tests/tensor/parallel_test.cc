// Concurrency contracts of the tensor engine and the thread pool:
// NoGradGuard is per-thread, ParallelFor is deterministic and exhaustive,
// Post runs tasks on workers in FIFO order (nested ParallelFor inline),
// and concurrent forward/backward over shared parameters is race-free when
// gradients are redirected through ShadowGradScope. Run locally under
// -fsanitize=thread to surface ordering bugs the assertions cannot.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace tpgnn::tensor {
namespace {

TEST(ParallelTest, NoGradGuardIsPerThread) {
  ASSERT_TRUE(GradEnabled());
  NoGradGuard outer;
  ASSERT_FALSE(GradEnabled());

  // A freshly spawned thread is unaffected by this thread's guard, and its
  // own nesting unwinds independently.
  bool fresh_thread_enabled = false;
  bool nested_disabled = true;
  bool unwound_enabled = false;
  std::thread worker([&] {
    fresh_thread_enabled = GradEnabled();
    {
      NoGradGuard inner1;
      NoGradGuard inner2;
      nested_disabled = !GradEnabled();
    }
    unwound_enabled = GradEnabled();
  });
  worker.join();
  EXPECT_TRUE(fresh_thread_enabled);
  EXPECT_TRUE(nested_disabled);
  EXPECT_TRUE(unwound_enabled);
  EXPECT_FALSE(GradEnabled());
}

TEST(ParallelTest, NoGradGuardNestsInsidePoolWorkers) {
  ThreadPool pool(4);
  std::atomic<int> violations{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t) {
    if (!GradEnabled()) violations.fetch_add(1);
    NoGradGuard guard;
    if (GradEnabled()) violations.fetch_add(1);
    {
      NoGradGuard nested;
      if (GradEnabled()) violations.fetch_add(1);
    }
    if (GradEnabled()) violations.fetch_add(1);
  });
  // Guards must fully unwind before the next task reuses the thread.
  pool.ParallelFor(0, 64, 1, [&](int64_t) {
    if (!GradEnabled()) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t grain : {1, 3, 16, 1000}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, 257, grain, [&](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ParallelTest, ParallelMapIsDeterministicAcrossThreadCounts) {
  auto square = [](int64_t i) { return i * i; };
  ThreadPool serial(1);
  ThreadPool wide(8);
  std::vector<int64_t> a = ParallelMap<int64_t>(serial, 100, 7, square);
  std::vector<int64_t> b = ParallelMap<int64_t>(wide, 100, 7, square);
  EXPECT_EQ(a, b);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t) {
    EXPECT_TRUE(ThreadPool::InWorker());
    // Nested calls must complete inline without deadlocking on the pool —
    // including the SECOND one: the first nested scope must not clear the
    // worker flag on exit, or the second call would submit a job and wait
    // on its own enclosing job forever.
    pool.ParallelFor(0, 4, 1, [&](int64_t) { total.fetch_add(1); });
    EXPECT_TRUE(ThreadPool::InWorker());
    pool.ParallelFor(0, 4, 1, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ParallelTest, PostRunsTasksOnWorkersInFifoOrder) {
  // One worker, so FIFO start order is also completion order.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  bool all_in_worker = true;
  const std::thread::id caller = std::this_thread::get_id();
  bool any_on_caller = false;
  constexpr int kTasks = 32;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      all_in_worker = all_in_worker && ThreadPool::InWorker();
      any_on_caller = any_on_caller || std::this_thread::get_id() == caller;
      order.push_back(i);
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return order.size() == kTasks; });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_TRUE(all_in_worker);
  EXPECT_FALSE(any_on_caller);
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ParallelTest, ParallelForNestedInAPostedTaskRunsInline) {
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool inline_only = true;
  int64_t covered = 0;
  pool.Post([&] {
    const std::thread::id task_thread = std::this_thread::get_id();
    bool same_thread = true;
    int64_t count = 0;
    pool.ParallelFor(0, 64, 1, [&](int64_t) {
      same_thread = same_thread && std::this_thread::get_id() == task_thread;
      ++count;  // Inline, so no race.
    });
    std::lock_guard<std::mutex> lock(mu);
    inline_only = same_thread;
    covered = count;
    done = true;
    cv.notify_all();
  });
  // Meanwhile the caller's own ParallelFor still gets every index.
  std::atomic<int> hits{0};
  pool.ParallelFor(0, 100, 1, [&](int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(covered, 64);
}

TEST(ParallelTest, PostWithoutWorkersRunsInlineAndTeardownDrainsTasks) {
  {
    ThreadPool serial(1);
    bool ran = false;
    serial.Post([&] { ran = ThreadPool::InWorker(); });
    EXPECT_TRUE(ran);  // Ran inline, before Post returned.
  }
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Post([&] { ran.fetch_add(1); });
    }
  }  // Destruction runs whatever is still queued.
  EXPECT_EQ(ran.load(), 50);
}

// Per-task reference gradients for loss = Sum(Tanh(x W)), each computed
// serially on a fresh tape with a zeroed gradient buffer — the same float
// operations the shadow buffers see, so the comparison is bit-exact.
std::vector<std::vector<float>> SerialTaskGrads(const Tensor& w_proto,
                                                const std::vector<Tensor>& xs) {
  std::vector<std::vector<float>> grads;
  for (const Tensor& x : xs) {
    Tensor w = Tensor::FromVector(w_proto.shape(), w_proto.data(), true);
    Tensor loss = Sum(Tanh(MatMul(x, w)));
    loss.Backward();
    grads.push_back(w.grad());
  }
  return grads;
}

TEST(ParallelTest, ConcurrentBackwardWithShadowGradsMatchesSerial) {
  const int64_t kTasks = 16;
  const int64_t dim = 12;
  Rng rng(99);
  Tensor w = Tensor::Uniform({dim, dim}, -0.5f, 0.5f, rng, true);
  std::vector<Tensor> xs;
  for (int64_t t = 0; t < kTasks; ++t) {
    xs.push_back(Tensor::Uniform({3, dim}, -1.0f, 1.0f, rng, false));
  }
  const std::vector<std::vector<float>> expected = SerialTaskGrads(w, xs);

  ThreadPool pool(4);
  std::vector<std::shared_ptr<TensorImpl>> shadowed = {w.impl()};
  std::vector<std::vector<float>> shadow_grads(static_cast<size_t>(kTasks));
  pool.ParallelFor(0, kTasks, 1, [&](int64_t t) {
    ShadowGradScope scope(shadowed);
    Tensor loss = Sum(Tanh(MatMul(xs[static_cast<size_t>(t)], w)));
    loss.Backward();
    shadow_grads[static_cast<size_t>(t)] = scope.shadow_grad(0);
  });

  // The shared parameter's real gradient buffer must be untouched...
  for (float g : w.grad()) {
    ASSERT_EQ(g, 0.0f);
  }
  // ...and every concurrently computed shadow gradient must be bit-identical
  // to its serial reference, no matter which worker ran it or when.
  for (int64_t t = 0; t < kTasks; ++t) {
    const std::vector<float>& got = shadow_grads[static_cast<size_t>(t)];
    const std::vector<float>& want = expected[static_cast<size_t>(t)];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "task " << t << " element " << i;
    }
  }
}

TEST(ParallelTest, ShadowScopeLeavesUnrelatedTensorsAlone) {
  Tensor w = Tensor::FromVector({2}, {1.0f, 2.0f}, true);
  Tensor v = Tensor::FromVector({2}, {3.0f, 4.0f}, true);
  {
    ShadowGradScope scope({w.impl()});
    Tensor loss = Sum(Mul(w, v));
    loss.Backward();
    // w's gradient went to the shadow buffer; v's went to the real one.
    EXPECT_FLOAT_EQ(scope.shadow_grad(0)[0], 3.0f);
    EXPECT_FLOAT_EQ(scope.shadow_grad(0)[1], 4.0f);
  }
  EXPECT_FLOAT_EQ(w.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(v.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(v.grad()[1], 2.0f);
}

}  // namespace
}  // namespace tpgnn::tensor
