#include "serve/inference_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "nn/checkpoint.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tpgnn::serve {

// One queued score: the snapshot taken at enqueue and, once done, its
// result.
struct InferenceEngine::ScoreJob {
  ScoreSnapshot snap;
  ScoreResult result;
  uint64_t seq = 0;             // Request order.
  double enqueue_micros = 0.0;  // Engine clock at enqueue.
  bool done = false;            // Guarded by ScoreQueue::mu.
};

struct InferenceEngine::ScoreQueue {
  std::mutex mu;
  std::condition_variable done_cv;  // A job finished.
  // Jobs not yet collected, in request order.
  std::deque<std::unique_ptr<ScoreJob>> pending;
  // The pending jobs no thread has started, in request order. A job leaves
  // it when a helper or a collector claims it.
  std::deque<ScoreJob*> unclaimed;
  uint64_t last_seq = 0;
  size_t reserved = 0;  // Queue slots held by Ingest calls mid-snapshot.
  int helpers = 0;      // Pool tasks posted and not yet returned.
  int running = 0;      // Jobs helpers are running right now.
  bool closed = false;  // The engine is being destroyed.
};

InferenceEngine::InferenceEngine(const core::TpGnnConfig& config,
                                 uint64_t seed, const EngineOptions& options)
    : options_(options),
      registry_(config, seed),
      router_(registry_,
              SessionRouter::Options{
                  options.num_shards,
                  options.max_resident_sessions,
                  options.idle_ttl_seconds,
              },
              &metrics_),
      queue_(std::make_shared<ScoreQueue>()) {
  TPGNN_CHECK_GE(options_.max_pending_scores, size_t{1});
  TPGNN_CHECK_GE(options_.max_batch, size_t{1});
}

InferenceEngine::~InferenceEngine() {
  std::deque<std::unique_ptr<ScoreJob>> dropped;
  std::unique_lock<std::mutex> lock(queue_->mu);
  queue_->closed = true;
  queue_->unclaimed.clear();
  queue_->done_cv.wait(lock, [this] { return queue_->running == 0; });
  dropped.swap(queue_->pending);
}

Status InferenceEngine::LoadSnapshot(const std::string& path) {
  core::TpGnnModel& model = registry_.initial_model();
  nn::CheckpointMetadata metadata;
  if (Status s = nn::ReadCheckpointMetadata(path, &metadata); !s.ok()) {
    return s;
  }
  if (Status s = core::ValidateConfigMetadata(model.config(), metadata);
      !s.ok()) {
    return s;
  }
  return nn::LoadParameters(model, path);
}

Status InferenceEngine::LoadModelVersion(const std::string& name,
                                         const std::string& path) {
  Status status = registry_.Load(name, path);
  if (status.ok()) {
    metrics_.model_loads.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status InferenceEngine::ActivateModel(const std::string& name,
                                      model::SwapPolicy policy) {
  Status status = registry_.Activate(name, policy);
  if (status.ok()) {
    metrics_.model_activations.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status InferenceEngine::Ingest(const Event& event) {
  Stopwatch watch;
  metrics_.events_ingested.fetch_add(1, std::memory_order_relaxed);
  Status status;
  switch (event.kind) {
    case Event::Kind::kBegin:
      // Begin is the natural sweep point: it is the only event that grows
      // the resident set.
      router_.EvictIdle(event.time);
      status = router_.ShardFor(event.session_id)
                   .BeginSession(event.session_id, event.num_nodes,
                                 event.feature_dim, event.features,
                                 event.time);
      break;
    case Event::Kind::kEdge:
      status = router_.ShardFor(event.session_id)
                   .AddEdge(event.session_id, event.src, event.dst,
                            event.edge_time, event.time);
      break;
    case Event::Kind::kEnd:
      status = router_.ShardFor(event.session_id).EndSession(event.session_id);
      break;
    case Event::Kind::kScore: {
      // Injected engine overload: indistinguishable from a genuinely full
      // score queue, so callers exercise their real shed-and-retry path and
      // overload_rejections accounts for every injected fire.
      failpoint::Hit hit;
      if (TPGNN_FAILPOINT("engine.score_enqueue", &hit)) {
        if (hit.kind == failpoint::Kind::kDelay) {
          failpoint::ApplyDelay(hit);
        } else {
          metrics_.overload_rejections.fetch_add(1, std::memory_order_relaxed);
          metrics_.ingest_latency.Record(watch.ElapsedMicros());
          return failpoint::InjectedError(StatusCode::kOverloaded,
                                          "engine.score_enqueue");
        }
      }
      status = Enqueue(event);
      break;
    }
  }
  metrics_.ingest_latency.Record(watch.ElapsedMicros());
  return status;
}

Status InferenceEngine::Enqueue(const Event& event) {
  ScoreQueue& q = *queue_;
  {
    // Reserve the queue slot before snapshotting, so a rejected request
    // never evaluates the shard's failpoints or moves its fold bookkeeping.
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.pending.size() + q.reserved >= options_.max_pending_scores) {
      metrics_.overload_rejections.fetch_add(1, std::memory_order_relaxed);
      return Status::Overloaded(
          "score queue full (" + std::to_string(options_.max_pending_scores) +
          " pending); drain with ProcessPending");
    }
    ++q.reserved;
  }
  auto job = std::make_unique<ScoreJob>();
  Status status =
      router_.ShardFor(event.session_id).Snapshot(event.session_id, &job->snap);
  job->enqueue_micros = clock_.ElapsedMicros();
  job->result.label = event.label;
  if (status.ok() && !job->snap.status.ok()) {
    // An injected shard.score failure: the result is ready, failed.
    job->result.session_id = event.session_id;
    job->result.status = job->snap.status;
    job->done = true;
    Account(job->result, 0.0);
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(q.mu);
    --q.reserved;
    if (!status.ok()) {
      return status;
    }
    job->seq = ++q.last_seq;
    if (!job->done) {
      q.unclaimed.push_back(job.get());
      // Wake a worker only for a backlog: a lone job is left to the
      // collector that is about to run it anyway.
      if (q.unclaimed.size() >= 2 &&
          q.helpers < ThreadPool::Global().num_threads() - 1) {
        ++q.helpers;
        wake = true;
      }
    }
    q.pending.push_back(std::move(job));
  }
  if (wake) {
    ThreadPool::Global().Post(
        [queue = queue_, this] { Help(queue, this); });
  }
  return Status::Ok();
}

void InferenceEngine::Help(const std::shared_ptr<ScoreQueue>& queue,
                           InferenceEngine* engine) {
  ScoreQueue& q = *queue;
  std::unique_lock<std::mutex> lock(q.mu);
  while (!q.closed && !q.unclaimed.empty()) {
    ScoreJob* job = q.unclaimed.front();
    q.unclaimed.pop_front();
    ++q.running;
    lock.unlock();
    engine->RunJob(*job);
    lock.lock();
    --q.running;
    job->done = true;
    q.done_cv.notify_all();
  }
  --q.helpers;
}

void InferenceEngine::RunJob(ScoreJob& job) {
  SessionShard& shard = router_.ShardFor(job.snap.session_id);
  const double start_micros = clock_.ElapsedMicros();
  shard.Compute(&job.snap, &job.result);
  const double end_micros = clock_.ElapsedMicros();
  job.result.queue_micros = start_micros - job.enqueue_micros;
  job.result.score_micros = end_micros - start_micros;
  Account(job.result, end_micros - job.enqueue_micros);
  if (job.result.status.ok()) {
    // Shadow re-score off the client path: the primary's latency is already
    // recorded, and the shadow logit only ever reaches the metrics shadow
    // block.
    shard.ShadowScore(job.snap, job.result.logit);
  }
}

void InferenceEngine::Account(const ScoreResult& result, double e2e_micros) {
  metrics_.score_latency.Record(result.score_micros);
  metrics_.e2e_latency.Record(e2e_micros);
  if (result.status.ok()) {
    metrics_.scores_completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.scores_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t InferenceEngine::ProcessPending(std::vector<ScoreResult>* results) {
  TPGNN_CHECK(results != nullptr);
  ScoreQueue& q = *queue_;
  std::vector<std::unique_ptr<ScoreJob>> batch;
  std::unique_lock<std::mutex> lock(q.mu);
  const size_t take = std::min(q.pending.size(), options_.max_batch);
  if (take == 0) {
    return 0;
  }
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(q.pending.front()));
    q.pending.pop_front();
  }
  // Run every job of the batch no helper has started. Unclaimed jobs sit
  // in request order, so those up to the batch's last are at the front
  // (or belong to a concurrent collector's older batch — equally fine).
  const uint64_t last_seq = batch.back()->seq;
  while (!q.unclaimed.empty() && q.unclaimed.front()->seq <= last_seq) {
    ScoreJob* job = q.unclaimed.front();
    q.unclaimed.pop_front();
    lock.unlock();
    RunJob(*job);
    lock.lock();
    job->done = true;
    q.done_cv.notify_all();
  }
  q.done_cv.wait(lock, [&batch] {
    return std::all_of(batch.begin(), batch.end(),
                       [](const auto& job) { return job->done; });
  });
  lock.unlock();
  for (std::unique_ptr<ScoreJob>& job : batch) {
    results->push_back(std::move(job->result));
  }
  return batch.size();
}

void InferenceEngine::Flush(std::vector<ScoreResult>* results) {
  while (ProcessPending(results) > 0) {
  }
}

Status InferenceEngine::ExportSession(uint64_t session_id,
                                      SessionState* state) {
  return router_.ShardFor(session_id).ExportSession(session_id, state);
}

Status InferenceEngine::ImportSession(const SessionState& state) {
  return router_.ShardFor(state.session_id)
      .ImportSession(state, state.last_touch);
}

size_t InferenceEngine::pending_scores() const {
  std::lock_guard<std::mutex> lock(queue_->mu);
  return queue_->pending.size();
}

}  // namespace tpgnn::serve
