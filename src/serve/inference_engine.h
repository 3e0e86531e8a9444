#ifndef TPGNN_SERVE_INFERENCE_ENGINE_H_
#define TPGNN_SERVE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "model/registry.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/session_shard.h"
#include "util/status.h"
#include "util/stopwatch.h"

// Online inference engine: the front door of the serving subsystem.
//
//   * Ingest(event) applies Begin/Edge/End to the owning shard inline
//     (constant-time state updates). A Score takes the shard's short locked
//     step at once — SessionShard::Snapshot copies what the score reads —
//     and queues the rest as a job on a bounded queue. The score therefore
//     reflects exactly the events of its session that preceded it in the
//     stream, whatever arrives before it is computed. A full queue is
//     reported as an explicit kOverloaded Status instead of buffering
//     without bound; the caller sheds load or drains with ProcessPending
//     and retries.
//   * Jobs compute (fold, FinalizeState, extractor, classifier) without any
//     lock, on the process-wide ThreadPool while the caller keeps ingesting.
//     Workers are woken only while at least two queued jobs are unclaimed,
//     so a lone score its caller is about to collect never crosses threads;
//     with TPGNN_NUM_THREADS=1 every job runs inline in ProcessPending.
//     Constructing an engine starts no thread.
//   * ProcessPending() is the collector: it returns the oldest <= max_batch
//     results in request order, running itself every one of those jobs no
//     worker has started and waiting for the rest.
//   * Latency accounting: ingest_latency per Ingest call, queue_micros from
//     enqueue to job start, score_latency/score_micros from job start to
//     result, e2e_latency from enqueue to result (see serve/metrics.h).
//
// Model lifecycle (DESIGN.md §4.8): the engine owns a model::ModelRegistry
// and every session scores against the version handle it resolved at Begin.
// LoadModelVersion / ActivateModel are the process-local verbs behind the
// MODEL_LOAD / MODEL_ACTIVATE admin frames; registry() exposes the full
// surface (A/B candidate, shadow, retire). When a shadow version is set at
// a score's snapshot, the job re-scores the same prefix under it after the
// primary's latency is recorded — the shadow logit feeds only the metrics
// shadow block and is never part of any ScoreResult.
//
// Snapshots: LoadSnapshot reads a nn::checkpoint file into the initial
// version in place (the pre-serving bootstrap path). A version-2 file
// carries the producing TpGnnConfig as a metadata block, which is validated
// against the engine's config before any parameter is touched; a mismatch
// (e.g. different hidden_dim or extractor kind) fails with a
// FailedPrecondition naming the offending field. Version-1 files load with
// name/shape verification only. Hot swaps under live traffic go through
// LoadModelVersion + ActivateModel instead.
//
// Threading: Ingest and ProcessPending are thread-safe. Events of one
// session must be submitted in order (one producer per session); scores are
// deterministic per session given the event prefix that preceded them,
// independent of thread count and of when ProcessPending runs. Destroying
// the engine drops the jobs no worker has started and waits for the rest.

namespace tpgnn::serve {

struct EngineOptions {
  int num_shards = 4;
  // Resident-session cap across all shards (split evenly); 0 = unlimited.
  size_t max_resident_sessions = 0;
  // TTL for idle sessions in stream seconds; <= 0 disables. Swept on
  // session Begin events.
  double idle_ttl_seconds = 0.0;
  // Bounded score queue: jobs enqueued and not yet collected (backpressure);
  // must be >= 1.
  size_t max_pending_scores = 256;
  // Max score results collected per ProcessPending call.
  size_t max_batch = 64;
};

class InferenceEngine {
 public:
  InferenceEngine(const core::TpGnnConfig& config, uint64_t seed,
                  const EngineOptions& options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // Loads model parameters into the initial version from `path`, validating
  // the config metadata block first (see class comment). Pre-serving
  // bootstrap only; use LoadModelVersion/ActivateModel under live traffic.
  Status LoadSnapshot(const std::string& path);

  // Registers checkpoint `path` as inactive version `name` (MODEL_LOAD).
  Status LoadModelVersion(const std::string& name, const std::string& path);
  // Makes `name` the primary (MODEL_ACTIVATE): kDrain pins live sessions to
  // their version until they end, kImmediateRebase refolds them onto the
  // new primary at their next touch.
  Status ActivateModel(const std::string& name, model::SwapPolicy policy);

  // The initial version's model. Mutable so a caller can train it in place
  // or copy parameters in before serving starts; must not be mutated while
  // traffic is in flight.
  core::TpGnnModel& model() { return registry_.initial_model(); }
  const core::TpGnnModel& model() const {
    return const_cast<InferenceEngine*>(this)->registry_.initial_model();
  }

  model::ModelRegistry& registry() { return registry_; }
  const model::ModelRegistry& registry() const { return registry_; }

  // Applies one event. Begin/Edge/End run inline; Score snapshots its
  // session and enqueues. Returns kOverloaded when the score queue is full,
  // kNotFound for a Score of an unknown session (nothing is enqueued).
  Status Ingest(const Event& event);

  // Collects the oldest min(options.max_batch, pending) score results,
  // appending them to `*results` in request order: runs every one of those
  // jobs no pool worker has started, then waits for the rest. Returns the
  // number of results appended (0 when the queue is empty).
  size_t ProcessPending(std::vector<ScoreResult>* results);

  // Drains the queue completely.
  void Flush(std::vector<ScoreResult>* results);

  // Migration passthroughs (cluster serving, DESIGN.md §4.7): snapshot /
  // install a session on its owning shard. Import adopts the snapshot's
  // last_touch as the session's stream-time LRU stamp.
  Status ExportSession(uint64_t session_id, SessionState* state);
  Status ImportSession(const SessionState& state);

  const Metrics& metrics() const { return metrics_; }
  // For front-ends (net::Server) that account wire-level traffic into the
  // engine's metrics.
  Metrics& mutable_metrics() { return metrics_; }
  const EngineOptions& options() const { return options_; }
  size_t pending_scores() const;
  size_t resident_sessions() const { return router_.resident_sessions(); }
  SessionRouter& router() { return router_; }

 private:
  struct ScoreJob;
  struct ScoreQueue;

  // Snapshots a Score's session and queues its job (see class comment).
  Status Enqueue(const Event& event);
  // Computes one claimed job and accounts its result (then its shadow).
  void RunJob(ScoreJob& job);
  // Records a ready result into the latency histograms and counters.
  void Account(const ScoreResult& result, double e2e_micros);
  // Pool task: claims and runs unclaimed jobs, oldest first, until none is
  // left or the engine is gone.
  static void Help(const std::shared_ptr<ScoreQueue>& queue,
                   InferenceEngine* engine);

  const EngineOptions options_;
  model::ModelRegistry registry_;
  Metrics metrics_;
  SessionRouter router_;
  Stopwatch clock_;  // Monotone engine clock for latency accounting.

  // Score jobs, shared with the pool tasks that help run them: a task that
  // starts after the engine is destroyed finds the queue closed and leaves.
  const std::shared_ptr<ScoreQueue> queue_;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_INFERENCE_ENGINE_H_
