#ifndef TPGNN_SERVE_SESSION_SHARD_H_
#define TPGNN_SERVE_SESSION_SHARD_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/temporal_graph.h"
#include "model/registry.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/session_state.h"
#include "tensor/tensor.h"
#include "util/failpoint.h"
#include "util/status.h"

// Hash-sharded per-session incremental inference state.
//
// A SessionShard owns the sessions whose id hashes to it: for each session
// the growing TemporalGraph, the cached initial embedding X0 (the one-off
// Eq.-1 GEMM), and the raw propagated node state folded edge-by-edge
// through core::TemporalPropagation's single-edge steps. Scoring finalizes
// a copy of the folded state and runs the extractor + classifier stages of
// the model — bit-identical to TpGnnModel::ForwardLogit on the graph built
// so far (see tests/serve/parity_test.cc).
//
// Scoring is two steps (DESIGN.md §4.3). Snapshot runs under the shard
// mutex: it evaluates the shard.score / shard.rescale failpoints, picks up a
// pending rebase, decides which folded components are stale (counting
// state_refolds / state_rescales), and copies what the score reads into an
// immutable ScoreSnapshot — the folded x, the folded m when it can be
// extended, the chronological edge prefix, the max time and the pinned
// version. Compute runs without the lock on any thread: it finishes the
// folds, FinalizeState, the extractor and the classifier. The score
// therefore reflects exactly the events that preceded the Snapshot, however
// many edges arrive before Compute runs. Score() is both steps on the
// caller.
//
// Model versions (DESIGN.md §4.8): there is no process-wide model. Every
// session resolves a refcounted model::ModelVersion handle at Begin (or
// Import) and *pins* it — X0 and the folded x/m are parameter-dependent,
// so every kernel the session ever runs must come from that one version,
// or the score silently blends two models. An atomic primary swap therefore
// never touches live sessions; under SwapPolicy::kImmediateRebase (or an
// A/B assignment change) the registry bumps its assignment epoch and the
// shard re-resolves each session at its next touch, recomputing X0 and
// discarding the folds under the new version (`version_rebases`). A score
// whose pinned version and state stamp ever disagree counts
// `mixed_version_scores` — asserted zero by bench_swap and the chaos sweep.
//
// Fold validity (DESIGN.md §4.3 "Time renormalization algebra"): the SUM
// updater's X-hat fold is time-independent, so it always advances in O(1)
// per edge. Components that consume the time encoding (the SUM M-hat
// accumulator; the whole GRU state) depend, in TimeBasis::kAbsolute under
// config.normalize_time, on the session's final max timestamp, so a
// max-time change since the last fold invalidates them; the shard then
// refolds that component from its cheap base (zeros / X0) at the next score
// and counts a `state_refolds` metric. In TimeBasis::kInvariant the fold is
// carried in a max-time-invariant basis and FinalizeState applies the
// bounded correction at score time instead: every component folds eagerly
// in O(1) per edge, a score under a moved max counts `state_rescales`, and
// refolds remain only for out-of-order edges (timestamp below the session's
// max, which reorders the chronological fold) or the `shard.rescale`
// failpoint (forces the legacy replay as a cross-check). With
// normalize_time off every component folds strictly incrementally in either
// basis. The fold bookkeeping advances at the Snapshot, as if the fold had
// run there; the folded tensor itself arrives when Compute writes it back
// (see SessionShard::Session), so the counters never depend on when or
// where Compute runs.
//
// Concurrency: one mutex per shard; all public methods are thread-safe.
// Events of a single session must still be submitted in order by the
// caller — the shard applies them in arrival order, which is what makes
// per-session results deterministic regardless of shard/thread counts.
//
// Eviction: sessions are kept on an LRU list (most recently touched at the
// front). When the resident cap is hit, the least recently used session is
// dropped. A score already snapshotted reads nothing from its session, so
// End and eviction remove a session at once, queued scores or not.

namespace tpgnn::serve {

// Everything one score reads, copied out of its session under the shard
// mutex by SessionShard::Snapshot, so SessionShard::Compute can run later on
// any thread without the lock and without the session. Compute folds the
// rest of the edge prefix into `x` / `m` in place; nothing else changes.
struct ScoreSnapshot {
  uint64_t session_id = 0;
  // Non-OK when the shard.score failpoint fired: the score fails without
  // computing. A delay fire lands in `delay`, which Compute serves.
  Status status;
  failpoint::Hit delay;
  // The session's pinned version.
  model::ModelVersionPtr version;
  // Chronological order of the scored edge prefix and its max timestamp.
  std::vector<graph::TemporalEdge> order;
  double max_time = 0.0;
  // Node state with order[0, x_from) folded in, and the SUM time
  // accumulator with order[0, m_from) folded in (undefined when the model
  // has none). A nonzero generation asks Compute to write the completed
  // fold back to the session.
  tensor::Tensor x;
  tensor::Tensor m;
  int64_t x_from = 0;
  int64_t m_from = 0;
  uint64_t x_gen = 0;
  uint64_t m_gen = 0;
  // Set only while the registry has a shadow version: that version and the
  // session graph, whose raw features the shadow's own X0 needs.
  model::ModelVersionPtr shadow;
  std::optional<graph::TemporalGraph> graph;
};

struct ShardOptions {
  // Max resident sessions on this shard; 0 = unlimited. When full, Begin
  // evicts the least recently used session.
  size_t max_resident_sessions = 0;
  // Sessions idle (no event) for longer than this many stream seconds are
  // dropped by EvictIdle; <= 0 disables TTL eviction.
  double idle_ttl_seconds = 0.0;
};

class SessionShard {
 public:
  // `registry` must outlive the shard and is shared read-only across shards
  // (inference does not mutate module state). `metrics` may be null.
  SessionShard(const model::ModelRegistry& registry,
               const ShardOptions& options, Metrics* metrics);
  ~SessionShard();

  SessionShard(const SessionShard&) = delete;
  SessionShard& operator=(const SessionShard&) = delete;

  // Opens a session with its node set and features (unlisted nodes keep
  // zero features). `now` is the stream time, used for LRU/TTL bookkeeping.
  // The session resolves and pins its model version here (primary, or the
  // A/B candidate per the registry's deterministic split). Fails with
  // kInvalidArgument on a duplicate id or a feature-dim mismatch with the
  // model config; at the resident cap the least recently used session is
  // evicted to make room.
  Status BeginSession(uint64_t session_id, int64_t num_nodes,
                      int64_t feature_dim,
                      const std::vector<NodeInit>& features, double now);

  // Appends one timestamped interaction. kNotFound for unknown sessions,
  // kInvalidArgument for endpoint/time violations.
  Status AddEdge(uint64_t session_id, int64_t src, int64_t dst,
                 double edge_time, double now);

  // The locked step of a score: copies what the score of the session's
  // current edge prefix reads into `*snap` (see class comment). kNotFound
  // for unknown sessions, and then no failpoint is evaluated. A fired
  // shard.score returns OK with the injected failure in snap->status.
  Status Snapshot(uint64_t session_id, ScoreSnapshot* snap);

  // The lock-free step: scores `*snap` under its pinned version.
  // result->logit is bit-identical to that version's ForwardLogit(session
  // graph, /*training=*/false) on the snapshotted prefix. Fills
  // logit/probability/edges_scored and status; takes the shard mutex only
  // to write a completed fold back to a session that has not moved on.
  void Compute(ScoreSnapshot* snap, ScoreResult* result);

  // Snapshot then Compute on the calling thread.
  Status Score(uint64_t session_id, ScoreResult* result);

  // Re-scores a computed snapshot under the shadow version it captured — a
  // full offline replay of the same prefix, so the result is bit-identical
  // to the shadow version's ForwardLogit on that prefix. The logit never
  // leaves the process: |primary − shadow| lands in the metrics shadow
  // block. No-op kOk when the snapshot captured no shadow; an injected
  // `model.shadow_score` failure counts shadow_failures and never affects
  // the primary result. Needs no lock.
  Status ShadowScore(const ScoreSnapshot& snap, float primary_logit);

  // Closes a session and removes it at once; queued scores hold their own
  // snapshot.
  Status EndSession(uint64_t session_id);

  // Snapshots a live session for migration (SESSION_EXPORT). The snapshot
  // carries the session's pinned model-version name, so the destination
  // keeps scoring under the same parameters. Safe while scores are queued:
  // a folded component whose tensor a queued score has not written back
  // yet is refolded here, so the exported state always matches its fold
  // bookkeeping. kNotFound for unknown sessions.
  Status ExportSession(uint64_t session_id, SessionState* state) const;

  // Installs a migrated session (SESSION_IMPORT): rebuilds the graph from
  // the snapshot and adopts the folded x/m tensors bit-for-bit, so the
  // destination scores exactly as the source would have. The snapshot's
  // model-version tag resolves against this registry: an empty tag means
  // the primary, an unknown tag fails with kFailedPrecondition (the caller
  // falls back to journal replay). Fails with kInvalidArgument on a
  // duplicate id or any shape mismatch with the model config, kOverloaded
  // at the resident cap — the same contract as BeginSession.
  Status ImportSession(const SessionState& state, double now);

  // Drops sessions idle since before `now - idle_ttl_seconds`. No-op when
  // TTL is disabled.
  void EvictIdle(double now);

  size_t resident_sessions() const;

 private:
  struct Session;

  // Re-resolves the session's model version when the registry's assignment
  // epoch moved past the session's stamp (immediate-rebase activation or an
  // A/B change). A changed version recomputes X0 and discards the folds so
  // the next score replays everything under the new parameters
  // (`version_rebases`).
  void MaybeRebaseLocked(uint64_t session_id, Session& s);
  // Writes Compute's completed folds back to their session if it still
  // waits for exactly these generations.
  void WriteBack(ScoreSnapshot* snap);
  void EvictLruLocked();
  void RemoveLocked(uint64_t session_id, Session& s);
  void TouchLocked(Session& s, double now);

  const model::ModelRegistry& registry_;
  const ShardOptions options_;
  Metrics* const metrics_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  // LRU order, most recent first; Session holds its iterator.
  std::list<uint64_t> lru_;
  // Last fold generation handed out (see Session); shard-wide so a reused
  // session id never matches a write-back meant for its predecessor.
  uint64_t last_gen_ = 0;
};

// Routes session ids onto a fixed set of shards with a splitmix64 hash.
// Every event of a session lands on the same shard, so per-session state
// updates serialize behind that shard's mutex in arrival order.
class SessionRouter {
 public:
  struct Options {
    int num_shards = 4;
    // Cap across the whole router, split evenly over shards (ceil); 0 =
    // unlimited.
    size_t max_resident_sessions = 0;
    double idle_ttl_seconds = 0.0;
  };

  SessionRouter(const model::ModelRegistry& registry, const Options& options,
                Metrics* metrics);

  SessionShard& ShardFor(uint64_t session_id);
  SessionShard& shard(size_t index) { return *shards_[index]; }
  size_t num_shards() const { return shards_.size(); }
  // Sum over shards (each read under that shard's lock).
  size_t resident_sessions() const;
  // TTL sweep over every shard.
  void EvictIdle(double now);

 private:
  std::vector<std::unique_ptr<SessionShard>> shards_;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_SESSION_SHARD_H_
