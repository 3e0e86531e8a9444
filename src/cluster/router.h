#ifndef TPGNN_CLUSTER_ROUTER_H_
#define TPGNN_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/registry.h"
#include "cluster/ring.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "serve/metrics.h"
#include "util/net.h"
#include "util/status.h"
#include "util/stopwatch.h"

// The router/proxy tier of the sharded serving cluster (DESIGN.md §4.7).
//
// A Router speaks the net/protocol wire format on both sides: clients
// connect to it exactly as they would to a single serve_server, and it
// keeps one pipelined connection to each backend. Sessions are placed by
// consistent-hashing their id onto the backend ring (cluster/ring.h), so
// every event of a session lands on one backend and the per-session
// ordering contract is preserved end to end.
//
// Ingest batches are forwarded as maximal same-owner runs. A batch whose
// events all own to one backend (the common case: session-affine load)
// forwards as a single frame and pipelines freely; a batch spanning
// owners forwards its runs sequentially — each run's ack gates the next —
// so the ack the client finally sees keeps the protocol's prefix
// semantics (events_applied counts a prefix of the ORIGINAL frame).
// Score results are matched back to requesting clients by session id
// against a per-backend FIFO of outstanding score requests; like the
// single server, per-client result delivery order follows completion
// order, not request order.
//
// Failover: the registry (cluster/registry.h) probes each backend with
// PING and declares it down after consecutive misses or a broken
// connection. The router then removes it from the ring and migrates every
// session it owned to the session's new ring owner by replaying the
// session's JOURNAL — the acked Begin/Edge prefix the router retains per
// live session (never scores; an ack is the only thing that admits an
// event to the journal, so replay can neither lose nor duplicate an
// event). Unacked ingest runs and unresolved score requests that were in
// flight on the dead backend are then re-forwarded in their original
// order, which preserves exactly-once scoring: every score request
// resolves exactly once — with a result, a typed failure, or a cancelled
// slot accounted in an OVERLOADED ack.
//
// Live migration: when a backend is drained (DrainBackend) or rejoins the
// ring, sessions move with their folded state instead of a replay — the
// router quiesces the source, issues SESSION_EXPORT (the backend
// snapshots the SessionShard fold state and Ends its copy), and installs
// the snapshot on the new owner with SESSION_IMPORT. The snapshot carries
// the raw folded tensors as exact float bits, so migrated sessions score
// bit-identically to an engine that never moved them.
//
// Plumbing: the router is a frame handler on net::EventLoop
// (net/event_loop.h). Clients are the loop's inbound connections; each
// backend link is a net::Connection the router dials and the loop watches
// as an outbound connection. Only client-side traffic is counted into the
// wire metrics, so the merged METRICS payload does not count a routed
// frame twice. A client that stops reading its responses gets OVERLOADED
// for new ingest and score work once its backlog passes
// net::kMaxWriteBacklogBytes.
//
// Threading: the thread calling Run / PollOnce owns everything.
// RequestShutdown is thread-safe; DrainBackend / UndrainBackend must be
// called on the poll thread (tests drive PollOnce by hand around them).
//
// Failpoints: `router.backend_connect` (dial flap), `router.probe`
// (forced probe miss), `router.migrate` (mid-migration failure; the
// migration retries and falls back from snapshot to journal replay).

namespace tpgnn::cluster {

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; see Router::port().
  int vnodes_per_backend = 64;
  RegistryOptions registry;
};

// Poll-thread-maintained cluster counters, exposed under "cluster" in the
// merged METRICS payload. Plain integers: written only by the poll
// thread; read cross-thread only after Run() returns (the bench joins the
// router thread first).
struct ClusterCounters {
  uint64_t backend_failovers = 0;
  uint64_t sessions_migrated = 0;   // Snapshot (export/import) moves.
  uint64_t sessions_replayed = 0;   // Journal-replay moves.
  uint64_t migration_failures = 0;  // Sessions dropped after retries.
  uint64_t scores_reissued = 0;     // Orphaned scores re-sent on failover.
  uint64_t scores_failed_over = 0;  // Resolved with a typed failure.
  uint64_t probes_sent = 0;
  uint64_t probes_missed = 0;
  uint64_t backend_connects = 0;
  uint64_t backend_disconnects = 0;
  uint64_t overloads_shed = 0;  // Client frames shed with no backend up.
  uint64_t router_protocol_errors = 0;
};

class Router {
 public:
  Router(const std::vector<BackendConfig>& backends,
         const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Binds the client-facing listen socket. Backends are dialed lazily by
  // the poll loop (so a router can start before its backends).
  Status Start();
  int port() const { return loop_.port(); }

  void Run();
  // One poll iteration; false once fully shut down.
  bool PollOnce(int timeout_ms);

  // Thread- and signal-safe.
  void RequestShutdown();

  // Administrative drain: the backend leaves the ring and every session
  // it owns migrates away via snapshot; its connection stays for
  // in-flight scores. Undrain re-adds it (when healthy) and rebalances
  // sessions back. Poll-thread only.
  Status DrainBackend(const std::string& name);
  Status UndrainBackend(const std::string& name);

  // Live observability. connected_backends is safe cross-thread (the
  // bench spins on it while the router runs); the rest are poll-thread /
  // post-Run reads.
  size_t connected_backends() const {
    return connected_backends_.load(std::memory_order_relaxed);
  }
  size_t num_sessions() const { return sessions_.size(); }
  size_t num_clients() const { return loop_.connections().size(); }
  const ClusterCounters& counters() const { return counters_; }
  const BackendRegistry& registry() const { return registry_; }
  const HashRing& ring() const { return ring_; }

 private:
  // One client frame being forwarded: an INGEST_BATCH (runs of events) or
  // a standalone SCORE (one kScore pseudo-event, no ack on success).
  struct IngestTask {
    uint64_t id = 0;
    uint64_t client_id = 0;
    uint64_t client_request_id = 0;
    bool is_score_frame = false;
    std::vector<serve::Event> events;
    size_t next = 0;   // First event not yet forwarded.
    size_t acked = 0;  // Events acknowledged applied (an original-frame
                       // prefix, because runs forward sequentially).
    bool awaiting_ack = false;
  };

  // An unacknowledged request outstanding on one backend connection.
  struct PendingOp {
    enum class Kind : uint8_t { kIngest, kScore };
    Kind kind = Kind::kIngest;
    uint64_t rid = 0;  // Router-assigned wire request id.
    uint64_t task_id = 0;           // kIngest.
    std::vector<serve::Event> events;  // kIngest: the forwarded run.
    size_t run_offset = 0;  // Original-frame index of events[0].
    uint64_t client_id = 0;
    uint64_t client_request_id = 0;  // kScore: for OVERLOADED relays.
    uint64_t session_id = 0;         // kScore.
    int label = -1;                  // kScore.
  };

  // One outstanding score request on a backend, pushed at forward time
  // (results may overtake the ingest ack that admits them). Resolved by
  // the oldest-unresolved-same-session rule.
  struct ScoreRef {
    uint64_t session_id = 0;
    uint64_t client_id = 0;
    int label = -1;
    uint64_t op_rid = 0;       // Op that carried it.
    size_t index_in_run = 0;   // Position among the op's events.
  };

  struct BackendConn : net::Connection {
    BackendConn(std::string backend_name, UniqueFd fd)
        : net::Connection(std::move(fd), 0, Direction::kOutbound),
          name(std::move(backend_name)) {}
    const std::string name;
    std::deque<PendingOp> ops;
    std::deque<ScoreRef> refs;
  };

  // The router's authoritative per-session record: current owner and the
  // acked Begin/Edge journal that makes crash failover replayable.
  struct SessionInfo {
    std::string owner;
    std::vector<serve::Event> journal;
  };

  double NowSeconds() const { return clock_.ElapsedMicros() * 1e-6; }
  uint64_t NextRid() { return next_request_id_++; }

  // --- Client-side dispatch ----------------------------------------------
  void HandleClientFrame(net::Connection& conn, const net::Frame& frame);
  // Queues a forwarding task behind the client's earlier ones.
  void EnqueueTask(net::Connection& client, uint64_t request_id,
                   bool is_score_frame, std::vector<serve::Event> events);
  // Drops a closing client's queued work. Score refs it still has on
  // backends stay: their results arrive and are dropped at delivery.
  void DropClientTasks(const net::Connection& conn);
  void HandleMetricsRequest(net::Connection& conn);
  // Model lifecycle fan-out: MODEL_LOAD / MODEL_ACTIVATE roll across the
  // connected backends one at a time (each backend's ack gates the next, so
  // a failing checkpoint stops the roll with the fleet in a known state);
  // MODEL_STATUS aggregates per-backend registry snapshots.
  void HandleModelAdmin(net::Connection& conn, const net::Frame& frame);
  // Forwards ready tasks of `client` in frame order; stops at a gate (a
  // multi-run task awaiting its run ack, or an owner that is mid-failover).
  void AdvanceClient(net::Connection& client);
  enum class TaskStep { kDone, kGated, kRemoved };
  TaskStep AdvanceTask(net::Connection& client, IngestTask& task);
  // Current owner connection for an event's session; null when the owner
  // backend is not connected (ring empty or mid-failover).
  BackendConn* OwnerFor(uint64_t session_id);

  // --- Backend-side dispatch ---------------------------------------------
  // Reads and dispatches every frame a backend sent; a corrupt stream
  // kills the link.
  void ReadBackend(BackendConn& conn);
  void ProcessBackendFrame(BackendConn& conn, const net::Frame& frame);
  void HandleIngestAck(BackendConn& conn, PendingOp op,
                       const net::Frame& frame);
  void HandleScoreResults(BackendConn& conn, const net::Frame& frame);
  // Admits the acked prefix of an ingest run to the session journals.
  void JournalAppliedEvents(const BackendConn& conn, const PendingOp& op,
                            uint64_t applied);
  void CancelRefsBeyond(BackendConn& conn, uint64_t op_rid, uint64_t applied);
  void DeliverResult(uint64_t client_id, const serve::ScoreResult& result);

  // --- Membership, probes, failover, migration ---------------------------
  void MaintainBackends(double now);
  bool TryConnectBackend(BackendRegistry::Entry& entry, double now);
  // Tears down every connection flagged dead during a dispatch round.
  void FailDeadBackends();
  // Tears down a backend: ring removal, journal-replay of its sessions to
  // their new owners, re-forwarding of its in-flight ops in order.
  void FailBackend(const std::string& name);
  // One terminal outcome for a score orphaned by a failover: re-sent to
  // the session's new owner, or a typed-failure result to the client.
  void ReissueScore(const ScoreRef& ref);
  // Sends one standalone SCORE for `ref` to `owner` and tracks it there.
  void ForwardScore(BackendConn& owner, const ScoreRef& ref,
                    uint64_t client_request_id);
  // Moves every session whose ring owner differs from its current owner
  // (after a join/drain/undrain): snapshot migration when the source is
  // connected, journal replay otherwise.
  void RebalanceSessions();
  Status MigrateSessionSnapshot(uint64_t session_id, SessionInfo& info);
  Status ReplaySessionJournal(uint64_t session_id, SessionInfo& info);
  // Ends a partial replay left on `backend`, if it is still connected, so
  // a later fresh Begin of the session cannot collide with the fragment.
  void EndReplayFragment(const std::string& backend, uint64_t session_id);
  // Waits until `conn` has no outstanding ingest ops (their acks decide
  // what the journal — and therefore any snapshot — may contain).
  Status QuiesceIngest(BackendConn& conn);
  // Blocking request/reply on one backend connection; interleaved frames
  // (score results, acks of other ops) dispatch through
  // ProcessBackendFrame while waiting.
  Status SyncCall(BackendConn& conn, const net::Frame& request,
                  net::Frame* reply);
  // Pumps `conn` alone — flushing its backlog, then reading and
  // dispatching what it sends — until `done()` holds, the link dies, or
  // the synchronous-exchange deadline passes.
  Status PumpBackendUntil(BackendConn& conn,
                          const std::function<bool()>& done);

  void BeginShutdown();
  void UpdateConnectedCount();
  std::string BuildClusterJson(size_t backends_merged) const;

  const RouterOptions options_;
  BackendRegistry registry_;
  HashRing ring_;

  // Client-side wire accounting; merged into the METRICS payload.
  serve::Metrics wire_metrics_;
  net::EventLoop loop_;
  std::atomic<bool> shutdown_requested_{false};
  bool clients_goodbyed_ = false;
  Stopwatch clock_;

  uint64_t next_task_id_ = 1;
  uint64_t next_request_id_ = 1;
  // Ids of each client's unfinished tasks, in frame-arrival order.
  std::map<uint64_t, std::deque<uint64_t>> task_order_;
  std::map<std::string, std::unique_ptr<BackendConn>> backends_;
  std::map<uint64_t, IngestTask> tasks_;
  std::map<uint64_t, SessionInfo> sessions_;

  // Forwarding freeze while a migration quiesces its source: acks keep
  // flowing, but no new runs leave the router until the move completes.
  bool forwarding_frozen_ = false;

  // Synchronous-exchange bookkeeping for SyncCall.
  std::set<uint64_t> sync_waiting_;
  std::map<uint64_t, net::Frame> sync_done_;
  bool awaiting_metrics_ = false;
  bool metrics_done_ = false;
  net::Frame metrics_reply_;

  ClusterCounters counters_;
  std::atomic<size_t> connected_backends_{0};
};

}  // namespace tpgnn::cluster

#endif  // TPGNN_CLUSTER_ROUTER_H_
