#ifndef TPGNN_NET_SERVER_H_
#define TPGNN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "serve/inference_engine.h"
#include "util/status.h"

// TCP front-end over serve::InferenceEngine: the frame handler on top of
// net::EventLoop (net/event_loop.h), which owns the sockets, buffers and
// shutdown drain.
//
// Clients pipeline frames freely; every complete frame of a poll iteration
// is dispatched into the engine, and at the end of the iteration the server
// drains the engine's score queue once, routing each ScoreResult back to
// the connection that requested it (the engine returns results in request
// order, which is exactly the order of this server's enqueues). Session
// affinity is the caller's contract inherited from the engine: all events
// of one session must arrive on one connection, in order.
//
// Backpressure has three layers, all surfaced as an OVERLOADED frame that
// tells the client how many events of its batch were applied so it can
// retry the rest:
//   * the engine's bounded score queue (kOverloaded from Ingest; the server
//     first drains one micro-batch and retries once before giving up),
//   * a per-connection in-flight score cap (max_inflight_scores),
//   * the per-connection write backlog (kMaxWriteBacklogBytes): while a
//     client is slow to read its responses, new ingest work is rejected
//     rather than buffered without bound.
//
// A malformed frame (kDataLoss / oversized) gets a typed ERROR frame and a
// drain-then-close: the stream cannot be resynchronised. Graceful shutdown
// (SHUTDOWN frame, RequestShutdown(), or SIGINT wired by the caller) stops
// accepting, flushes every pending score through the engine, delivers all
// SCORE_RESULT frames, appends a GOODBYE to each connection, and closes
// once write buffers drain (bounded by kDrainTimeoutMs).

namespace tpgnn::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 = pick an ephemeral port; see Server::port().
  // Per-connection in-flight score cap (see class comment).
  size_t max_inflight_scores = 256;
};

class Server {
 public:
  // `engine` must outlive the server; the server is its only driver while
  // serving (it calls Ingest and ProcessPending from the poll thread).
  Server(serve::InferenceEngine* engine, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens. After success port() returns the bound port.
  Status Start();
  int port() const { return loop_.port(); }

  // Runs the poll loop until a graceful shutdown completes.
  void Run();
  // One poll iteration; false once the server has fully shut down. Exposed
  // so tests can drive the loop by hand.
  bool PollOnce(int timeout_ms);

  // Thread- and signal-safe: requests a graceful shutdown and wakes the
  // poll loop.
  void RequestShutdown();

  // Hard stop, thread-safe: the next poll iteration closes the listen
  // socket and every connection immediately — no drain, no GOODBYE, owed
  // results dropped — exactly what a killed process looks like to its
  // peers. The cluster chaos harness uses this to simulate a backend
  // crash in-process (the engine object survives for post-mortem
  // inspection; a real crash would lose it too).
  void Abort();
  bool shutting_down() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  // Approximate (poll-thread-maintained) connection count.
  size_t num_connections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }

 private:
  void HandleFrame(Connection& conn, const Frame& frame);
  void HandleIngestBatch(Connection& conn, const Frame& frame);
  // Ingests one event with the drain-once-and-retry overload policy.
  Status IngestWithRetry(const serve::Event& event);
  // Collects one batch of engine results and routes them to their
  // connections.
  void PumpEngine();
  void RouteResults(const std::vector<serve::ScoreResult>& results);
  void BeginShutdown();

  serve::InferenceEngine* const engine_;
  const ServerOptions options_;
  EventLoop loop_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> abort_requested_{false};

  // Scores each connection has enqueued but not been answered for.
  std::map<uint64_t, size_t> inflight_scores_;
  // Connection id of every enqueued-but-unanswered score, in engine
  // request order.
  std::deque<uint64_t> score_owner_;
  std::atomic<size_t> num_connections_{0};
};

}  // namespace tpgnn::net

#endif  // TPGNN_NET_SERVER_H_
