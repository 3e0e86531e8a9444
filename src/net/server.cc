#include "net/server.h"

#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace tpgnn::net {

namespace {

Status InflightCapStatus() {
  return Status::Overloaded("connection at its in-flight score cap");
}

// Acks an admin request (session import, model load or activate): one
// event applied on success, the typed error otherwise.
void SendAdminAck(Connection& conn, uint64_t request_id,
                  const Status& status) {
  conn.Send(StatusReply(FrameType::kIngestAck, request_id, status,
                        status.ok() ? 1 : 0));
}

}  // namespace

Server::Server(serve::InferenceEngine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      loop_(&engine->mutable_metrics(), "server.corrupt_frame",
            {.on_frame =
                 [this](Connection& conn, const Frame& frame) {
                   HandleFrame(conn, frame);
                 },
             .on_close =
                 [this](Connection& conn) {
                   inflight_scores_.erase(conn.id());
                 }}) {}

Server::~Server() = default;

Status Server::Start() {
  return loop_.Listen(options_.bind_address, options_.port);
}

void Server::Run() {
  while (PollOnce(kPollTimeoutMs)) {
  }
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  loop_.Wake();
}

void Server::Abort() {
  abort_requested_.store(true, std::memory_order_release);
  loop_.Wake();
}

bool Server::PollOnce(int timeout_ms) {
  if (loop_.stopped()) {
    return false;
  }
  if (abort_requested_.load(std::memory_order_acquire)) {
    loop_.Stop();
    num_connections_.store(0, std::memory_order_relaxed);
    inflight_scores_.clear();
    score_owner_.clear();
    return false;
  }
  if (shutdown_requested_.load(std::memory_order_acquire) &&
      !loop_.draining()) {
    BeginShutdown();
  }
  loop_.Poll(timeout_ms);
  // A shutdown frame handled above may have started the drain.
  if (shutdown_requested_.load(std::memory_order_acquire) &&
      !loop_.draining()) {
    BeginShutdown();
  }
  // End of iteration: one engine collection (the oldest results of what
  // the iteration enqueued, computed meanwhile on the pool), then
  // opportunistic writes. Results still owed
  // to a closed connection are dropped in RouteResults.
  PumpEngine();
  loop_.Reap();
  if (loop_.draining() &&
      (loop_.connections().empty() || loop_.drain_expired())) {
    loop_.Stop();
  }
  num_connections_.store(loop_.connections().size(),
                         std::memory_order_relaxed);
  return !loop_.stopped();
}

void Server::HandleFrame(Connection& conn, const Frame& frame) {
  // Injected dispatch stall: stretches the window between decode and reply so
  // client timeouts / interleaving races get exercised. Delay-only by design;
  // errors are injected at the protocol edges, not mid-dispatch.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("server.dispatch", &hit)) {
    failpoint::ApplyDelay(hit);
  }
  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      conn.Send(pong);
      break;
    }
    case FrameType::kMetricsRequest: {
      Frame response;
      response.type = FrameType::kMetricsResponse;
      // Fold current memory high-water readings into the gauges so remote
      // scrapers (router aggregation, the soak harness) see them without a
      // separate RPC.
      engine_->mutable_metrics().UpdateResourcePeaks();
      response.text = engine_->metrics().ToJson();
      conn.Send(response);
      break;
    }
    case FrameType::kIngestBatch:
      HandleIngestBatch(conn, frame);
      break;
    case FrameType::kScore: {
      if (conn.ShedIfBacklogged(frame.request_id)) {
        break;
      }
      size_t& inflight = inflight_scores_[conn.id()];
      if (inflight >= options_.max_inflight_scores) {
        conn.Send(StatusReply(FrameType::kOverloaded, frame.request_id,
                              InflightCapStatus()));
        break;
      }
      serve::Event event;
      event.kind = serve::Event::Kind::kScore;
      event.session_id = frame.session_id;
      event.label = frame.label;
      Status st = IngestWithRetry(event);
      if (st.code() == StatusCode::kOverloaded) {
        conn.Send(StatusReply(FrameType::kOverloaded, frame.request_id, st));
      } else if (!st.ok()) {
        // A typed failure still produces exactly one SCORE_RESULT.
        Frame reply;
        reply.type = FrameType::kScoreResult;
        reply.request_id = frame.request_id;
        serve::ScoreResult result;
        result.session_id = frame.session_id;
        result.status = st;
        result.label = frame.label;
        reply.results.push_back(std::move(result));
        conn.Send(reply);
      } else {
        score_owner_.push_back(conn.id());
        ++inflight;
      }
      break;
    }
    case FrameType::kShutdown:
      RequestShutdown();
      break;
    case FrameType::kSessionExport: {
      // Migration handover: snapshot the session and, on success, drop it —
      // the requesting router installs the snapshot elsewhere, and two live
      // copies would double-apply any replayed event. Scores already queued
      // here still complete: each holds the snapshot taken at its enqueue.
      Frame reply;
      reply.type = FrameType::kSessionState;
      reply.request_id = frame.request_id;
      serve::SessionState state;
      Status st = engine_->ExportSession(frame.session_id, &state);
      reply.status_code = st.code();
      if (st.ok()) {
        serve::SerializeSessionState(state, &reply.blob);
        serve::Event end;
        end.kind = serve::Event::Kind::kEnd;
        end.session_id = frame.session_id;
        engine_->Ingest(end);
      } else {
        reply.text = st.message();
      }
      conn.Send(reply);
      break;
    }
    case FrameType::kSessionImport: {
      serve::SessionState state;
      Status st = serve::ParseSessionState(frame.blob.data(),
                                           frame.blob.size(), &state);
      if (st.ok()) {
        st = engine_->ImportSession(state);
      }
      SendAdminAck(conn, frame.request_id, st);
      break;
    }
    case FrameType::kModelLoad:
      SendAdminAck(conn, frame.request_id,
                   engine_->LoadModelVersion(frame.name, frame.text));
      break;
    case FrameType::kModelActivate: {
      model::ModelRegistry& registry = engine_->registry();
      Status st;
      switch (static_cast<ModelAdminMode>(frame.mode)) {
        case ModelAdminMode::kActivateDrain:
          st = engine_->ActivateModel(frame.name, model::SwapPolicy::kDrain);
          break;
        case ModelAdminMode::kActivateRebase:
          st = engine_->ActivateModel(frame.name,
                                      model::SwapPolicy::kImmediateRebase);
          break;
        case ModelAdminMode::kSetCandidate:
          st = registry.SetCandidate(frame.name, frame.fraction);
          break;
        case ModelAdminMode::kSetShadow:
          st = registry.SetShadow(frame.name);
          break;
        case ModelAdminMode::kClearCandidate:
          st = registry.ClearCandidate();
          break;
        case ModelAdminMode::kClearShadow:
          st = registry.ClearShadow();
          break;
      }
      SendAdminAck(conn, frame.request_id, st);
      break;
    }
    case FrameType::kModelStatus: {
      Frame reply;
      reply.type = FrameType::kModelInfo;
      reply.request_id = frame.request_id;
      reply.status_code = StatusCode::kOk;
      reply.text = engine_->registry().StatusJson();
      conn.Send(reply);
      break;
    }
    case FrameType::kGoodbye:
      // Client-initiated close: flush what we owe, then close.
      conn.draining = true;
      break;
    default: {
      engine_->mutable_metrics().protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      conn.Fail(Status::InvalidArgument(
          std::string("unexpected frame type from client: ") +
          FrameTypeName(frame.type)));
      break;
    }
  }
}

void Server::HandleIngestBatch(Connection& conn, const Frame& frame) {
  if (conn.ShedIfBacklogged(frame.request_id)) {
    return;
  }
  size_t& inflight = inflight_scores_[conn.id()];
  uint64_t applied = 0;
  for (const serve::Event& event : frame.events) {
    if (event.kind == serve::Event::Kind::kScore &&
        inflight >= options_.max_inflight_scores) {
      conn.Send(StatusReply(FrameType::kOverloaded, frame.request_id,
                            InflightCapStatus(), applied));
      return;
    }
    Status st = IngestWithRetry(event);
    if (!st.ok()) {
      // The batch stops at the first shed or bad event; the reply tells the
      // client exactly where.
      conn.Send(StatusReply(st.code() == StatusCode::kOverloaded
                                ? FrameType::kOverloaded
                                : FrameType::kIngestAck,
                            frame.request_id, st, applied));
      return;
    }
    if (event.kind == serve::Event::Kind::kScore) {
      score_owner_.push_back(conn.id());
      ++inflight;
    }
    ++applied;
  }
  conn.Send(
      StatusReply(FrameType::kIngestAck, frame.request_id, Status(), applied));
}

Status Server::IngestWithRetry(const serve::Event& event) {
  Status st = engine_->Ingest(event);
  if (st.code() == StatusCode::kOverloaded) {
    // Relieve the bounded queue with one full drain, then retry once; if
    // the engine is still overloaded the client must shed load.
    PumpEngine();
    st = engine_->Ingest(event);
  }
  return st;
}

void Server::PumpEngine() {
  std::vector<serve::ScoreResult> results;
  for (;;) {
    results.clear();
    if (engine_->ProcessPending(&results) == 0) {
      break;
    }
    RouteResults(results);
  }
}

void Server::RouteResults(const std::vector<serve::ScoreResult>& results) {
  // The engine returns results in request order — the exact order of
  // score_owner_ pushes. Group per connection, preserving order.
  std::map<uint64_t, std::vector<serve::ScoreResult>> per_connection;
  for (const serve::ScoreResult& result : results) {
    TPGNN_CHECK(!score_owner_.empty());
    const uint64_t owner = score_owner_.front();
    score_owner_.pop_front();
    per_connection[owner].push_back(result);
  }
  for (auto& [owner, owned] : per_connection) {
    Connection* conn = loop_.Find(owner);
    if (conn == nullptr) {
      continue;  // The requester is gone; its results are dropped.
    }
    inflight_scores_[owner] -= owned.size();
    Frame frame;
    frame.type = FrameType::kScoreResult;
    frame.results = std::move(owned);
    conn->Send(frame);
  }
}

void Server::BeginShutdown() {
  // Every enqueued score is flushed and delivered before any GOODBYE, so a
  // graceful shutdown never loses a SCORE_RESULT.
  PumpEngine();
  loop_.BeginDrain();
  loop_.GoodbyeAll();
}

}  // namespace tpgnn::net
