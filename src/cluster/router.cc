#include "cluster/router.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace tpgnn::cluster {

namespace {

constexpr int kBackendConnectTimeoutMs = 1000;
// Deadline for synchronous backend exchanges (migration, metrics).
constexpr int kBackendSyncTimeoutMs = 5000;
// Snapshot/replay attempts per migrated session before it is dropped.
constexpr int kMigrationRetries = 3;

bool IsAckOk(const net::Frame& frame) {
  return frame.type == net::FrameType::kIngestAck &&
         frame.status_code == StatusCode::kOk;
}

}  // namespace

Router::Router(const std::vector<BackendConfig>& backends,
               const RouterOptions& options)
    : options_(options),
      registry_(options.registry),
      ring_(options.vnodes_per_backend),
      loop_(&wire_metrics_, /*corrupt_failpoint=*/nullptr,
            {.on_frame =
                 [this](net::Connection& conn, const net::Frame& frame) {
                   HandleClientFrame(conn, frame);
                 },
             .on_close =
                 [this](net::Connection& conn) { DropClientTasks(conn); }}) {
  for (const BackendConfig& backend : backends) {
    registry_.Add(backend);
  }
}

Router::~Router() = default;

Status Router::Start() {
  return loop_.Listen(options_.bind_address, options_.port);
}

void Router::Run() {
  while (PollOnce(net::kPollTimeoutMs)) {
  }
}

void Router::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  loop_.Wake();
}

bool Router::PollOnce(int timeout_ms) {
  if (loop_.stopped()) {
    return false;
  }
  if (shutdown_requested_.load(std::memory_order_acquire) &&
      !loop_.draining()) {
    BeginShutdown();
  }
  if (!loop_.draining()) {
    MaintainBackends(NowSeconds());
  }

  loop_.Poll(timeout_ms);

  if (shutdown_requested_.load(std::memory_order_acquire) &&
      !loop_.draining()) {
    BeginShutdown();
  }

  // Connections found broken during dispatch fail over now, after the
  // whole poll round's frames were consumed.
  FailDeadBackends();

  // Opportunistic write flushes.
  for (auto& [name, conn] : backends_) {
    if (!conn->dead && conn->backlog() > 0) {
      conn->Flush();
    }
  }
  FailDeadBackends();
  loop_.Reap();

  if (loop_.draining()) {
    const bool expired = loop_.drain_expired();
    if ((backends_.empty() || expired) && !clients_goodbyed_) {
      // Every backend said GOODBYE (its pending score results arrived
      // first; the server contract flushes them before the GOODBYE), so
      // nothing more is owed to any client.
      clients_goodbyed_ = true;
      loop_.GoodbyeAll();
    }
    if (clients_goodbyed_ && (loop_.connections().empty() || expired)) {
      loop_.Stop();
      backends_.clear();
      UpdateConnectedCount();
    }
  }
  return !loop_.stopped();
}

void Router::ReadBackend(BackendConn& conn) {
  Status s = conn.Read(
      [&](const net::Frame& frame) { ProcessBackendFrame(conn, frame); });
  if (!s.ok()) {
    counters_.router_protocol_errors++;
    conn.dead = true;
  }
}

void Router::EnqueueTask(net::Connection& client, uint64_t request_id,
                         bool is_score_frame,
                         std::vector<serve::Event> events) {
  IngestTask task;
  task.id = next_task_id_++;
  task.client_id = client.id();
  task.client_request_id = request_id;
  task.is_score_frame = is_score_frame;
  task.events = std::move(events);
  task_order_[client.id()].push_back(task.id);
  tasks_.emplace(task.id, std::move(task));
  AdvanceClient(client);
}

void Router::DropClientTasks(const net::Connection& conn) {
  auto it = task_order_.find(conn.id());
  if (it == task_order_.end()) {
    return;
  }
  for (uint64_t tid : it->second) {
    tasks_.erase(tid);
  }
  task_order_.erase(it);
}

// --- Client-side dispatch --------------------------------------------------

void Router::HandleClientFrame(net::Connection& conn,
                               const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kPing: {
      net::Frame pong;
      pong.type = net::FrameType::kPong;
      pong.request_id = frame.request_id;
      conn.Send(pong);
      break;
    }
    case net::FrameType::kMetricsRequest:
      HandleMetricsRequest(conn);
      break;
    case net::FrameType::kIngestBatch: {
      if (conn.ShedIfBacklogged(frame.request_id)) {
        break;
      }
      if (frame.events.empty()) {
        conn.Send(net::StatusReply(net::FrameType::kIngestAck,
                                   frame.request_id, Status()));
        break;
      }
      EnqueueTask(conn, frame.request_id, /*is_score_frame=*/false,
                  frame.events);
      break;
    }
    case net::FrameType::kScore: {
      // A standalone score joins the same per-client forwarding queue as
      // ingest batches: it must not overtake events the client sent first.
      if (conn.ShedIfBacklogged(frame.request_id)) {
        break;
      }
      serve::Event event;
      event.kind = serve::Event::Kind::kScore;
      event.session_id = frame.session_id;
      event.label = frame.label;
      EnqueueTask(conn, frame.request_id, /*is_score_frame=*/true, {event});
      break;
    }
    case net::FrameType::kModelLoad:
    case net::FrameType::kModelActivate:
    case net::FrameType::kModelStatus:
      HandleModelAdmin(conn, frame);
      break;
    case net::FrameType::kShutdown:
      RequestShutdown();
      break;
    case net::FrameType::kGoodbye:
      conn.draining = true;
      break;
    default: {
      wire_metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn.Fail(Status::InvalidArgument(
          std::string("unexpected frame type from client: ") +
          net::FrameTypeName(frame.type)));
      break;
    }
  }
}

Router::BackendConn* Router::OwnerFor(uint64_t session_id) {
  const std::string* name = nullptr;
  auto sit = sessions_.find(session_id);
  if (sit != sessions_.end()) {
    name = &sit->second.owner;
  } else {
    name = ring_.OwnerOf(session_id);
  }
  if (name == nullptr) {
    return nullptr;
  }
  auto bit = backends_.find(*name);
  if (bit == backends_.end() || bit->second->dead) {
    return nullptr;
  }
  return bit->second.get();
}

void Router::AdvanceClient(net::Connection& client) {
  if (forwarding_frozen_ || loop_.draining() || client.dead) {
    return;
  }
  std::deque<uint64_t>& order = task_order_[client.id()];
  size_t idx = 0;
  while (idx < order.size()) {
    auto it = tasks_.find(order[idx]);
    if (it == tasks_.end()) {
      // Completed (or dropped) earlier; lazily compact the queue.
      order.erase(order.begin() + static_cast<ptrdiff_t>(idx));
      continue;
    }
    IngestTask& task = it->second;
    if (task.next >= task.events.size()) {
      ++idx;  // Fully forwarded; pipelining past it is safe.
      continue;
    }
    const TaskStep step = AdvanceTask(client, task);
    if (step == TaskStep::kGated) {
      return;  // Later tasks must not overtake an unforwarded prefix.
    }
    if (step == TaskStep::kRemoved) {
      continue;  // The stale id is reaped on the next look.
    }
    ++idx;
  }
}

Router::TaskStep Router::AdvanceTask(net::Connection& client,
                                     IngestTask& task) {
  while (task.next < task.events.size()) {
    if (task.awaiting_ack) {
      return TaskStep::kGated;  // Mid-multi-run: the run ack gates the rest.
    }
    const serve::Event& head = task.events[task.next];
    BackendConn* owner = OwnerFor(head.session_id);
    if (owner == nullptr) {
      if (ring_.num_backends() > 0 ||
          sessions_.find(head.session_id) != sessions_.end()) {
        // Owner known but not currently connected (mid-failover window).
        return TaskStep::kGated;
      }
      // No backend anywhere: shed with the standard retryable reply.
      counters_.overloads_shed++;
      client.Send(net::StatusReply(net::FrameType::kOverloaded,
                                   task.client_request_id,
                                   Status::Overloaded("no backend available"),
                                   task.acked));
      tasks_.erase(task.id);
      return TaskStep::kRemoved;
    }
    if (task.is_score_frame) {
      ForwardScore(*owner, {head.session_id, client.id(), head.label},
                   task.client_request_id);
      tasks_.erase(task.id);
      return TaskStep::kRemoved;
    }
    // Maximal same-owner run starting at task.next.
    size_t run_end = task.next + 1;
    while (run_end < task.events.size() &&
           OwnerFor(task.events[run_end].session_id) == owner) {
      ++run_end;
    }
    PendingOp op;
    op.kind = PendingOp::Kind::kIngest;
    op.rid = NextRid();
    op.task_id = task.id;
    op.client_id = client.id();
    op.run_offset = task.next;
    op.events.assign(task.events.begin() + static_cast<ptrdiff_t>(task.next),
                     task.events.begin() + static_cast<ptrdiff_t>(run_end));
    net::Frame fwd;
    fwd.type = net::FrameType::kIngestBatch;
    fwd.request_id = op.rid;
    fwd.events = op.events;
    // Refs go in at forward time: a result may overtake the run's ack
    // (the backend drains its engine mid-dispatch under overload).
    for (size_t i = 0; i < op.events.size(); ++i) {
      const serve::Event& event = op.events[i];
      if (event.kind == serve::Event::Kind::kScore) {
        owner->refs.push_back(
            {event.session_id, client.id(), event.label, op.rid, i});
      }
    }
    owner->ops.push_back(std::move(op));
    owner->Send(fwd);
    task.next = run_end;
    task.awaiting_ack = true;
  }
  return TaskStep::kDone;
}

// --- Backend-side dispatch -------------------------------------------------

void Router::ProcessBackendFrame(BackendConn& conn, const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kPong: {
      if (auto* entry = registry_.Find(conn.name)) {
        registry_.OnPong(*entry, frame.request_id, NowSeconds());
      }
      break;
    }
    case net::FrameType::kIngestAck:
    case net::FrameType::kOverloaded: {
      if (sync_waiting_.count(frame.request_id) > 0) {
        sync_done_[frame.request_id] = frame;
        break;
      }
      auto oit = std::find_if(
          conn.ops.begin(), conn.ops.end(),
          [&](const PendingOp& op) { return op.rid == frame.request_id; });
      if (oit == conn.ops.end()) {
        counters_.router_protocol_errors++;
        break;
      }
      PendingOp op = std::move(*oit);
      conn.ops.erase(oit);
      if (op.kind == PendingOp::Kind::kScore) {
        // The backend shed (or typed-failed) a standalone score before
        // enqueueing it; its ref resolves here, not with a result.
        CancelRefsBeyond(conn, op.rid, 0);
        if (op.client_request_id != 0) {
          if (net::Connection* client = loop_.Find(op.client_id)) {
            net::Frame reply = frame;
            reply.request_id = op.client_request_id;
            client->Send(reply);
          }
        } else {
          // Internal reissue: exactly-once still demands one terminal
          // outcome for the original request.
          serve::ScoreResult result;
          result.session_id = op.session_id;
          result.status = Status(frame.status_code == StatusCode::kOk
                                     ? StatusCode::kInternal
                                     : frame.status_code,
                                 frame.text.empty()
                                     ? "score shed during failover reissue"
                                     : frame.text);
          result.label = op.label;
          counters_.scores_failed_over++;
          DeliverResult(op.client_id, result);
        }
      } else {
        HandleIngestAck(conn, std::move(op), frame);
      }
      break;
    }
    case net::FrameType::kScoreResult:
      HandleScoreResults(conn, frame);
      break;
    case net::FrameType::kSessionState:
    case net::FrameType::kModelInfo: {
      if (sync_waiting_.count(frame.request_id) > 0) {
        sync_done_[frame.request_id] = frame;
      } else {
        counters_.router_protocol_errors++;
      }
      break;
    }
    case net::FrameType::kMetricsResponse: {
      if (awaiting_metrics_) {
        metrics_reply_ = frame;
        metrics_done_ = true;
      }
      break;
    }
    case net::FrameType::kGoodbye:
      // Graceful close from the backend; outside a router drain this is
      // indistinguishable from a crash for routing purposes.
      conn.dead = true;
      break;
    case net::FrameType::kError:
    default:
      counters_.router_protocol_errors++;
      conn.dead = true;
      break;
  }
}

void Router::HandleIngestAck(BackendConn& conn, PendingOp op,
                             const net::Frame& frame) {
  const uint64_t applied =
      std::min<uint64_t>(frame.events_applied, op.events.size());
  JournalAppliedEvents(conn, op, applied);
  const bool ok = IsAckOk(frame);
  if (!ok) {
    // Events past the failure point never reached the engine; their
    // scores were never enqueued and must not wait for results.
    CancelRefsBeyond(conn, op.rid, applied);
  }
  auto it = tasks_.find(op.task_id);
  if (it == tasks_.end()) {
    return;  // Client left; the journal update above was all that mattered.
  }
  IngestTask& task = it->second;
  task.awaiting_ack = false;
  net::Connection* client = loop_.Find(task.client_id);
  if (!ok) {
    if (client != nullptr) {
      // Relay in original-frame coordinates: the backend counted within
      // its run, the client thinks in its own batch.
      client->Send(net::StatusReply(frame.type, task.client_request_id,
                                    Status(frame.status_code, frame.text),
                                    task.acked + applied));
    }
    tasks_.erase(it);
  } else {
    task.acked += applied;
    if (task.acked >= task.events.size()) {
      if (client != nullptr) {
        client->Send(net::StatusReply(net::FrameType::kIngestAck,
                                      task.client_request_id, Status(),
                                      task.acked));
      }
      tasks_.erase(it);
    }
  }
  if (client != nullptr) {
    AdvanceClient(*client);
  }
}

void Router::JournalAppliedEvents(const BackendConn& conn, const PendingOp& op,
                                  uint64_t applied) {
  for (uint64_t i = 0; i < applied; ++i) {
    const serve::Event& event = op.events[i];
    switch (event.kind) {
      case serve::Event::Kind::kBegin: {
        SessionInfo info;
        info.owner = conn.name;
        info.journal.push_back(event);
        sessions_[event.session_id] = std::move(info);
        break;
      }
      case serve::Event::Kind::kEdge: {
        auto it = sessions_.find(event.session_id);
        if (it != sessions_.end() && it->second.owner == conn.name) {
          it->second.journal.push_back(event);
        }
        break;
      }
      case serve::Event::Kind::kEnd:
        sessions_.erase(event.session_id);
        break;
      case serve::Event::Kind::kScore:
        break;
    }
  }
}

void Router::CancelRefsBeyond(BackendConn& conn, uint64_t op_rid,
                              uint64_t applied) {
  for (auto it = conn.refs.begin(); it != conn.refs.end();) {
    if (it->op_rid == op_rid && it->index_in_run >= applied) {
      it = conn.refs.erase(it);
    } else {
      ++it;
    }
  }
}

void Router::HandleScoreResults(BackendConn& conn, const net::Frame& frame) {
  std::map<uint64_t, net::Frame> per_client;
  for (const serve::ScoreResult& result : frame.results) {
    // Oldest unresolved request of the same session. Results of one
    // session come back in request order for everything the engine
    // accepted; only immediate typed failures can overtake, and those
    // carry the failure to whichever outstanding request matches first —
    // same multiset per session, exactly-once per ref either way.
    auto rit = std::find_if(conn.refs.begin(), conn.refs.end(),
                            [&](const ScoreRef& ref) {
                              return ref.session_id == result.session_id;
                            });
    if (rit == conn.refs.end()) {
      counters_.router_protocol_errors++;
      continue;
    }
    const ScoreRef ref = *rit;
    conn.refs.erase(rit);
    // A standalone-score op completes with its result.
    auto oit = std::find_if(
        conn.ops.begin(), conn.ops.end(),
        [&](const PendingOp& op) { return op.rid == ref.op_rid; });
    if (oit != conn.ops.end() && oit->kind == PendingOp::Kind::kScore) {
      conn.ops.erase(oit);
    }
    if (loop_.Find(ref.client_id) == nullptr) {
      continue;  // Requester is gone; the result is dropped.
    }
    net::Frame& out = per_client[ref.client_id];
    out.type = net::FrameType::kScoreResult;
    out.results.push_back(result);
  }
  for (auto& [client_id, out] : per_client) {
    if (net::Connection* client = loop_.Find(client_id)) {
      client->Send(out);
    }
  }
}

void Router::DeliverResult(uint64_t client_id,
                           const serve::ScoreResult& result) {
  net::Connection* client = loop_.Find(client_id);
  if (client == nullptr) {
    return;
  }
  net::Frame frame;
  frame.type = net::FrameType::kScoreResult;
  frame.results.push_back(result);
  client->Send(frame);
}

// --- Membership, probes, failover, migration -------------------------------

void Router::MaintainBackends(double now) {
  bool joined = false;
  for (const std::string& name : registry_.names()) {
    BackendRegistry::Entry* entry = registry_.Find(name);
    if (entry == nullptr) {
      continue;
    }
    if (entry->health == BackendHealth::kUp) {
      auto it = backends_.find(name);
      if (it == backends_.end() || it->second->dead) {
        continue;  // Tear-down already pending via FailDeadBackends.
      }
      BackendConn& conn = *it->second;
      if (registry_.ProbeDue(*entry, now)) {
        const uint64_t probe_id = registry_.OnProbeSent(*entry, now);
        counters_.probes_sent++;
        net::Frame ping;
        ping.type = net::FrameType::kPing;
        ping.request_id = probe_id;
        conn.Send(ping);
      }
      double effective_now = now;
      failpoint::Hit hit;
      if (entry->last_probe_sent_at >= 0.0 &&
          TPGNN_FAILPOINT("router.probe", &hit)) {
        if (hit.kind == failpoint::Kind::kDelay) {
          failpoint::ApplyDelay(hit);
        } else {
          // Forced miss: evaluate expiry as if the deadline had passed.
          effective_now = entry->last_probe_sent_at +
                          registry_.options().probe_timeout_seconds + 1.0;
        }
      }
      bool crossed = false;
      if (registry_.ProbeExpired(*entry, effective_now, &crossed)) {
        counters_.probes_missed++;
        if (crossed) {
          conn.dead = true;
        }
      }
    } else if (registry_.ShouldConnect(*entry, now)) {
      joined = TryConnectBackend(*entry, now) || joined;
    }
  }
  FailDeadBackends();
  if (joined) {
    RebalanceSessions();
  }
}

bool Router::TryConnectBackend(BackendRegistry::Entry& entry, double now) {
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("router.backend_connect", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      registry_.OnConnectFailed(entry, now);
      return false;
    }
  }
  UniqueFd fd;
  Status s = ConnectTcp(entry.config.host, entry.config.port,
                        kBackendConnectTimeoutMs, &fd);
  if (!s.ok()) {
    registry_.OnConnectFailed(entry, now);
    return false;
  }
  SetNonBlocking(fd.get(), true);
  registry_.OnConnected(entry, now);
  auto conn = std::make_unique<BackendConn>(entry.config.name, std::move(fd));
  loop_.Watch(conn.get(),
              [this, backend = conn.get()] { ReadBackend(*backend); });
  backends_.emplace(entry.config.name, std::move(conn));
  counters_.backend_connects++;
  if (!entry.draining) {
    ring_.AddBackend(entry.config.name);
  }
  UpdateConnectedCount();
  return !entry.draining;
}

void Router::FailDeadBackends() {
  for (;;) {
    std::string dead_name;
    for (const auto& [name, conn] : backends_) {
      if (conn->dead) {
        dead_name = name;
        break;
      }
    }
    if (dead_name.empty()) {
      return;
    }
    FailBackend(dead_name);
  }
}

void Router::FailBackend(const std::string& name) {
  auto it = backends_.find(name);
  if (it == backends_.end()) {
    return;
  }
  std::unique_ptr<BackendConn> conn = std::move(it->second);
  backends_.erase(it);
  loop_.Unwatch(conn.get());
  UpdateConnectedCount();
  ring_.RemoveBackend(name);
  if (auto* entry = registry_.Find(name)) {
    registry_.OnConnectionLost(*entry, NowSeconds());
  }
  counters_.backend_disconnects++;
  if (loop_.draining()) {
    return;  // Shutdown drops in-flight work by design.
  }
  counters_.backend_failovers++;

  // 1. Rebuild every session the dead backend owned on its new ring owner
  //    from the acked-event journal. Deterministic (sorted) order.
  std::vector<uint64_t> owned;
  for (const auto& [sid, info] : sessions_) {
    if (info.owner == name) {
      owned.push_back(sid);
    }
  }
  for (uint64_t sid : owned) {
    auto sit = sessions_.find(sid);
    if (sit == sessions_.end() || sit->second.owner != name) {
      continue;  // Moved by a nested failover while we worked the list.
    }
    if (!ReplaySessionJournal(sid, sit->second).ok()) {
      counters_.migration_failures++;
      sessions_.erase(sid);
    }
  }

  // 2. Resolve the dead connection's in-flight work in its original
  //    forward order. Acks are FIFO per connection, so every ref whose op
  //    already completed is strictly older than every pending op: those
  //    orphans reissue first, then the pending ops replay in deque order.
  std::set<uint64_t> pending_rids;
  for (const PendingOp& op : conn->ops) {
    pending_rids.insert(op.rid);
  }
  for (const ScoreRef& ref : conn->refs) {
    if (pending_rids.count(ref.op_rid) > 0) {
      continue;  // Re-created below when its op re-forwards.
    }
    ReissueScore(ref);
  }
  for (const PendingOp& op : conn->ops) {
    if (op.kind == PendingOp::Kind::kScore) {
      ScoreRef ref;
      ref.session_id = op.session_id;
      ref.client_id = op.client_id;
      ref.label = op.label;
      ReissueScore(ref);
      continue;
    }
    auto tit = tasks_.find(op.task_id);
    if (tit == tasks_.end()) {
      continue;  // Client is gone.
    }
    IngestTask& task = tit->second;
    // Unacked run: rewind the task to the run start and re-forward right
    // here so ordering against the surrounding ops is preserved.
    task.next = op.run_offset;
    task.awaiting_ack = false;
    if (net::Connection* client = loop_.Find(task.client_id)) {
      AdvanceTask(*client, task);
    }
  }

  // 3. Whatever gated during the window resumes normally.
  for (const auto& [id, client] : loop_.connections()) {
    if (!client->dead) {
      AdvanceClient(*client);
    }
  }
}

void Router::ReissueScore(const ScoreRef& ref) {
  BackendConn* owner = nullptr;
  auto sit = sessions_.find(ref.session_id);
  if (sit != sessions_.end()) {
    auto bit = backends_.find(sit->second.owner);
    if (bit != backends_.end() && !bit->second->dead) {
      owner = bit->second.get();
    }
  }
  if (owner == nullptr) {
    // The session did not survive (already Ended, or its replay failed):
    // exactly-once means the request still gets its one terminal outcome.
    counters_.scores_failed_over++;
    serve::ScoreResult result;
    result.session_id = ref.session_id;
    result.status = Status::DataLoss(
        "backend lost before the score completed; session not recovered");
    result.label = ref.label;
    DeliverResult(ref.client_id, result);
    return;
  }
  counters_.scores_reissued++;
  // Internal (no client request id): overloads become typed results.
  ForwardScore(*owner, ref, /*client_request_id=*/0);
}

void Router::ForwardScore(BackendConn& owner, const ScoreRef& ref,
                          uint64_t client_request_id) {
  PendingOp op;
  op.kind = PendingOp::Kind::kScore;
  op.rid = NextRid();
  op.client_id = ref.client_id;
  op.client_request_id = client_request_id;
  op.session_id = ref.session_id;
  op.label = ref.label;
  net::Frame fwd;
  fwd.type = net::FrameType::kScore;
  fwd.request_id = op.rid;
  fwd.session_id = ref.session_id;
  fwd.label = ref.label;
  owner.refs.push_back({ref.session_id, ref.client_id, ref.label, op.rid, 0});
  owner.ops.push_back(std::move(op));
  owner.Send(fwd);
}

void Router::RebalanceSessions() {
  if (sessions_.empty() || ring_.num_backends() == 0) {
    return;
  }
  forwarding_frozen_ = true;
  std::vector<uint64_t> moving;
  for (const auto& [sid, info] : sessions_) {
    const std::string* owner = ring_.OwnerOf(sid);
    if (owner != nullptr && *owner != info.owner) {
      moving.push_back(sid);
    }
  }
  for (uint64_t sid : moving) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      continue;
    }
    const std::string* owner = ring_.OwnerOf(sid);
    if (owner == nullptr || *owner == it->second.owner) {
      continue;  // The ring moved again while earlier sessions migrated.
    }
    if (!MigrateSessionSnapshot(sid, it->second).ok()) {
      counters_.migration_failures++;
    }
  }
  forwarding_frozen_ = false;
  for (const auto& [id, client] : loop_.connections()) {
    if (!client->dead) {
      AdvanceClient(*client);
    }
  }
}

Status Router::MigrateSessionSnapshot(uint64_t session_id, SessionInfo& info) {
  auto sit = backends_.find(info.owner);
  if (sit == backends_.end() || sit->second->dead) {
    return ReplaySessionJournal(session_id, info);
  }
  BackendConn& source = *sit->second;
  const std::string source_name = source.name;
  // The snapshot may only omit what the journal doesn't know about, so
  // every outstanding ingest run must ack (or fail) before the export.
  if (Status s = QuiesceIngest(source); !s.ok()) {
    if (source.dead) {
      FailBackend(source_name);  // Replays this session from the journal.
      return sessions_.count(session_id) > 0 ? Status::Ok() : s;
    }
    return s;  // Transient; the session stays put and retries later.
  }
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("router.migrate", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      // Injected abort before the export: nothing moved; a later
      // rebalance round retries.
      return failpoint::InjectedError(StatusCode::kInternal, "router.migrate");
    }
  }
  net::Frame req;
  req.type = net::FrameType::kSessionExport;
  req.request_id = NextRid();
  req.session_id = session_id;
  net::Frame snapshot;
  if (Status s = SyncCall(source, req, &snapshot); !s.ok()) {
    if (source.dead) {
      FailBackend(source_name);
      return sessions_.count(session_id) > 0 ? Status::Ok() : s;
    }
    return s;
  }
  if (snapshot.type != net::FrameType::kSessionState) {
    counters_.router_protocol_errors++;
    return Status::DataLoss("unexpected reply to SESSION_EXPORT");
  }
  if (snapshot.status_code != StatusCode::kOk) {
    if (snapshot.status_code == StatusCode::kNotFound) {
      // Evicted under our feet (TTL/LRU); accept reality.
      sessions_.erase(session_id);
    }
    return Status(snapshot.status_code, snapshot.text);
  }
  // From here the source has Ended its copy: the blob (plus the journal,
  // as fallback) is the only live state.
  for (int attempt = 0; attempt < kMigrationRetries; ++attempt) {
    if (info.owner != source_name) {
      // A nested failover replayed this session somewhere already; the
      // snapshot is redundant.
      return Status::Ok();
    }
    const std::string* target_name = ring_.OwnerOf(session_id);
    if (target_name == nullptr) {
      break;
    }
    auto tit = backends_.find(*target_name);
    if (tit == backends_.end() || tit->second->dead) {
      FailBackend(*target_name);
      continue;
    }
    BackendConn& target = *tit->second;
    const std::string tname = target.name;
    net::Frame import;
    import.type = net::FrameType::kSessionImport;
    import.request_id = NextRid();
    import.blob = snapshot.blob;
    net::Frame ack;
    if (Status s = SyncCall(target, import, &ack); !s.ok()) {
      if (target.dead) {
        FailBackend(tname);
      }
      continue;
    }
    if (ack.status_code == StatusCode::kOk) {
      info.owner = tname;
      counters_.sessions_migrated++;
      return Status::Ok();
    }
    break;  // Typed import rejection: retrying the same blob won't help.
  }
  // The import never landed; the journal still can rebuild the session.
  return ReplaySessionJournal(session_id, info);
}

Status Router::ReplaySessionJournal(uint64_t session_id, SessionInfo& info) {
  size_t cursor = 0;
  std::string progress_owner;  // Backend holding the applied prefix.
  Status last = Status::Internal("replay not attempted");
  for (int attempt = 0; attempt < kMigrationRetries; ++attempt) {
    const std::string* target_name = ring_.OwnerOf(session_id);
    if (target_name == nullptr) {
      last = Status::Overloaded("no backend available for session replay");
      break;
    }
    auto tit = backends_.find(*target_name);
    if (tit == backends_.end() || tit->second->dead) {
      FailBackend(*target_name);
      continue;
    }
    BackendConn& target = *tit->second;
    const std::string tname = target.name;
    if (cursor > 0 && tname != progress_owner) {
      // A partial replay is stranded on a previous target.
      EndReplayFragment(progress_owner, session_id);
      cursor = 0;
    }
    failpoint::Hit hit;
    if (TPGNN_FAILPOINT("router.migrate", &hit)) {
      if (hit.kind == failpoint::Kind::kDelay) {
        failpoint::ApplyDelay(hit);
      } else {
        last =
            failpoint::InjectedError(StatusCode::kInternal, "router.migrate");
        continue;
      }
    }
    net::Frame req;
    req.type = net::FrameType::kIngestBatch;
    req.request_id = NextRid();
    req.events.assign(info.journal.begin() + static_cast<ptrdiff_t>(cursor),
                      info.journal.end());
    net::Frame ack;
    if (Status s = SyncCall(target, req, &ack); !s.ok()) {
      last = s;
      if (target.dead) {
        FailBackend(tname);
      }
      continue;
    }
    if (IsAckOk(ack)) {
      info.owner = tname;
      counters_.sessions_replayed++;
      return Status::Ok();
    }
    // Partial progress (overload / typed failure mid-journal): the applied
    // prefix is resident on this target; continue from there next round.
    cursor += std::min<size_t>(ack.events_applied,
                               info.journal.size() - cursor);
    progress_owner = tname;
    last = Status(ack.status_code == StatusCode::kOk ? StatusCode::kInternal
                                                     : ack.status_code,
                  ack.text.empty() ? "session replay rejected" : ack.text);
  }
  // Give up: clear any stranded fragment so future traffic fails typed
  // instead of resuming a half-session.
  if (cursor > 0) {
    EndReplayFragment(progress_owner, session_id);
  }
  return last;
}

void Router::EndReplayFragment(const std::string& backend,
                               uint64_t session_id) {
  auto it = backends_.find(backend);
  if (it == backends_.end() || it->second->dead) {
    return;
  }
  net::Frame cleanup;
  cleanup.type = net::FrameType::kIngestBatch;
  cleanup.request_id = NextRid();
  serve::Event end;
  end.kind = serve::Event::Kind::kEnd;
  end.session_id = session_id;
  cleanup.events.push_back(std::move(end));
  net::Frame ignored;
  (void)SyncCall(*it->second, cleanup, &ignored);
}

Status Router::QuiesceIngest(BackendConn& conn) {
  return PumpBackendUntil(conn, [&conn] {
    return std::none_of(conn.ops.begin(), conn.ops.end(),
                        [](const PendingOp& op) {
                          return op.kind == PendingOp::Kind::kIngest;
                        });
  });
}

Status Router::SyncCall(BackendConn& conn, const net::Frame& request,
                        net::Frame* reply) {
  const uint64_t rid = request.request_id;
  const bool is_metrics = request.type == net::FrameType::kMetricsRequest;
  sync_waiting_.insert(rid);
  if (is_metrics) {
    awaiting_metrics_ = true;
    metrics_done_ = false;
  }
  conn.Send(request);
  Status result = PumpBackendUntil(conn, [&] {
    return is_metrics ? metrics_done_ : sync_done_.count(rid) > 0;
  });
  if (result.ok()) {
    *reply =
        is_metrics ? std::move(metrics_reply_) : std::move(sync_done_[rid]);
  }
  sync_waiting_.erase(rid);
  sync_done_.erase(rid);
  if (is_metrics) {
    awaiting_metrics_ = false;
  }
  return result;
}

Status Router::PumpBackendUntil(BackendConn& conn,
                                const std::function<bool()>& done) {
  constexpr int kSliceMs = 20;
  const double deadline =
      clock_.ElapsedMicros() + kBackendSyncTimeoutMs * 1000.0;
  while (!done()) {
    if (conn.dead) {
      return Status::DataLoss("backend connection lost");
    }
    if (clock_.ElapsedMicros() >= deadline) {
      return Status::DeadlineExceeded("backend exchange timed out");
    }
    // Push pending writes first so the awaited request actually leaves.
    while (!conn.dead && conn.backlog() > 0) {
      conn.Flush();
      if (conn.backlog() > 0 && !WaitWritable(conn.fd(), kSliceMs).ok()) {
        break;
      }
    }
    if (conn.dead) {
      continue;
    }
    if (Status s = WaitReadable(conn.fd(), kSliceMs); s.ok()) {
      ReadBackend(conn);
    } else if (s.code() != StatusCode::kDeadlineExceeded) {
      return s;
    }
  }
  return Status::Ok();
}

// --- Administrative drain / metrics / shutdown -----------------------------

Status Router::DrainBackend(const std::string& name) {
  BackendRegistry::Entry* entry = registry_.Find(name);
  if (entry == nullptr) {
    return Status::NotFound("unknown backend: " + name);
  }
  if (entry->draining) {
    return Status::Ok();
  }
  registry_.SetDraining(*entry, true);
  ring_.RemoveBackend(name);
  RebalanceSessions();
  return Status::Ok();
}

Status Router::UndrainBackend(const std::string& name) {
  BackendRegistry::Entry* entry = registry_.Find(name);
  if (entry == nullptr) {
    return Status::NotFound("unknown backend: " + name);
  }
  if (!entry->draining) {
    return Status::Ok();
  }
  registry_.SetDraining(*entry, false);
  auto it = backends_.find(name);
  if (entry->health == BackendHealth::kUp && it != backends_.end() &&
      !it->second->dead) {
    ring_.AddBackend(name);
    RebalanceSessions();
  }
  return Status::Ok();
}

void Router::HandleMetricsRequest(net::Connection& conn) {
  serve::MetricsSnapshot merged = wire_metrics_.Snapshot();
  size_t backends_merged = 0;
  for (auto& [name, bconn] : backends_) {
    if (bconn->dead) {
      continue;
    }
    net::Frame req;
    req.type = net::FrameType::kMetricsRequest;
    req.request_id = NextRid();
    net::Frame resp;
    if (!SyncCall(*bconn, req, &resp).ok()) {
      continue;
    }
    serve::MetricsSnapshot snap;
    if (!serve::ParseMetricsJson(resp.text, &snap).ok()) {
      counters_.router_protocol_errors++;
      continue;
    }
    merged.MergeFrom(snap);
    ++backends_merged;
  }
  FailDeadBackends();
  std::string json = merged.ToJson();
  const size_t brace = json.rfind('}');
  if (brace != std::string::npos) {
    json.insert(brace, BuildClusterJson(backends_merged));
  }
  net::Frame reply;
  reply.type = net::FrameType::kMetricsResponse;
  reply.text = std::move(json);
  conn.Send(reply);
}

void Router::HandleModelAdmin(net::Connection& conn,
                              const net::Frame& frame) {
  if (frame.type == net::FrameType::kModelStatus) {
    // Aggregate registry snapshots: {"backends": {"<name>": <StatusJson>}}.
    // Backends that fail the exchange are omitted (and torn down below),
    // exactly like the metrics fan-in.
    std::string json = "{\"backends\": {";
    bool first = true;
    for (auto& [name, bconn] : backends_) {
      if (bconn->dead) {
        continue;
      }
      net::Frame req;
      req.type = net::FrameType::kModelStatus;
      req.request_id = NextRid();
      net::Frame resp;
      if (!SyncCall(*bconn, req, &resp).ok() ||
          resp.status_code != StatusCode::kOk) {
        continue;
      }
      if (!first) {
        json += ", ";
      }
      json += "\"" + name + "\": " + resp.text;
      first = false;
    }
    json += "}}";
    FailDeadBackends();
    net::Frame reply;
    reply.type = net::FrameType::kModelInfo;
    reply.request_id = frame.request_id;
    reply.status_code = StatusCode::kOk;
    reply.text = std::move(json);
    conn.Send(reply);
    return;
  }

  // MODEL_LOAD / MODEL_ACTIVATE: roll across the fleet one backend at a
  // time. Each backend's ack gates the next SyncCall, so a bad checkpoint
  // (or an injected model.load/model.activate failure) stops the roll at
  // the first failing backend instead of half-applying everywhere at once.
  net::Frame reply;
  reply.type = net::FrameType::kIngestAck;
  reply.request_id = frame.request_id;
  reply.status_code = StatusCode::kOk;
  uint64_t applied = 0;
  bool any_backend = false;
  for (auto& [name, bconn] : backends_) {
    if (bconn->dead) {
      continue;
    }
    any_backend = true;
    net::Frame req = frame;
    req.request_id = NextRid();
    net::Frame resp;
    Status st = SyncCall(*bconn, req, &resp);
    if (st.ok() && resp.status_code != StatusCode::kOk) {
      st = Status(resp.status_code, resp.text);
    }
    if (!st.ok()) {
      reply.status_code = st.code();
      reply.text = "backend " + name + ": " + st.message();
      break;
    }
    ++applied;
  }
  if (!any_backend) {
    reply.status_code = StatusCode::kFailedPrecondition;
    reply.text = "no backend connected";
  }
  reply.events_applied = applied;
  FailDeadBackends();
  conn.Send(reply);
}

std::string Router::BuildClusterJson(size_t backends_merged) const {
  auto field = [](const char* key, uint64_t value) {
    return std::string("\"") + key + "\": " + std::to_string(value);
  };
  std::string out = ", \"cluster\": {";
  out += field("backends_configured", registry_.size()) + ", ";
  out += field("backends_up", registry_.num_up()) + ", ";
  out += field("backends_merged", backends_merged) + ", ";
  out += field("resident_sessions", sessions_.size()) + ", ";
  out += field("backend_failovers", counters_.backend_failovers) + ", ";
  out += field("sessions_migrated", counters_.sessions_migrated) + ", ";
  out += field("sessions_replayed", counters_.sessions_replayed) + ", ";
  out += field("migration_failures", counters_.migration_failures) + ", ";
  out += field("scores_reissued", counters_.scores_reissued) + ", ";
  out += field("scores_failed_over", counters_.scores_failed_over) + ", ";
  out += field("probes_sent", counters_.probes_sent) + ", ";
  out += field("probes_missed", counters_.probes_missed) + ", ";
  out += field("backend_connects", counters_.backend_connects) + ", ";
  out += field("backend_disconnects", counters_.backend_disconnects) + ", ";
  out += field("overloads_shed", counters_.overloads_shed) + ", ";
  out += field("router_protocol_errors", counters_.router_protocol_errors);
  out += "}";
  return out;
}

void Router::BeginShutdown() {
  loop_.BeginDrain();
  net::Frame shutdown;
  shutdown.type = net::FrameType::kShutdown;
  for (auto& [name, conn] : backends_) {
    conn->Send(shutdown);
  }
}

void Router::UpdateConnectedCount() {
  size_t up = 0;
  for (const auto& [name, conn] : backends_) {
    if (!conn->dead) {
      ++up;
    }
  }
  connected_backends_.store(up, std::memory_order_relaxed);
}

}  // namespace tpgnn::cluster
