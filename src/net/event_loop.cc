#include "net/event_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "util/failpoint.h"

namespace tpgnn::net {

Connection::Connection(UniqueFd fd, uint64_t id, Direction direction,
                       serve::Metrics* wire, const char* corrupt_failpoint)
    : fd_(std::move(fd)),
      id_(id),
      direction_(direction),
      wire_(wire),
      corrupt_failpoint_(corrupt_failpoint) {}

void Connection::Send(const Frame& frame) {
  if (dead) {
    return;
  }
  const size_t start = out_.size();
  EncodeFrame(frame, &out_);
  // Injected wire corruption: flips a header byte of the frame just encoded
  // (magic/version/reserved only, so the peer always sees a typed kDataLoss
  // rather than an aliased frame or a length stall).
  failpoint::Hit hit;
  if (corrupt_failpoint_ != nullptr &&
      TPGNN_FAILPOINT(corrupt_failpoint_, &hit)) {
    failpoint::CorruptFrameHeader(hit, out_.data() + start,
                                  out_.size() - start);
  }
  if (wire_ != nullptr) {
    wire_->frames_sent.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Connection::ShedIfBacklogged(uint64_t request_id) {
  if (backlog() <= kMaxWriteBacklogBytes) {
    return false;
  }
  Send(StatusReply(
      FrameType::kOverloaded, request_id,
      Status::Overloaded("write buffer full; collect your responses")));
  return true;
}

void Connection::Fail(const Status& status) {
  Send(StatusReply(FrameType::kError, /*request_id=*/0, status));
  draining = true;
  // Stop reading immediately: the stream past the bad frame is garbage.
  shutdown(fd_.get(), SHUT_RD);
}

Status Connection::Read(const std::function<void(const Frame&)>& on_frame) {
  uint8_t buf[64 * 1024];
  for (;;) {
    size_t received = 0;
    bool eof = false;
    Status s = RecvNonBlocking(fd_.get(), buf, sizeof(buf), &received, &eof);
    if (!s.ok() || eof) {
      dead = true;
      break;
    }
    if (received == 0) {
      break;  // Drained the socket.
    }
    if (wire_ != nullptr) {
      wire_->bytes_received.fetch_add(received, std::memory_order_relaxed);
    }
    in_.insert(in_.end(), buf, buf + received);
  }

  Status result;
  size_t offset = 0;
  while (direction_ == Direction::kOutbound || (!dead && !draining)) {
    Frame frame;
    size_t consumed = 0;
    result = DecodeFrame(in_.data() + offset, in_.size() - offset,
                         kDefaultMaxPayloadBytes, &frame, &consumed);
    if (!result.ok() || consumed == 0) {
      break;  // Corrupt, or a partial frame waiting for more bytes.
    }
    offset += consumed;
    if (wire_ != nullptr) {
      wire_->frames_received.fetch_add(1, std::memory_order_relaxed);
    }
    on_frame(frame);
  }
  if (offset > 0) {
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(offset));
  } else if (in_.capacity() > kCompactThreshold && in_.empty()) {
    in_.shrink_to_fit();
  }
  return result;
}

void Connection::Flush() {
  while (backlog() > 0) {
    size_t sent = 0;
    Status s = SendNonBlocking(fd_.get(), out_.data() + out_sent_, backlog(),
                               &sent);
    if (!s.ok()) {
      dead = true;
      return;
    }
    if (sent == 0) {
      break;  // Kernel buffer full; POLLOUT will retry.
    }
    out_sent_ += sent;
    if (wire_ != nullptr) {
      wire_->bytes_sent.fetch_add(sent, std::memory_order_relaxed);
    }
  }
  if (out_sent_ == out_.size()) {
    out_.clear();
    out_sent_ = 0;
  } else if (out_sent_ > kCompactThreshold) {
    out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(out_sent_));
    out_sent_ = 0;
  }
}

EventLoop::EventLoop(serve::Metrics* wire, const char* corrupt_failpoint,
                     Hooks hooks)
    : wire_(wire),
      corrupt_failpoint_(corrupt_failpoint),
      hooks_(std::move(hooks)) {}

Status EventLoop::Listen(const std::string& bind_address, int port) {
  if (Status s =
          ListenTcp(bind_address, port, kListenBacklog, &listen_fd_, &port_);
      !s.ok()) {
    return s;
  }
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::Internal("pipe failed for shutdown wakeup");
  }
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  SetNonBlocking(wake_read_.get(), true);
  SetNonBlocking(wake_write_.get(), true);
  return Status::Ok();
}

void EventLoop::Wake() {
  if (wake_write_.valid()) {
    const uint8_t byte = 1;
    // Best-effort; a full pipe means a wakeup is already pending.
    [[maybe_unused]] ssize_t rc = write(wake_write_.get(), &byte, 1);
  }
}

void EventLoop::Watch(Connection* conn, std::function<void()> on_readable) {
  watched_.emplace(next_watch_id_++, Watched{conn, std::move(on_readable)});
}

void EventLoop::Unwatch(const Connection* conn) {
  std::erase_if(watched_, [conn](const auto& entry) {
    return entry.second.conn == conn;
  });
}

void EventLoop::Poll(int timeout_ms) {
  // Poll entries: the listen socket and wake pipe, then inbound
  // connections by id, then watched outbound connections by watch id.
  enum class Kind : uint8_t { kListen, kWake, kInbound, kOutbound };
  struct Entry {
    Kind kind;
    uint64_t id;
  };
  std::vector<pollfd> fds;
  std::vector<Entry> entries;
  if (listen_fd_.valid() && !draining_ &&
      connections_.size() < kMaxConnections) {
    fds.push_back({listen_fd_.get(), POLLIN, 0});
    entries.push_back({Kind::kListen, 0});
  }
  if (wake_read_.valid()) {
    fds.push_back({wake_read_.get(), POLLIN, 0});
    entries.push_back({Kind::kWake, 0});
  }
  for (const auto& [id, conn] : connections_) {
    short events = 0;
    if (!draining_ && !conn->draining) {
      events |= POLLIN;
    }
    if (conn->backlog() > 0) {
      events |= POLLOUT;
    }
    if (events != 0) {
      fds.push_back({conn->fd(), events, 0});
      entries.push_back({Kind::kInbound, id});
    }
  }
  for (const auto& [watch_id, watched] : watched_) {
    if (watched.conn->dead) {
      continue;
    }
    const short events =
        watched.conn->backlog() > 0 ? POLLIN | POLLOUT : POLLIN;
    fds.push_back({watched.conn->fd(), events, 0});
    entries.push_back({Kind::kOutbound, watch_id});
  }

  poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

  for (size_t i = 0; i < fds.size(); ++i) {
    const short revents = fds[i].revents;
    if (revents == 0) {
      continue;
    }
    const bool broken = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    switch (entries[i].kind) {
      case Kind::kWake: {
        uint8_t sink[64];
        while (read(wake_read_.get(), sink, sizeof(sink)) > 0) {
        }
        break;
      }
      case Kind::kListen:
        AcceptPending();
        break;
      case Kind::kInbound: {
        auto it = connections_.find(entries[i].id);
        if (it == connections_.end()) {
          break;
        }
        Connection& conn = *it->second;
        if ((revents & POLLOUT) != 0 && !conn.dead) {
          conn.Flush();
        }
        if ((revents & POLLIN) != 0 && !conn.dead && !conn.draining) {
          Status s = conn.Read(
              [&](const Frame& frame) { hooks_.on_frame(conn, frame); });
          if (!s.ok()) {
            wire_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
            conn.Fail(s);
          }
        }
        if (broken && !conn.dead && conn.backlog() == 0) {
          conn.dead = true;
        }
        break;
      }
      case Kind::kOutbound: {
        // A frame handler earlier in this round may have unwatched it (a
        // router failover tears the link down).
        auto it = watched_.find(entries[i].id);
        if (it == watched_.end() || it->second.conn->dead) {
          break;
        }
        Connection& conn = *it->second.conn;
        if ((revents & POLLOUT) != 0) {
          conn.Flush();
        }
        if ((revents & POLLIN) != 0 && !conn.dead) {
          it->second.on_readable();
        }
        if (broken) {
          conn.dead = true;
        }
        break;
      }
    }
  }
}

void EventLoop::Reap() {
  for (auto& [id, conn] : connections_) {
    if (!conn->dead && conn->backlog() > 0) {
      conn->Flush();
    }
    if (conn->draining && !conn->dead && conn->backlog() == 0) {
      conn->dead = true;
    }
  }
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->second->dead) {
      ++it;
      continue;
    }
    hooks_.on_close(*it->second);
    wire_->connections_closed.fetch_add(1, std::memory_order_relaxed);
    it = connections_.erase(it);
  }
}

void EventLoop::BeginDrain() {
  draining_ = true;
  listen_fd_.reset();
  drain_deadline_micros_ = clock_.ElapsedMicros() + kDrainTimeoutMs * 1000.0;
}

void EventLoop::GoodbyeAll() {
  Frame goodbye;
  goodbye.type = FrameType::kGoodbye;
  for (auto& [id, conn] : connections_) {
    if (!conn->dead) {
      conn->Send(goodbye);
      conn->draining = true;
    }
  }
}

void EventLoop::Stop() {
  wire_->connections_closed.fetch_add(connections_.size(),
                                      std::memory_order_relaxed);
  connections_.clear();
  watched_.clear();
  listen_fd_.reset();
  stopped_ = true;
}

Connection* EventLoop::Find(uint64_t id) {
  auto it = connections_.find(id);
  return it == connections_.end() || it->second->dead ? nullptr
                                                       : it->second.get();
}

void EventLoop::AcceptPending() {
  while (connections_.size() < kMaxConnections) {
    UniqueFd fd;
    if (Status s = AcceptTcp(listen_fd_.get(), &fd); !s.ok() || !fd.valid()) {
      return;  // Failed, or nothing pending.
    }
    const uint64_t id = next_connection_id_++;
    connections_.emplace(
        id, std::make_unique<Connection>(std::move(fd), id,
                                         Connection::Direction::kInbound,
                                         wire_, corrupt_failpoint_));
    wire_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace tpgnn::net
