#ifndef TPGNN_NET_EVENT_LOOP_H_
#define TPGNN_NET_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "serve/metrics.h"
#include "util/net.h"
#include "util/status.h"
#include "util/stopwatch.h"

// The poll loop and framed-connection layer shared by net::Server and
// cluster::Router. Both are frame handlers on top of it: the loop owns the
// listen socket, an async-signal-safe wake, accepted (inbound) connections
// with their read-decode-compact and flush paths, the ERROR-then-drain
// teardown of a corrupt stream, and the drain deadline of a graceful
// shutdown. The router's backend links are the same Connection type,
// watched as outbound connections.
//
// One thread owns a loop and every connection on it; only Wake() is safe
// from other threads and from signal handlers.

namespace tpgnn::net {

inline constexpr int kListenBacklog = 64;
inline constexpr size_t kMaxConnections = 64;
// Poll granularity of Run(); also bounds how fast a wake-free shutdown or
// probe deadline is noticed.
inline constexpr int kPollTimeoutMs = 20;
// Bound on the drain-then-close phase of a graceful shutdown.
inline constexpr int kDrainTimeoutMs = 5000;
// Responses a client has not read yet, past which new ingest or score
// work on its connection is refused with OVERLOADED rather than buffered
// without bound.
inline constexpr size_t kMaxWriteBacklogBytes = 4u << 20;
// Compact a buffer whose consumed prefix has grown past this many bytes.
inline constexpr size_t kCompactThreshold = 1u << 20;

// One non-blocking socket speaking the frame protocol: unparsed received
// bytes in, encoded frames not yet written out.
class Connection {
 public:
  // Inbound: accepted by a loop; stops decoding once the peer closes and
  // lingers after a poll error until its responses flush. Outbound: a link
  // the owner dialed; decodes everything that arrived before the peer
  // closed (those frames still count) and dies on any poll error.
  enum class Direction : uint8_t { kInbound, kOutbound };

  // `wire`, when set, receives byte and frame counts. `corrupt_failpoint`,
  // when set, names a failpoint that may corrupt the header of each frame
  // this connection sends.
  Connection(UniqueFd fd, uint64_t id, Direction direction,
             serve::Metrics* wire = nullptr,
             const char* corrupt_failpoint = nullptr);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_.get(); }
  // Encoded bytes queued but not yet on the wire.
  size_t backlog() const { return out_.size() - out_sent_; }

  // Queues one frame; a no-op once the connection is dead.
  void Send(const Frame& frame);
  // Queues an OVERLOADED reply to `request_id` (nothing applied) and
  // returns true when the backlog is past kMaxWriteBacklogBytes.
  bool ShedIfBacklogged(uint64_t request_id);
  // Typed teardown: ERROR frame, stop reading, close once flushed.
  void Fail(const Status& status);

  // Reads everything the socket holds (the peer closing or an error marks
  // the connection dead) and hands each complete frame to `on_frame`. An
  // inbound connection stops at draining or dead. A malformed frame stops
  // decoding and comes back as the error; the caller picks the teardown.
  Status Read(const std::function<void(const Frame&)>& on_frame);
  // Writes as much of the backlog as the socket takes; a write error marks
  // the connection dead.
  void Flush();

  bool draining = false;  // No more reads; close once the backlog flushes.
  bool dead = false;      // Remove at the end of the iteration.

 private:
  UniqueFd fd_;
  const uint64_t id_;
  const Direction direction_;
  serve::Metrics* const wire_;
  const char* const corrupt_failpoint_;
  std::vector<uint8_t> in_;
  std::vector<uint8_t> out_;
  size_t out_sent_ = 0;  // Prefix of out_ already on the wire.
};

class EventLoop {
 public:
  struct Hooks {
    // A complete frame arrived on an inbound connection.
    std::function<void(Connection&, const Frame&)> on_frame;
    // An inbound connection is about to be destroyed.
    std::function<void(Connection&)> on_close;
  };

  // `wire` receives the inbound accounting: bytes, frames, accepted and
  // closed connections, and protocol errors. `corrupt_failpoint` is handed
  // to every accepted connection (see Connection).
  EventLoop(serve::Metrics* wire, const char* corrupt_failpoint, Hooks hooks);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds and listens, and opens the wake pipe.
  Status Listen(const std::string& bind_address, int port);
  int port() const { return port_; }

  // Thread- and async-signal-safe: makes a blocked Poll return.
  void Wake();

  // Polls an outbound connection alongside the inbound ones until
  // Unwatch; `on_readable` reads and dispatches it. The caller keeps
  // ownership and must Unwatch before destroying it.
  void Watch(Connection* conn, std::function<void()> on_readable);
  void Unwatch(const Connection* conn);

  // One poll(): the listen socket (while accepting, below
  // kMaxConnections), the wake pipe, every inbound and watched connection.
  // Flushes writable connections, accepts, and reads and dispatches
  // readable ones. A corrupt inbound stream counts a protocol error and
  // fails its connection.
  void Poll(int timeout_ms);
  // End of an iteration: flushes every inbound backlog, retires drained
  // connections, and destroys the dead ones.
  void Reap();

  // Graceful shutdown: stops accepting and starts the drain deadline.
  void BeginDrain();
  // Queues a GOODBYE on every live inbound connection, which then closes
  // once its backlog flushes.
  void GoodbyeAll();
  bool draining() const { return draining_; }
  bool drain_expired() const {
    return clock_.ElapsedMicros() >= drain_deadline_micros_;
  }
  // Closes the listen socket and every inbound connection at once, and
  // forgets the watched ones.
  void Stop();
  bool stopped() const { return stopped_; }

  // Inbound connections in accept order (std::map keeps every walk over
  // them deterministic).
  const std::map<uint64_t, std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }
  // The live (not dead) inbound connection `id`, or null.
  Connection* Find(uint64_t id);

 private:
  struct Watched {
    Connection* conn = nullptr;
    std::function<void()> on_readable;
  };

  void AcceptPending();

  serve::Metrics* const wire_;
  const char* const corrupt_failpoint_;
  const Hooks hooks_;
  UniqueFd listen_fd_;
  int port_ = 0;
  // Self-pipe so Wake can interrupt a blocked poll().
  UniqueFd wake_read_;
  UniqueFd wake_write_;
  bool draining_ = false;
  bool stopped_ = false;
  double drain_deadline_micros_ = 0.0;
  Stopwatch clock_;

  uint64_t next_connection_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  // Watched outbound connections in watch order.
  uint64_t next_watch_id_ = 1;
  std::map<uint64_t, Watched> watched_;
};

}  // namespace tpgnn::net

#endif  // TPGNN_NET_EVENT_LOOP_H_
