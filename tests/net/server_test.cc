// Server behaviour over real loopback sockets: request/response round
// trips, the METRICS RPC, typed teardown of corrupt streams, the
// per-connection overload paths with exact events_applied accounting,
// graceful shutdown draining every pending score, client deadlines, and
// broken-pipe reconnects. The FrontTest cases run against both fronts a
// client can dial — a single server, and a router in front of one backend
// server — since the shared event loop gives both the same behaviour.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_test_util.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net_test_util.h"
#include "util/net.h"

namespace tpgnn::net {
namespace {

graph::GraphDataset TinyDataset(int count = 1) {
  return data::MakeDataset(data::HdfsSpec(), count, /*seed=*/11);
}

// The front a FrontTest dials: a Server, or a Router with one backend.
enum class Front { kServer, kRouter };

void PrintTo(Front front, std::ostream* os) {
  *os << (front == Front::kServer ? "Server" : "Router");
}

class FrontTest : public ::testing::TestWithParam<Front> {
 protected:
  FrontTest() {
    if (GetParam() == Front::kServer) {
      server_ = std::make_unique<ServerHarness>();
    } else {
      router_ = std::make_unique<cluster::RouterHarness>(1);
    }
  }

  ClientOptions client_options() const {
    return server_ ? server_->client_options() : router_->client_options();
  }
  int port() const { return client_options().port; }
  // The engine that scores this front's sessions.
  serve::InferenceEngine& engine() {
    return server_ ? server_->engine() : router_->backend(0).engine();
  }
  void Stop() { server_ ? server_->Stop() : router_->Stop(); }

  // protocol_errors as the front reports it over METRICS (a router merges
  // its own client-side count with its backend's).
  uint64_t ReportedProtocolErrors() {
    Client client(client_options());
    std::string json;
    serve::MetricsSnapshot snap;
    EXPECT_TRUE(client.Connect().ok());
    EXPECT_TRUE(client.GetMetricsJson(&json).ok());
    EXPECT_TRUE(serve::ParseMetricsJson(json, &snap).ok()) << json;
    return snap.protocol_errors;
  }

 private:
  std::unique_ptr<ServerHarness> server_;
  std::unique_ptr<cluster::RouterHarness> router_;
};

INSTANTIATE_TEST_SUITE_P(Fronts, FrontTest,
                         ::testing::Values(Front::kServer, Front::kRouter),
                         [](const ::testing::TestParamInfo<Front>& info) {
                           return ::testing::PrintToString(info.param);
                         });

// Socket deadline of the backlog test. Generous: a router answers each of
// its thousands of METRICS requests with a backend round trip before it
// flushes, which takes seconds under the sanitizers.
constexpr int kFloodTimeoutMs = 60000;

// Reads frames off a blocking socket until the one answering `request_id`.
Status ReadReply(int fd, uint64_t request_id, Frame* reply) {
  std::vector<uint8_t> in;
  size_t offset = 0;
  for (;;) {
    size_t consumed = 0;
    if (Status s = DecodeFrame(in.data() + offset, in.size() - offset,
                               kDefaultMaxPayloadBytes, reply, &consumed);
        !s.ok()) {
      return s;
    }
    if (consumed > 0) {
      offset += consumed;
      if (reply->request_id == request_id) {
        return Status::Ok();
      }
      continue;
    }
    uint8_t buf[64 * 1024];
    size_t received = 0;
    if (Status s = RecvSome(fd, buf, sizeof(buf), kFloodTimeoutMs, &received);
        !s.ok()) {
      return s;
    }
    in.insert(in.end(), buf, buf + received);
  }
}

TEST_P(FrontTest, PingPong) {
  Client client(client_options());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_P(FrontTest, MalformedStreamGetsTypedErrorThenClose) {
  UniqueFd fd;
  ASSERT_TRUE(
      ConnectTcp("127.0.0.1", port(), /*timeout_ms=*/2000, &fd).ok());

  const uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01,
                             0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  ASSERT_TRUE(SendAll(fd.get(), garbage, sizeof(garbage), 2000).ok());

  // The front answers with a typed ERROR frame...
  std::vector<uint8_t> in;
  Frame frame;
  size_t consumed = 0;
  for (;;) {
    uint8_t buf[512];
    size_t received = 0;
    ASSERT_TRUE(RecvSome(fd.get(), buf, sizeof(buf), 2000, &received).ok());
    in.insert(in.end(), buf, buf + received);
    ASSERT_TRUE(DecodeFrame(in.data(), in.size(), kDefaultMaxPayloadBytes,
                            &frame, &consumed)
                    .ok());
    if (consumed > 0) break;
  }
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.status_code, StatusCode::kDataLoss);

  // ...then closes the stream: the next read hits EOF (mapped to kDataLoss
  // by RecvSome) rather than hanging.
  uint8_t buf[64];
  size_t received = 0;
  Status eof = RecvSome(fd.get(), buf, sizeof(buf), 2000, &received);
  EXPECT_EQ(eof.code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReportedProtocolErrors(), 1u);
}

TEST_P(FrontTest, GracefulShutdownDeliversEveryPendingResult) {
  Client client(client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  constexpr int kScores = 8;
  for (int i = 0; i < kScores; ++i) {
    events.push_back(ScoreEvent(1));
  }
  ASSERT_TRUE(client.IngestAll(events).ok());

  // Shutdown must flush the engine and deliver all pipelined SCORE_RESULTs
  // before the GOODBYE.
  ASSERT_TRUE(client.Shutdown().ok());
  std::vector<serve::ScoreResult> results = client.TakeResults();
  EXPECT_EQ(results.size(), static_cast<size_t>(kScores));
  for (const serve::ScoreResult& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_EQ(client.inflight_scores(), 0u);
  Stop();
  EXPECT_EQ(engine().metrics().scores_completed.load(),
            static_cast<uint64_t>(kScores));
}

TEST_P(FrontTest, ClientThatNeverReadsIsShedAtTheWriteBacklogBound) {
  // A small receive buffer, set before connecting, keeps the kernel from
  // absorbing the responses: past it they pile up in the front's backlog.
  UniqueFd fd(socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  const int rcvbuf = 4096;
  ASSERT_EQ(setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)),
            0);

  // Size one METRICS response, then pipeline enough requests that their
  // responses overflow the bound even after the kernel's send buffer
  // (Linux caps it at a few MiB) has taken its share.
  std::vector<uint8_t> request;
  Frame metrics;
  metrics.type = FrameType::kMetricsRequest;
  EncodeFrame(metrics, &request);
  ASSERT_TRUE(SendAll(fd.get(), request.data(), request.size(), 5000).ok());
  Frame reply;
  std::vector<uint8_t> sized;
  uint8_t buf[64 * 1024];
  for (size_t consumed = 0; consumed == 0;) {
    size_t received = 0;
    ASSERT_TRUE(RecvSome(fd.get(), buf, sizeof(buf), 5000, &received).ok());
    sized.insert(sized.end(), buf, buf + received);
    ASSERT_TRUE(DecodeFrame(sized.data(), sized.size(),
                            kDefaultMaxPayloadBytes, &reply, &consumed)
                    .ok());
  }
  const size_t flood_bytes = kMaxWriteBacklogBytes + (16u << 20);
  const size_t requests = flood_bytes / sized.size() + 1;
  std::vector<uint8_t> flood;
  for (size_t i = 0; i < requests; ++i) {
    EncodeFrame(metrics, &flood);
  }
  graph::GraphDataset dataset = TinyDataset();
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = 77;
  batch.events.push_back(BeginEvent(1, dataset[0].graph));
  EncodeFrame(batch, &flood);
  ASSERT_TRUE(
      SendAll(fd.get(), flood.data(), flood.size(), kFloodTimeoutMs).ok());

  // Every response before the batch's was queued ahead of it, so the
  // batch is refused whole, retryably.
  ASSERT_TRUE(ReadReply(fd.get(), 77, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kOverloaded);
  EXPECT_EQ(reply.status_code, StatusCode::kOverloaded);
  EXPECT_EQ(reply.events_applied, 0u);

  // Nothing was applied: once the backlog is read, the same Begin lands.
  batch.request_id = 78;
  std::vector<uint8_t> retry;
  EncodeFrame(batch, &retry);
  ASSERT_TRUE(SendAll(fd.get(), retry.data(), retry.size(), 5000).ok());
  ASSERT_TRUE(ReadReply(fd.get(), 78, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kIngestAck);
  EXPECT_EQ(reply.status_code, StatusCode::kOk) << reply.text;
  EXPECT_EQ(reply.events_applied, 1u);
}

TEST(ServerTest, IngestBatchAppliesAllEventsAndScores) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  events.push_back(ScoreEvent(1, dataset[0].label));
  events.push_back(EndEvent(1));

  uint64_t applied = 0;
  ASSERT_TRUE(client.IngestBatch(events, &applied).ok());
  EXPECT_EQ(applied, events.size());
  ASSERT_TRUE(client.DrainResults().ok());

  std::vector<serve::ScoreResult> results = client.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].session_id, 1u);
  EXPECT_EQ(results[0].label, dataset[0].label);
  EXPECT_EQ(results[0].edges_scored,
            static_cast<int64_t>(g.edges().size()));
}

TEST(ServerTest, SynchronousScoreRpc) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  ASSERT_TRUE(client.IngestAll(events).ok());

  serve::ScoreResult result;
  ASSERT_TRUE(client.Score(1, dataset[0].label, &result).ok());
  EXPECT_EQ(result.session_id, 1u);
  EXPECT_GT(result.probability, 0.0f);
  EXPECT_LT(result.probability, 1.0f);

  // Scoring an unknown session surfaces the engine's typed error in-band.
  serve::ScoreResult missing;
  Status status = client.Score(999, -1, &missing);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), missing.status.code());
}

TEST(ServerTest, MetricsRpcReturnsEngineAndWireCounters) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  std::string json;
  ASSERT_TRUE(client.GetMetricsJson(&json).ok());
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"frames_received\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"connections_accepted\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos) << json;
}

TEST(ServerTest, InflightCapSurfacesOverloadWithExactEventsApplied) {
  ServerOptions server_options;
  server_options.max_inflight_scores = 1;
  ServerHarness harness({}, server_options);
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  events.push_back(ScoreEvent(1));
  events.push_back(ScoreEvent(1));  // Over the cap: shed here.
  events.push_back(ScoreEvent(1));

  uint64_t applied = 0;
  Status status = client.IngestBatch(events, &applied);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(applied, 2u);  // Begin + first Score.
  EXPECT_EQ(client.inflight_scores(), 1u);

  // Draining relieves the cap; the retry loop ships the shed tail.
  ASSERT_TRUE(client.DrainResults().ok());
  std::vector<serve::Event> tail(events.begin() + 2, events.end());
  ASSERT_TRUE(client.IngestAll(tail).ok());
  ASSERT_TRUE(client.DrainResults().ok());
  EXPECT_EQ(client.TakeResults().size(), 3u);
}

TEST(ServerTest, UnresponsivePeerHitsClientDeadline) {
  // A listener that accepts (via the kernel backlog) but never reads or
  // answers: every RPC must fail with kDeadlineExceeded, not hang.
  UniqueFd listen_fd;
  int port = 0;
  ASSERT_TRUE(ListenTcp("127.0.0.1", 0, /*backlog=*/4, &listen_fd, &port).ok());

  ClientOptions options;
  options.port = port;
  options.io_timeout_ms = 100;
  options.reconnect_on_broken_pipe = false;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  Status status = client.Ping();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
}

TEST(ServerTest, ConnectToDeadPortFailsAfterRetries) {
  // Bind-then-close to get a port that refuses connections.
  int dead_port = 0;
  {
    UniqueFd listen_fd;
    ASSERT_TRUE(
        ListenTcp("127.0.0.1", 0, /*backlog=*/1, &listen_fd, &dead_port).ok());
  }
  ClientOptions options;
  options.port = dead_port;
  options.connect_retries = 2;
  options.retry_backoff_ms = 1;
  Client client(options);
  EXPECT_FALSE(client.Connect().ok());
  EXPECT_FALSE(client.connected());
}

TEST(ServerTest, ClientReconnectsOnceOnBrokenPipe) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  client.InjectBrokenPipeForTest();
  // The next send hits the wrecked socket, reconnects, and retries.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.connected());

  // Session state lives in the engine, so a reconnected client can keep
  // scoring sessions it began before the break.
  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  ASSERT_TRUE(client.IngestBatch({BeginEvent(1, g)}).ok());
  client.InjectBrokenPipeForTest();
  serve::ScoreResult result;
  ASSERT_TRUE(client.Score(1, -1, &result).ok());
  EXPECT_TRUE(result.status.ok());
}

TEST(ServerTest, ServesManyConnectionsConcurrently) {
  ServerHarness harness;
  graph::GraphDataset dataset = TinyDataset(/*count=*/6);

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(harness.client_options());
      if (!client.Connect().ok()) {
        ++failures;
        return;
      }
      for (size_t i = static_cast<size_t>(c); i < dataset.size();
           i += kClients) {
        const uint64_t id = i + 1;
        const graph::TemporalGraph& g = dataset[i].graph;
        std::vector<serve::Event> events;
        events.push_back(BeginEvent(id, g));
        for (const graph::TemporalEdge& e : g.edges()) {
          events.push_back(EdgeEvent(id, e.src, e.dst, e.time));
        }
        events.push_back(ScoreEvent(id, dataset[i].label));
        events.push_back(EndEvent(id));
        if (!client.IngestAll(events).ok() || !client.DrainResults().ok()) {
          ++failures;
          return;
        }
        for (const serve::ScoreResult& result : client.TakeResults()) {
          if (!result.status.ok()) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(harness.engine().metrics().scores_completed.load(),
            dataset.size());
}

}  // namespace
}  // namespace tpgnn::net
