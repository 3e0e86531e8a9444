// Wire-protocol round-trips and framing rules: every frame type encodes and
// decodes to an identical Frame, prefixes report need-more instead of
// erroring, and each class of header/payload corruption maps to its
// documented typed error. The framed connection of the event loop
// reassembles frames that arrive in pieces, past its compaction threshold.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "serve/event.h"
#include "util/net.h"

namespace tpgnn::net {
namespace {

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  return wire;
}

// Decodes a complete single-frame buffer, asserting full consumption.
Frame DecodeAll(const std::vector<uint8_t>& wire) {
  Frame frame;
  size_t consumed = 0;
  Status status =
      DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes, &frame,
                  &consumed);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(consumed, wire.size());
  return frame;
}

serve::Event MakeBegin() {
  serve::Event e;
  e.kind = serve::Event::Kind::kBegin;
  e.session_id = 42;
  e.time = 1.5;
  e.num_nodes = 4;
  e.feature_dim = 3;
  e.features = {{0, {1.0f, -2.5f, 0.0f}}, {3, {0.25f, 7.0f, -1.0f}}};
  return e;
}

serve::Event MakeEdge() {
  serve::Event e;
  e.kind = serve::Event::Kind::kEdge;
  e.session_id = 42;
  e.time = 2.0;
  e.src = 0;
  e.dst = 3;
  e.edge_time = 0.125;
  return e;
}

TEST(ProtocolTest, PingRoundTrip) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 0xDEADBEEFCAFEull;
  Frame decoded = DecodeAll(Encode(ping));
  EXPECT_EQ(decoded.type, FrameType::kPing);
  EXPECT_EQ(decoded.request_id, ping.request_id);
}

TEST(ProtocolTest, IngestBatchRoundTripAllEventKinds) {
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = 7;
  batch.events.push_back(MakeBegin());
  batch.events.push_back(MakeEdge());
  serve::Event score;
  score.kind = serve::Event::Kind::kScore;
  score.session_id = 42;
  score.time = 3.0;
  score.label = 1;
  batch.events.push_back(score);
  serve::Event end;
  end.kind = serve::Event::Kind::kEnd;
  end.session_id = 42;
  end.time = 4.0;
  batch.events.push_back(end);

  Frame decoded = DecodeAll(Encode(batch));
  EXPECT_EQ(decoded.type, FrameType::kIngestBatch);
  EXPECT_EQ(decoded.request_id, 7u);
  ASSERT_EQ(decoded.events.size(), 4u);

  const serve::Event& begin = decoded.events[0];
  EXPECT_EQ(begin.kind, serve::Event::Kind::kBegin);
  EXPECT_EQ(begin.session_id, 42u);
  EXPECT_EQ(begin.time, 1.5);
  EXPECT_EQ(begin.num_nodes, 4);
  EXPECT_EQ(begin.feature_dim, 3);
  ASSERT_EQ(begin.features.size(), 2u);
  EXPECT_EQ(begin.features[0].node, 0);
  EXPECT_EQ(begin.features[1].node, 3);
  // Floats travel as raw IEEE-754 bits: exact equality.
  EXPECT_EQ(begin.features[0].features,
            (std::vector<float>{1.0f, -2.5f, 0.0f}));
  EXPECT_EQ(begin.features[1].features,
            (std::vector<float>{0.25f, 7.0f, -1.0f}));

  const serve::Event& edge = decoded.events[1];
  EXPECT_EQ(edge.kind, serve::Event::Kind::kEdge);
  EXPECT_EQ(edge.src, 0);
  EXPECT_EQ(edge.dst, 3);
  EXPECT_EQ(edge.edge_time, 0.125);
  EXPECT_EQ(edge.time, 2.0);

  EXPECT_EQ(decoded.events[2].kind, serve::Event::Kind::kScore);
  EXPECT_EQ(decoded.events[2].label, 1);
  EXPECT_EQ(decoded.events[3].kind, serve::Event::Kind::kEnd);
}

TEST(ProtocolTest, ScoreAndScoreResultRoundTrip) {
  Frame score;
  score.type = FrameType::kScore;
  score.request_id = 9;
  score.session_id = 1234567890123ull;
  score.label = 0;
  Frame decoded = DecodeAll(Encode(score));
  EXPECT_EQ(decoded.type, FrameType::kScore);
  EXPECT_EQ(decoded.session_id, score.session_id);
  EXPECT_EQ(decoded.label, 0);

  Frame result;
  result.type = FrameType::kScoreResult;
  serve::ScoreResult ok;
  ok.session_id = 42;
  ok.logit = -0.75f;
  ok.probability = 0.3208213f;
  ok.edges_scored = 17;
  ok.label = 1;
  ok.queue_micros = 12.5;
  ok.score_micros = 480.0;
  serve::ScoreResult bad;
  bad.session_id = 43;
  bad.status = Status::NotFound("unknown session 43");
  result.results = {ok, bad};

  decoded = DecodeAll(Encode(result));
  ASSERT_EQ(decoded.results.size(), 2u);
  EXPECT_TRUE(decoded.results[0].status.ok());
  EXPECT_EQ(decoded.results[0].session_id, 42u);
  EXPECT_EQ(decoded.results[0].logit, -0.75f);
  EXPECT_EQ(decoded.results[0].probability, 0.3208213f);
  EXPECT_EQ(decoded.results[0].edges_scored, 17);
  EXPECT_EQ(decoded.results[0].label, 1);
  EXPECT_EQ(decoded.results[0].queue_micros, 12.5);
  EXPECT_EQ(decoded.results[0].score_micros, 480.0);
  EXPECT_EQ(decoded.results[1].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.results[1].status.message(), "unknown session 43");
}

TEST(ProtocolTest, ControlFramesRoundTrip) {
  Frame ack;
  ack.type = FrameType::kIngestAck;
  ack.request_id = 3;
  ack.status_code = StatusCode::kNotFound;
  ack.events_applied = 5;
  ack.text = "unknown session";
  Frame decoded = DecodeAll(Encode(ack));
  EXPECT_EQ(decoded.type, FrameType::kIngestAck);
  EXPECT_EQ(decoded.status_code, StatusCode::kNotFound);
  EXPECT_EQ(decoded.events_applied, 5u);
  EXPECT_EQ(decoded.text, "unknown session");

  Frame overloaded;
  overloaded.type = FrameType::kOverloaded;
  overloaded.request_id = 4;
  overloaded.events_applied = 2;
  decoded = DecodeAll(Encode(overloaded));
  EXPECT_EQ(decoded.type, FrameType::kOverloaded);
  EXPECT_EQ(decoded.request_id, 4u);
  EXPECT_EQ(decoded.events_applied, 2u);

  Frame metrics;
  metrics.type = FrameType::kMetricsResponse;
  metrics.text = "{\"counters\": {}}";
  decoded = DecodeAll(Encode(metrics));
  EXPECT_EQ(decoded.type, FrameType::kMetricsResponse);
  EXPECT_EQ(decoded.text, metrics.text);

  for (FrameType type : {FrameType::kPong, FrameType::kMetricsRequest,
                         FrameType::kShutdown, FrameType::kGoodbye,
                         FrameType::kError}) {
    Frame frame;
    frame.type = type;
    EXPECT_EQ(DecodeAll(Encode(frame)).type, type) << FrameTypeName(type);
  }
}

TEST(ProtocolTest, MigrationFramesRoundTrip) {
  // The cluster router's session-migration handshake: EXPORT a session,
  // receive its opaque state blob, IMPORT it on another backend. The blob
  // must travel byte-exact — it carries raw fold-state float bits.
  Frame request;
  request.type = FrameType::kSessionExport;
  request.request_id = 11;
  request.session_id = 0xFEEDFACE01ull;
  Frame decoded = DecodeAll(Encode(request));
  EXPECT_EQ(decoded.type, FrameType::kSessionExport);
  EXPECT_EQ(decoded.request_id, 11u);
  EXPECT_EQ(decoded.session_id, request.session_id);

  Frame state;
  state.type = FrameType::kSessionState;
  state.request_id = 11;
  state.status_code = StatusCode::kOk;
  state.blob = {0x54, 0x50, 0x53, 0x53, 0x00, 0xFF, 0x80, 0x7F};
  decoded = DecodeAll(Encode(state));
  EXPECT_EQ(decoded.type, FrameType::kSessionState);
  EXPECT_EQ(decoded.request_id, 11u);
  EXPECT_EQ(decoded.status_code, StatusCode::kOk);
  EXPECT_EQ(decoded.blob, state.blob);

  Frame failed_state;
  failed_state.type = FrameType::kSessionState;
  failed_state.request_id = 12;
  failed_state.status_code = StatusCode::kNotFound;
  failed_state.text = "unknown session 99";
  decoded = DecodeAll(Encode(failed_state));
  EXPECT_EQ(decoded.type, FrameType::kSessionState);
  EXPECT_EQ(decoded.status_code, StatusCode::kNotFound);
  EXPECT_EQ(decoded.text, failed_state.text);
  EXPECT_TRUE(decoded.blob.empty());

  Frame import;
  import.type = FrameType::kSessionImport;
  import.request_id = 13;
  import.blob = state.blob;
  decoded = DecodeAll(Encode(import));
  EXPECT_EQ(decoded.type, FrameType::kSessionImport);
  EXPECT_EQ(decoded.request_id, 13u);
  EXPECT_EQ(decoded.blob, import.blob);
}

TEST(ProtocolTest, ModelAdminFramesRoundTrip) {
  // The model lifecycle admin surface (DESIGN.md §4.8): LOAD registers a
  // checkpoint, ACTIVATE runs one ModelAdminMode verb, STATUS fetches the
  // registry JSON as a MODEL_INFO reply.
  Frame load;
  load.type = FrameType::kModelLoad;
  load.request_id = 31;
  load.name = "v2";
  load.text = "/ckpt/model_v2.ckpt";
  Frame decoded = DecodeAll(Encode(load));
  EXPECT_EQ(decoded.type, FrameType::kModelLoad);
  EXPECT_EQ(decoded.request_id, 31u);
  EXPECT_EQ(decoded.name, "v2");
  EXPECT_EQ(decoded.text, load.text);

  Frame activate;
  activate.type = FrameType::kModelActivate;
  activate.request_id = 32;
  activate.name = "v2";
  activate.mode = static_cast<uint8_t>(ModelAdminMode::kSetCandidate);
  activate.fraction = 0.125;  // Exact in binary: byte-exact round-trip.
  decoded = DecodeAll(Encode(activate));
  EXPECT_EQ(decoded.type, FrameType::kModelActivate);
  EXPECT_EQ(decoded.request_id, 32u);
  EXPECT_EQ(decoded.name, "v2");
  EXPECT_EQ(decoded.mode,
            static_cast<uint8_t>(ModelAdminMode::kSetCandidate));
  EXPECT_EQ(decoded.fraction, 0.125);

  Frame status;
  status.type = FrameType::kModelStatus;
  status.request_id = 33;
  decoded = DecodeAll(Encode(status));
  EXPECT_EQ(decoded.type, FrameType::kModelStatus);
  EXPECT_EQ(decoded.request_id, 33u);

  Frame info;
  info.type = FrameType::kModelInfo;
  info.request_id = 33;
  info.status_code = StatusCode::kOk;
  info.text = "{\"primary\": \"v2\"}";
  decoded = DecodeAll(Encode(info));
  EXPECT_EQ(decoded.type, FrameType::kModelInfo);
  EXPECT_EQ(decoded.request_id, 33u);
  EXPECT_EQ(decoded.status_code, StatusCode::kOk);
  EXPECT_EQ(decoded.text, info.text);
}

TEST(ProtocolTest, ModelAdminValidationRejectsHostileFields) {
  Frame frame;
  size_t consumed = 0;

  // A version name past the cap cannot drive an allocation downstream.
  Frame long_name;
  long_name.type = FrameType::kModelLoad;
  long_name.request_id = 1;
  long_name.name.assign(kMaxModelNameBytes + 1, 'x');
  std::vector<uint8_t> wire = Encode(long_name);
  Status s = DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                         &frame, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();

  // An out-of-range admin verb fails at decode, before any dispatch.
  Frame bad_mode;
  bad_mode.type = FrameType::kModelActivate;
  bad_mode.request_id = 2;
  bad_mode.name = "v2";
  bad_mode.mode = kMaxModelAdminMode + 1;
  wire = Encode(bad_mode);
  s = DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes, &frame,
                  &consumed);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();

  // MODEL_INFO with an unknown status byte is corruption, not a status.
  Frame info;
  info.type = FrameType::kModelInfo;
  info.request_id = 3;
  info.text = "{}";
  wire = Encode(info);
  wire[kFrameHeaderBytes + 1] = 0xEE;  // Status byte follows the rid varint.
  s = DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes, &frame,
                  &consumed);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST(ProtocolTest, EveryPrefixReportsNeedMore) {
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = 1;
  batch.events = {MakeBegin(), MakeEdge()};
  const std::vector<uint8_t> wire = Encode(batch);

  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 1;  // Poisoned; must be reset to 0.
    Status status = DecodeFrame(wire.data(), len, kDefaultMaxPayloadBytes,
                                &frame, &consumed);
    EXPECT_TRUE(status.ok()) << "prefix " << len << ": " << status.ToString();
    EXPECT_EQ(consumed, 0u) << "prefix " << len;
  }
}

TEST(ProtocolTest, BackToBackFramesDecodeOneAtATime) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;

  std::vector<uint8_t> wire = Encode(ping);
  const size_t first_size = wire.size();
  EncodeFrame(shutdown, &wire);

  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &frame, &consumed)
                  .ok());
  EXPECT_EQ(consumed, first_size);
  EXPECT_EQ(frame.type, FrameType::kPing);

  ASSERT_TRUE(DecodeFrame(wire.data() + consumed, wire.size() - consumed,
                          kDefaultMaxPayloadBytes, &frame, &consumed)
                  .ok());
  EXPECT_EQ(frame.type, FrameType::kShutdown);
}

TEST(ProtocolTest, BadMagicVersionReservedOrTypeIsDataLoss) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  const std::vector<uint8_t> good = Encode(ping);

  auto expect_data_loss = [](std::vector<uint8_t> wire, const char* what) {
    Frame frame;
    size_t consumed = 0;
    Status status = DecodeFrame(wire.data(), wire.size(),
                                kDefaultMaxPayloadBytes, &frame, &consumed);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << what;
  };

  std::vector<uint8_t> wire = good;
  wire[0] ^= 0xFF;  // Magic.
  expect_data_loss(wire, "magic");

  wire = good;
  wire[4] = kProtocolVersion + 1;  // Version.
  expect_data_loss(wire, "version");

  wire = good;
  wire[5] = 200;  // Unknown frame type.
  expect_data_loss(wire, "type");

  wire = good;
  wire[6] = 1;  // Reserved bits must be zero.
  expect_data_loss(wire, "reserved");
}

TEST(ProtocolTest, TrailingPayloadBytesAreDataLoss) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  std::vector<uint8_t> wire = Encode(ping);
  // Grow the declared payload by one byte and append filler: the payload
  // now over-runs the frame's actual content.
  uint32_t payload_len;
  std::memcpy(&payload_len, wire.data() + 8, sizeof(payload_len));
  ++payload_len;
  std::memcpy(wire.data() + 8, &payload_len, sizeof(payload_len));
  wire.push_back(0x00);

  Frame frame;
  size_t consumed = 0;
  Status status = DecodeFrame(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                              &frame, &consumed);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(ProtocolTest, OversizedPayloadLengthIsInvalidArgumentFromHeaderAlone) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  std::vector<uint8_t> wire = Encode(ping);
  const uint32_t huge = 1u << 20;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));
  wire.resize(kFrameHeaderBytes);  // Header only: no payload arrived yet.

  Frame frame;
  size_t consumed = 0;
  Status status = DecodeFrame(wire.data(), wire.size(),
                              /*max_payload_bytes=*/1024, &frame, &consumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ConnectionTest, ReassemblesSplitFramesPastTheCompactThreshold) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UniqueFd peer(fds[1]);
  ASSERT_TRUE(SetNonBlocking(fds[0], true).ok());
  ASSERT_TRUE(SetNonBlocking(fds[1], true).ok());
  Connection conn(UniqueFd(fds[0]), /*id=*/1,
                  Connection::Direction::kInbound);

  // One frame larger than kCompactThreshold, then small ones behind it.
  std::vector<Frame> sent(4);
  sent[0].type = FrameType::kMetricsResponse;
  sent[0].text = std::string(kCompactThreshold + kCompactThreshold / 2, 'x');
  for (size_t i = 1; i < sent.size(); ++i) {
    sent[i].type = FrameType::kPing;
    sent[i].request_id = i;
  }
  std::vector<uint8_t> wire;
  for (const Frame& frame : sent) {
    EncodeFrame(frame, &wire);
  }
  ASSERT_GT(wire.size(), kCompactThreshold);

  auto expect_frames = [&](const std::vector<Frame>& got) {
    ASSERT_EQ(got.size(), sent.size());
    EXPECT_EQ(got[0].type, FrameType::kMetricsResponse);
    EXPECT_EQ(got[0].text, sent[0].text);
    for (size_t i = 1; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, FrameType::kPing);
      EXPECT_EQ(got[i].request_id, i);
    }
  };

  // Read side: a header split mid-way, then the rest in socket-sized
  // pieces the connection must stitch together across many reads.
  std::vector<Frame> received;
  auto on_frame = [&](const Frame& frame) { received.push_back(frame); };
  ASSERT_TRUE(SendAll(peer.get(), wire.data(), 5, 1000).ok());
  size_t written = 5;
  ASSERT_TRUE(conn.Read(on_frame).ok());
  EXPECT_TRUE(received.empty());
  while (written < wire.size()) {
    size_t sent_now = 0;
    ASSERT_TRUE(SendNonBlocking(peer.get(), wire.data() + written,
                                wire.size() - written, &sent_now)
                    .ok());
    written += sent_now;
    ASSERT_TRUE(conn.Read(on_frame).ok());
  }
  ASSERT_FALSE(conn.dead);
  expect_frames(received);

  // Write side: the same frames queued at once flush in pieces as the
  // peer drains its socket, with the sent prefix compacted along the way.
  for (const Frame& frame : sent) {
    conn.Send(frame);
  }
  std::vector<uint8_t> echoed;
  while (conn.backlog() > 0 || echoed.size() < wire.size()) {
    conn.Flush();
    ASSERT_FALSE(conn.dead);
    uint8_t buf[64 * 1024];
    size_t got = 0;
    bool eof = false;
    ASSERT_TRUE(
        RecvNonBlocking(peer.get(), buf, sizeof(buf), &got, &eof).ok());
    ASSERT_FALSE(eof);
    echoed.insert(echoed.end(), buf, buf + got);
  }
  EXPECT_EQ(echoed, wire);
}

}  // namespace
}  // namespace tpgnn::net
