#include "net/protocol.h"

#include <cstring>

namespace tpgnn::net {

namespace {

// Decoder-side plausibility caps. Anything above these in a length or count
// field is treated as corruption: the caps are far beyond what the serving
// path produces, and refusing early keeps a flipped bit in a count field
// from turning into a giant allocation.
constexpr uint64_t kMaxNodesPerSession = 1ull << 31;
constexpr uint64_t kMaxFeatureDim = 1ull << 24;
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);
constexpr uint8_t kMinFrameType = static_cast<uint8_t>(FrameType::kPing);
constexpr uint8_t kMaxFrameType = static_cast<uint8_t>(FrameType::kModelInfo);

void AppendRaw(const void* data, size_t size, std::vector<uint8_t>* out) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out->insert(out->end(), bytes, bytes + size);
}

void AppendU16(uint16_t value, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>(value >> 8));
}

void AppendU32(uint32_t value, std::vector<uint8_t>* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>((value >> shift) & 0xff));
  }
}

void AppendF32(float value, std::vector<uint8_t>* out) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU32(bits, out);
}

void AppendF64(double value, std::vector<uint8_t>* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>((bits >> shift) & 0xff));
  }
}

void AppendString(const std::string& value, std::vector<uint8_t>* out) {
  AppendVarint(value.size(), out);
  AppendRaw(value.data(), value.size(), out);
}

void AppendBytes(const std::vector<uint8_t>& value, std::vector<uint8_t>* out) {
  AppendVarint(value.size(), out);
  AppendRaw(value.data(), value.size(), out);
}

void AppendEvent(const serve::Event& event, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(event.kind));
  AppendVarint(event.session_id, out);
  AppendF64(event.time, out);
  switch (event.kind) {
    case serve::Event::Kind::kBegin:
      AppendVarint(static_cast<uint64_t>(event.num_nodes), out);
      AppendVarint(static_cast<uint64_t>(event.feature_dim), out);
      AppendVarint(event.features.size(), out);
      for (const serve::NodeInit& init : event.features) {
        AppendZigzag(init.node, out);
        for (float f : init.features) {
          AppendF32(f, out);
        }
      }
      break;
    case serve::Event::Kind::kEdge:
      AppendZigzag(event.src, out);
      AppendZigzag(event.dst, out);
      AppendF64(event.edge_time, out);
      break;
    case serve::Event::Kind::kScore:
      AppendZigzag(event.label, out);
      break;
    case serve::Event::Kind::kEnd:
      break;
  }
}

void AppendScoreResult(const serve::ScoreResult& result,
                       std::vector<uint8_t>* out) {
  AppendVarint(result.session_id, out);
  out->push_back(static_cast<uint8_t>(result.status.code()));
  AppendString(result.status.message(), out);
  AppendF32(result.logit, out);
  AppendF32(result.probability, out);
  AppendVarint(static_cast<uint64_t>(result.edges_scored), out);
  AppendZigzag(result.label, out);
  AppendF64(result.queue_micros, out);
  AppendF64(result.score_micros, out);
}

// Bounds-checked sequential reader over one frame payload. Every Read*
// validates the remaining byte count before touching memory; the first
// failure latches and all later reads fail too, so decode code can chain
// reads and check once.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool failed() const { return failed_; }

  bool ReadU8(uint8_t* value) {
    if (!Require(1)) return false;
    *value = data_[pos_++];
    return true;
  }

  bool ReadF32(float* value) {
    if (!Require(4)) return false;
    uint32_t bits = 0;
    for (int i = 0; i < 4; ++i) {
      bits |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
              << (8 * i);
    }
    pos_ += 4;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }

  bool ReadF64(double* value) {
    if (!Require(8)) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
              << (8 * i);
    }
    pos_ += 8;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }

  bool ReadVarint(uint64_t* value) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return false;
      const uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The tenth byte may only contribute the single remaining bit.
        if (shift == 63 && byte > 1) {
          return Fail();
        }
        *value = result;
        return true;
      }
    }
    return Fail();  // More than 10 continuation bytes.
  }

  bool ReadZigzag(int64_t* value) {
    uint64_t raw;
    if (!ReadVarint(&raw)) return false;
    *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool ReadString(std::string* value) {
    uint64_t length;
    if (!ReadVarint(&length)) return false;
    if (length > remaining()) return Fail();
    value->assign(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }

  bool ReadBytes(std::vector<uint8_t>* value) {
    uint64_t length;
    if (!ReadVarint(&length)) return false;
    if (length > remaining()) return Fail();
    value->assign(data_ + pos_, data_ + pos_ + static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }

 private:
  bool Require(size_t bytes) {
    if (failed_ || remaining() < bytes) {
      return Fail();
    }
    return true;
  }
  bool Fail() {
    failed_ = true;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

bool ReadEvent(Reader& reader, serve::Event* event) {
  uint8_t kind;
  if (!reader.ReadU8(&kind)) return false;
  if (kind > static_cast<uint8_t>(serve::Event::Kind::kEnd)) return false;
  event->kind = static_cast<serve::Event::Kind>(kind);
  if (!reader.ReadVarint(&event->session_id)) return false;
  if (!reader.ReadF64(&event->time)) return false;
  switch (event->kind) {
    case serve::Event::Kind::kBegin: {
      uint64_t num_nodes, feature_dim, listed;
      if (!reader.ReadVarint(&num_nodes) || num_nodes > kMaxNodesPerSession) {
        return false;
      }
      if (!reader.ReadVarint(&feature_dim) || feature_dim > kMaxFeatureDim) {
        return false;
      }
      if (!reader.ReadVarint(&listed) || listed > num_nodes) return false;
      event->num_nodes = static_cast<int64_t>(num_nodes);
      event->feature_dim = static_cast<int64_t>(feature_dim);
      // Each entry consumes >= 1 + 4 * feature_dim payload bytes, so a
      // corrupt `listed` cannot force an allocation beyond the payload.
      if (listed > 0 && reader.remaining() / (1 + 4 * feature_dim) < listed) {
        return false;
      }
      event->features.clear();
      event->features.reserve(static_cast<size_t>(listed));
      for (uint64_t i = 0; i < listed; ++i) {
        serve::NodeInit init;
        if (!reader.ReadZigzag(&init.node)) return false;
        init.features.resize(static_cast<size_t>(feature_dim));
        for (float& f : init.features) {
          if (!reader.ReadF32(&f)) return false;
        }
        event->features.push_back(std::move(init));
      }
      break;
    }
    case serve::Event::Kind::kEdge:
      if (!reader.ReadZigzag(&event->src)) return false;
      if (!reader.ReadZigzag(&event->dst)) return false;
      if (!reader.ReadF64(&event->edge_time)) return false;
      break;
    case serve::Event::Kind::kScore: {
      int64_t label;
      if (!reader.ReadZigzag(&label)) return false;
      event->label = static_cast<int>(label);
      break;
    }
    case serve::Event::Kind::kEnd:
      break;
  }
  return true;
}

bool ReadScoreResult(Reader& reader, serve::ScoreResult* result) {
  if (!reader.ReadVarint(&result->session_id)) return false;
  uint8_t code;
  if (!reader.ReadU8(&code) || code > kMaxStatusCode) return false;
  std::string message;
  if (!reader.ReadString(&message)) return false;
  result->status = Status(static_cast<StatusCode>(code), std::move(message));
  if (!reader.ReadF32(&result->logit)) return false;
  if (!reader.ReadF32(&result->probability)) return false;
  uint64_t edges;
  if (!reader.ReadVarint(&edges)) return false;
  result->edges_scored = static_cast<int64_t>(edges);
  int64_t label;
  if (!reader.ReadZigzag(&label)) return false;
  result->label = static_cast<int>(label);
  if (!reader.ReadF64(&result->queue_micros)) return false;
  if (!reader.ReadF64(&result->score_micros)) return false;
  return true;
}

Status CorruptFrame(const std::string& detail) {
  return Status::DataLoss("corrupt frame: " + detail);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPing:
      return "PING";
    case FrameType::kPong:
      return "PONG";
    case FrameType::kIngestBatch:
      return "INGEST_BATCH";
    case FrameType::kIngestAck:
      return "INGEST_ACK";
    case FrameType::kScore:
      return "SCORE";
    case FrameType::kScoreResult:
      return "SCORE_RESULT";
    case FrameType::kMetricsRequest:
      return "METRICS_REQUEST";
    case FrameType::kMetricsResponse:
      return "METRICS_RESPONSE";
    case FrameType::kShutdown:
      return "SHUTDOWN";
    case FrameType::kGoodbye:
      return "GOODBYE";
    case FrameType::kOverloaded:
      return "OVERLOADED";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kSessionExport:
      return "SESSION_EXPORT";
    case FrameType::kSessionState:
      return "SESSION_STATE";
    case FrameType::kSessionImport:
      return "SESSION_IMPORT";
    case FrameType::kModelLoad:
      return "MODEL_LOAD";
    case FrameType::kModelActivate:
      return "MODEL_ACTIVATE";
    case FrameType::kModelStatus:
      return "MODEL_STATUS";
    case FrameType::kModelInfo:
      return "MODEL_INFO";
  }
  return "UNKNOWN";
}

void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void AppendZigzag(int64_t value, std::vector<uint8_t>* out) {
  AppendVarint((static_cast<uint64_t>(value) << 1) ^
                   static_cast<uint64_t>(value >> 63),
               out);
}

Frame StatusReply(FrameType type, uint64_t request_id, const Status& status,
                  uint64_t events_applied) {
  Frame reply;
  reply.type = type;
  reply.request_id = request_id;
  reply.status_code = status.code();
  reply.events_applied = events_applied;
  reply.text = status.message();
  return reply;
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  AppendU32(kFrameMagic, out);
  out->push_back(kProtocolVersion);
  out->push_back(static_cast<uint8_t>(frame.type));
  AppendU16(0, out);
  AppendU32(0, out);  // Payload length, patched below.
  const size_t payload_at = out->size();

  switch (frame.type) {
    case FrameType::kPing:
    case FrameType::kPong:
      AppendVarint(frame.request_id, out);
      break;
    case FrameType::kIngestBatch:
      AppendVarint(frame.request_id, out);
      AppendVarint(frame.events.size(), out);
      for (const serve::Event& event : frame.events) {
        AppendEvent(event, out);
      }
      break;
    case FrameType::kIngestAck:
    case FrameType::kOverloaded:
      AppendVarint(frame.request_id, out);
      out->push_back(static_cast<uint8_t>(frame.status_code));
      AppendVarint(frame.events_applied, out);
      AppendString(frame.text, out);
      break;
    case FrameType::kScore:
      AppendVarint(frame.request_id, out);
      AppendVarint(frame.session_id, out);
      AppendZigzag(frame.label, out);
      break;
    case FrameType::kScoreResult:
      AppendVarint(frame.results.size(), out);
      for (const serve::ScoreResult& result : frame.results) {
        AppendScoreResult(result, out);
      }
      break;
    case FrameType::kMetricsRequest:
    case FrameType::kShutdown:
    case FrameType::kGoodbye:
      break;
    case FrameType::kMetricsResponse:
      AppendString(frame.text, out);
      break;
    case FrameType::kError:
      out->push_back(static_cast<uint8_t>(frame.status_code));
      AppendString(frame.text, out);
      break;
    case FrameType::kSessionExport:
      AppendVarint(frame.request_id, out);
      AppendVarint(frame.session_id, out);
      break;
    case FrameType::kSessionState:
      AppendVarint(frame.request_id, out);
      out->push_back(static_cast<uint8_t>(frame.status_code));
      AppendString(frame.text, out);
      AppendBytes(frame.blob, out);
      break;
    case FrameType::kSessionImport:
      AppendVarint(frame.request_id, out);
      AppendBytes(frame.blob, out);
      break;
    case FrameType::kModelLoad:
      AppendVarint(frame.request_id, out);
      AppendString(frame.name, out);
      AppendString(frame.text, out);
      break;
    case FrameType::kModelActivate:
      AppendVarint(frame.request_id, out);
      AppendString(frame.name, out);
      out->push_back(frame.mode);
      AppendF64(frame.fraction, out);
      break;
    case FrameType::kModelStatus:
      AppendVarint(frame.request_id, out);
      break;
    case FrameType::kModelInfo:
      AppendVarint(frame.request_id, out);
      out->push_back(static_cast<uint8_t>(frame.status_code));
      AppendString(frame.text, out);
      break;
  }

  const uint32_t payload_len = static_cast<uint32_t>(out->size() - payload_at);
  (*out)[header_at + 8] = static_cast<uint8_t>(payload_len & 0xff);
  (*out)[header_at + 9] = static_cast<uint8_t>((payload_len >> 8) & 0xff);
  (*out)[header_at + 10] = static_cast<uint8_t>((payload_len >> 16) & 0xff);
  (*out)[header_at + 11] = static_cast<uint8_t>((payload_len >> 24) & 0xff);
}

Status DecodeFrame(const uint8_t* data, size_t size,
                   uint32_t max_payload_bytes, Frame* frame,
                   size_t* consumed) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) {
    return Status::Ok();  // Need more bytes.
  }
  uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>(data[static_cast<size_t>(i)]) << (8 * i);
  }
  if (magic != kFrameMagic) {
    return CorruptFrame("bad magic");
  }
  if (data[4] != kProtocolVersion) {
    return CorruptFrame("unsupported protocol version " +
                        std::to_string(static_cast<int>(data[4])));
  }
  const uint8_t raw_type = data[5];
  if (raw_type < kMinFrameType || raw_type > kMaxFrameType) {
    return CorruptFrame("unknown frame type " +
                        std::to_string(static_cast<int>(raw_type)));
  }
  if (data[6] != 0 || data[7] != 0) {
    return CorruptFrame("nonzero reserved bits");
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(data[8 + static_cast<size_t>(i)])
                   << (8 * i);
  }
  if (payload_len > max_payload_bytes) {
    return Status::InvalidArgument(
        "oversized frame: " + std::to_string(payload_len) +
        " payload bytes exceeds limit of " +
        std::to_string(max_payload_bytes));
  }
  const size_t total = kFrameHeaderBytes + payload_len;
  if (size < total) {
    return Status::Ok();  // Header fine; wait for the payload.
  }

  *frame = Frame();
  frame->type = static_cast<FrameType>(raw_type);
  Reader reader(data + kFrameHeaderBytes, payload_len);
  bool ok = true;
  switch (frame->type) {
    case FrameType::kPing:
    case FrameType::kPong:
      ok = reader.ReadVarint(&frame->request_id);
      break;
    case FrameType::kIngestBatch: {
      uint64_t count;
      ok = reader.ReadVarint(&frame->request_id) && reader.ReadVarint(&count);
      // Every event costs >= 10 payload bytes (kind + id + time), so a
      // plausible count is bounded by the bytes actually present.
      if (ok && count > reader.remaining()) ok = false;
      if (ok) {
        frame->events.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; ok && i < count; ++i) {
          serve::Event event;
          ok = ReadEvent(reader, &event);
          if (ok) frame->events.push_back(std::move(event));
        }
      }
      break;
    }
    case FrameType::kIngestAck:
    case FrameType::kOverloaded: {
      uint8_t code = 0;
      ok = reader.ReadVarint(&frame->request_id) && reader.ReadU8(&code) &&
           code <= kMaxStatusCode && reader.ReadVarint(&frame->events_applied) &&
           reader.ReadString(&frame->text);
      if (ok) frame->status_code = static_cast<StatusCode>(code);
      break;
    }
    case FrameType::kScore: {
      int64_t label = 0;
      ok = reader.ReadVarint(&frame->request_id) &&
           reader.ReadVarint(&frame->session_id) && reader.ReadZigzag(&label);
      if (ok) frame->label = static_cast<int>(label);
      break;
    }
    case FrameType::kScoreResult: {
      uint64_t count;
      ok = reader.ReadVarint(&count);
      if (ok && count > reader.remaining()) ok = false;
      if (ok) {
        frame->results.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; ok && i < count; ++i) {
          serve::ScoreResult result;
          ok = ReadScoreResult(reader, &result);
          if (ok) frame->results.push_back(std::move(result));
        }
      }
      break;
    }
    case FrameType::kMetricsRequest:
    case FrameType::kShutdown:
    case FrameType::kGoodbye:
      break;
    case FrameType::kMetricsResponse:
      ok = reader.ReadString(&frame->text);
      break;
    case FrameType::kError: {
      uint8_t code = 0;
      ok = reader.ReadU8(&code) && code <= kMaxStatusCode &&
           reader.ReadString(&frame->text);
      if (ok) frame->status_code = static_cast<StatusCode>(code);
      break;
    }
    case FrameType::kSessionExport:
      ok = reader.ReadVarint(&frame->request_id) &&
           reader.ReadVarint(&frame->session_id);
      break;
    case FrameType::kSessionState: {
      uint8_t code = 0;
      ok = reader.ReadVarint(&frame->request_id) && reader.ReadU8(&code) &&
           code <= kMaxStatusCode && reader.ReadString(&frame->text) &&
           reader.ReadBytes(&frame->blob);
      if (ok) frame->status_code = static_cast<StatusCode>(code);
      break;
    }
    case FrameType::kSessionImport:
      ok = reader.ReadVarint(&frame->request_id) &&
           reader.ReadBytes(&frame->blob);
      break;
    case FrameType::kModelLoad:
      ok = reader.ReadVarint(&frame->request_id) &&
           reader.ReadString(&frame->name) &&
           frame->name.size() <= kMaxModelNameBytes &&
           reader.ReadString(&frame->text);
      break;
    case FrameType::kModelActivate:
      ok = reader.ReadVarint(&frame->request_id) &&
           reader.ReadString(&frame->name) &&
           frame->name.size() <= kMaxModelNameBytes &&
           reader.ReadU8(&frame->mode) && frame->mode <= kMaxModelAdminMode &&
           reader.ReadF64(&frame->fraction);
      break;
    case FrameType::kModelStatus:
      ok = reader.ReadVarint(&frame->request_id);
      break;
    case FrameType::kModelInfo: {
      uint8_t code = 0;
      ok = reader.ReadVarint(&frame->request_id) && reader.ReadU8(&code) &&
           code <= kMaxStatusCode && reader.ReadString(&frame->text);
      if (ok) frame->status_code = static_cast<StatusCode>(code);
      break;
    }
  }
  if (!ok || reader.failed()) {
    return CorruptFrame(std::string("truncated ") +
                        FrameTypeName(frame->type) + " payload");
  }
  if (reader.remaining() != 0) {
    return CorruptFrame(std::to_string(reader.remaining()) +
                        " trailing payload bytes after " +
                        FrameTypeName(frame->type));
  }
  *consumed = total;
  return Status::Ok();
}

}  // namespace tpgnn::net
