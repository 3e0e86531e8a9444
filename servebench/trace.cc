#include "trace.h"

#include <cstdio>

#include "util/rng.h"

namespace servebench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kServe: return "serve";
    case Layer::kCluster: return "cluster";
    case Layer::kProc: return "proc";
    case Layer::kIdle: return "idle";
    case Layer::kCount: break;
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kNext: return "next";
    case Op::kParity: return "parity";
    case Op::kIngestBegin: return "ingest_begin";
    case Op::kIngestEdge: return "ingest_edge";
    case Op::kIngestScore: return "ingest_score";
    case Op::kIngestEnd: return "ingest_end";
    case Op::kProcessPending: return "process_pending";
    case Op::kFlush: return "flush";
    case Op::kIngestBatch: return "ingest_batch";
    case Op::kDrainResults: return "drain_results";
    case Op::kMetrics: return "metrics";
    case Op::kShutdown: return "shutdown";
    case Op::kSample: return "sample";
    case Op::kWait: return "wait";
    case Op::kCount: break;
  }
  return "?";
}

bool SampledSession(uint64_t session_id, uint64_t one_in) {
  uint64_t state = session_id ^ 0x7370616e73616d70ULL;  // "spansamp"
  return tpgnn::SplitMix64(state) % one_in == 0;
}

uint64_t Tracer::NowNanos() {
  // One origin for every tracer, so spans of different threads line up.
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void Tracer::Open(Layer layer, Op op, uint64_t session) {
  OpenSpan span;
  span.layer = layer;
  span.op = op;
  span.session = session;
  span.id = next_id_++;
  if (!stack_.empty()) {
    span.parent = stack_.back().id;
    span.keep = stack_.back().keep;
  }
  span.keep = span.keep ||
              (session != 0 && SampledSession(session, kSpanSampleOneIn));
  span.start_ns = NowNanos();
  stack_.push_back(span);
}

void Tracer::Close() {
  const uint64_t end = NowNanos();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - span.start_ns;
  const uint64_t self =
      duration > span.child_ns ? duration - span.child_ns : 0;
  calls_[static_cast<int>(span.layer)][static_cast<int>(span.op)].Add(
      duration);
  self_ns_[static_cast<int>(span.layer)] += self;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (span.keep && spans_.size() < kMaxSpans) {
    Recorded r;
    r.start_ns = span.start_ns;
    r.end_ns = end;
    r.session = span.session;
    r.id = span.id;
    r.parent = span.parent;
    r.thread = thread_;
    r.layer = span.layer;
    r.op = span.op;
    spans_.push_back(r);
  }
}

void Tracer::Merge(const Tracer& other) {
  for (int l = 0; l < kLayers; ++l) {
    for (int o = 0; o < kOps; ++o) {
      calls_[l][o].Merge(other.calls_[l][o]);
    }
    self_ns_[l] += other.self_ns_[l];
  }
  wall_s_ += other.wall_s_;
  for (const Recorded& r : other.spans_) {
    if (spans_.size() >= kMaxSpans) {
      break;
    }
    spans_.push_back(r);
  }
}

bool Tracer::AppendJsonLines(const std::string& path,
                             const std::string& phase) const {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    return false;
  }
  for (int l = 0; l < kLayers; ++l) {
    for (int o = 0; o < kOps; ++o) {
      const LogLinearHistogram& h = calls_[l][o];
      if (h.count() == 0) {
        continue;
      }
      std::fprintf(out,
                   "{\"phase\": \"%s\", \"kind\": \"calls\", \"name\": "
                   "\"%s.%s\", \"count\": %llu, \"mean_ns\": %.1f, "
                   "\"p50_ns\": %.1f, \"p99_ns\": %.1f}\n",
                   phase.c_str(), LayerName(static_cast<Layer>(l)),
                   OpName(static_cast<Op>(o)),
                   static_cast<unsigned long long>(h.count()), h.Mean(),
                   h.At(0.5).value, h.At(0.99).value);
    }
    std::fprintf(out,
                 "{\"phase\": \"%s\", \"kind\": \"self\", \"layer\": \"%s\", "
                 "\"self_ns\": %llu, \"wall_ns\": %.0f}\n",
                 phase.c_str(), LayerName(static_cast<Layer>(l)),
                 static_cast<unsigned long long>(self_ns_[l]), wall_s_ * 1e9);
  }
  for (const Recorded& r : spans_) {
    std::fprintf(out,
                 "{\"phase\": \"%s\", \"kind\": \"span\", \"thread\": %d, "
                 "\"id\": %u, \"parent\": %u, \"name\": \"%s.%s\", "
                 "\"session\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 phase.c_str(), r.thread, r.id, r.parent, LayerName(r.layer),
                 OpName(r.op), static_cast<unsigned long long>(r.session),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace servebench
