#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

// Spans around the benchmark's own calls into each layer of the serving
// stack. The benchmark cannot see inside a layer; it times the call it
// makes into it and attributes the call's self time (its duration minus the
// spans nested inside it) to that layer. Memory stays bounded: every call
// feeds a per-(layer, op) log-linear histogram, and full spans are kept
// only for a deterministic sample of sessions, up to a fixed cap. One
// Tracer belongs to one thread; per-thread tracers are merged at the end.

namespace servebench {

enum class Layer : int {
  kWorkload,  // workload::WorkloadGenerator and the offline parity forward.
  kServe,     // serve::InferenceEngine (and through it tensor and core).
  kCluster,   // net::Client against serve_router and its backends.
  kProc,      // Child process spawn, shutdown and /proc sampling.
  kIdle,      // Paced sender waiting for the next due time.
  kCount,
};

enum class Op : int {
  kNext,
  kParity,
  kIngestBegin,
  kIngestEdge,
  kIngestScore,
  kIngestEnd,
  kProcessPending,
  kFlush,
  kIngestBatch,
  kDrainResults,
  kMetrics,
  kShutdown,
  kSample,
  kWait,
  kCount,
};

const char* LayerName(Layer layer);
const char* OpName(Op op);

// Deterministic 1-in-`one_in` session sample, a pure function of the id.
bool SampledSession(uint64_t session_id, uint64_t one_in);

class Tracer {
 public:
  static constexpr int kLayers = static_cast<int>(Layer::kCount);
  static constexpr int kOps = static_cast<int>(Op::kCount);
  static constexpr uint64_t kSpanSampleOneIn = 64;
  static constexpr size_t kMaxSpans = 50000;

  explicit Tracer(bool enabled = false, int thread = 0)
      : enabled_(enabled), thread_(thread) {}

  // RAII span; free when the tracer is disabled.
  class Span {
   public:
    Span(Tracer& tracer, Layer layer, Op op, uint64_t session = 0)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) {
        tracer_->Open(layer, op, session);
      }
    }
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->Close();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  // Durations in nanoseconds of every call into (layer, op).
  const LogLinearHistogram& Calls(Layer layer, Op op) const {
    return calls_[static_cast<int>(layer)][static_cast<int>(op)];
  }
  // Summed self time of a layer's spans.
  uint64_t SelfNanos(Layer layer) const {
    return self_ns_[static_cast<int>(layer)];
  }
  // Wall time this tracer's thread ran traced work; attributed shares are
  // taken over the sum of these.
  void AddWall(double seconds) { wall_s_ += seconds; }
  double wall_seconds() const { return wall_s_; }

  void Merge(const Tracer& other);

  // Appends per-call aggregates, per-layer self times and the sampled
  // spans to `path` as JSON lines tagged with `phase`.
  bool AppendJsonLines(const std::string& path, const std::string& phase) const;

 private:
  struct OpenSpan {
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint64_t session = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    Layer layer = Layer::kWorkload;
    Op op = Op::kNext;
    bool keep = false;
  };
  struct Recorded {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t session = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    int thread = 0;
    Layer layer = Layer::kWorkload;
    Op op = Op::kNext;
  };

  static uint64_t NowNanos();
  void Open(Layer layer, Op op, uint64_t session);
  void Close();

  bool enabled_;
  int thread_;
  double wall_s_ = 0.0;
  uint32_t next_id_ = 1;
  std::vector<OpenSpan> stack_;
  std::array<std::array<LogLinearHistogram, kOps>, kLayers> calls_{};
  std::array<uint64_t, kLayers> self_ns_{};
  std::vector<Recorded> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
