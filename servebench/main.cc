// servebench: the repository's serving benchmark. One run drives one
// workload through the serving stack's public entry points, in rounds of
// two slices:
//
//   flood  closed loop; the next event (or batch) goes out once the
//          previous one is applied. Gives capacity (events_per_s).
//   paced  open loop; the generator's stream clock is mapped onto wall time
//          at the workload's fixed offered rate, and every request is timed
//          from when it was due.
//
// In-process workloads call serve::InferenceEngine directly from one
// producer thread; network workloads drive net::Client connections (one
// load thread each) against serve_server / serve_router children started
// on ephemeral ports. All traffic comes from workload::WorkloadGenerator
// lanes seeded from --seed. Every run checks its outputs: sampled scores
// must be bitwise equal to an offline TpGnnModel::ForwardLogit, every
// applied Score must resolve exactly once, and the SUT must report zero
// protocol errors and zero mixed-version scores. A breach makes the run
// exit 1.
//
// --trace 1 makes a second kind of run that reports per-layer metrics from
// spans around the benchmark's own calls into each layer (trace.h).
//
// Usage: servebench --workload NAME --seed N --seconds S --trace 0|1
//                   --bin_dir DIR --work_dir DIR [--trace_out FILE]
//        servebench --list_metrics

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "graph/temporal_graph.h"
#include "net/client.h"
#include "pacer.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "stats.h"
#include "sut.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace core = tpgnn::core;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;
using tpgnn::Status;
using tpgnn::StatusCode;

// Sessions whose scores are checked against the offline forward. The
// budget is per slice and lane, so checks cover the start, middle and end
// of every run.
constexpr uint64_t kParityOneIn = 64;
constexpr int kParityChecksPerSlice = 2;
constexpr int kMaxParityChecksPerSession = 3;
// Events per INGEST_BATCH in flood (net::ClientOptions' default slice) and
// the cap on one paced batch of due events.
constexpr size_t kFloodBatch = 256;
constexpr size_t kMaxPacedBatch = 256;
// Consecutive overload answers without progress before an event counts as
// failed.
constexpr int kMaxOverloadRounds = 2000;
constexpr double kPortTimeoutS = 20.0;
constexpr double kChildExitTimeoutS = 10.0;
constexpr size_t kMaxViolationLines = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string trace_out;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list_metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
    } else if (flag == "--bin_dir") {
      args->bin_dir = value;
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else if (flag == "--trace_out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->list_metrics) {
    return true;
  }
  if (args->workload.empty() || args->work_dir.empty() ||
      args->bin_dir.empty() || !(args->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --bin_dir DIR --work_dir DIR "
                 "[--trace_out FILE]\n");
    return false;
  }
  return true;
}

// The model every SUT serves: serve_server's shipped configuration (SUM
// updater, model seed 1, no checkpoint).
core::TpGnnConfig ServingConfig() {
  core::TpGnnConfig config;
  config.updater = core::Updater::kSum;
  return config;
}
constexpr uint64_t kModelSeed = 1;

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class PhaseClock {
 public:
  PhaseClock() : start_(SteadySeconds()) {}
  double Now() const { return SteadySeconds() - start_; }

 private:
  double start_;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Waits for a paced sender's next due time: sleeps while the timer can be
// trusted, then yields the core until due. Returns the CPU seconds the
// wait itself burned, which is the benchmark's pacing, not SUT work.
double WaitUntil(const PhaseClock& clock, double due, Tracer& tracer) {
  Tracer::Span span(tracer, Layer::kIdle, Op::kWait);
  const double cpu0 = ThreadCpuSeconds();
  for (;;) {
    const double left = due - clock.Now();
    if (left <= 0.0) {
      break;
    }
    if (left > 80e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 60e-6));
    } else {
      std::this_thread::yield();
    }
  }
  return ThreadCpuSeconds() - cpu0;
}

// A duration in microseconds as whole nanoseconds, for LogLinearHistogram.
uint64_t Nanos(double us) {
  return us > 0.0 ? static_cast<uint64_t>(std::llround(us * 1e3)) : 0;
}

// A nanosecond percentile in microseconds.
Percentile Micros(Percentile p) {
  p.value /= 1e3;
  return p;
}

Op IngestOp(serve::Event::Kind kind) {
  switch (kind) {
    case serve::Event::Kind::kBegin: return Op::kIngestBegin;
    case serve::Event::Kind::kEdge: return Op::kIngestEdge;
    case serve::Event::Kind::kScore: return Op::kIngestScore;
    case serve::Event::Kind::kEnd: return Op::kIngestEnd;
  }
  return Op::kIngestEdge;
}

// What one phase did, summed over its load threads.
struct PhaseStats {
  std::string name;
  double wall_s = 0.0;
  uint64_t attempted = 0;  // Event sends, resends included.
  uint64_t applied = 0;
  uint64_t shed = 0;       // Sends the SUT shed with kOverloaded.
  uint64_t failed = 0;     // Events never applied.
  uint64_t scores_requested = 0;
  uint64_t scores_ok = 0;
  uint64_t scores_failed = 0;
  uint64_t scores_within_limit = 0;
  uint64_t overload_retries = 0;
  uint64_t batches = 0;
  uint64_t overloaded_frames = 0;
  uint64_t pending_calls = 0;
  uint64_t pending_results = 0;
  double offered = 0.0;        // Events that fell due (paced).
  double wait_cpu_s = 0.0;     // CPU the paced sender burned waiting.
  double score_sum_us = 0.0;   // Paced OK scores, for the client mean.
  // Exact latency samples of one slice. A run keeps only each slice's
  // percentiles and drops the samples when the slice ends.
  Samples ingest_us, score_us;
  // Pooled over the run, in nanoseconds (within 0.4%).
  LogLinearHistogram late_ns, queue_ns, finalize_ns;

  void Merge(const PhaseStats& o) {
    wall_s = std::max(wall_s, o.wall_s);
    attempted += o.attempted;
    applied += o.applied;
    shed += o.shed;
    failed += o.failed;
    scores_requested += o.scores_requested;
    scores_ok += o.scores_ok;
    scores_failed += o.scores_failed;
    scores_within_limit += o.scores_within_limit;
    overload_retries += o.overload_retries;
    batches += o.batches;
    overloaded_frames += o.overloaded_frames;
    pending_calls += o.pending_calls;
    pending_results += o.pending_results;
    offered += o.offered;
    wait_cpu_s += o.wait_cpu_s;
    score_sum_us += o.score_sum_us;
    ingest_us.Append(o.ingest_us);
    score_us.Append(o.score_us);
    late_ns.Merge(o.late_ns);
    queue_ns.Merge(o.queue_ns);
    finalize_ns.Merge(o.finalize_ns);
  }
};

struct ParityCheck {
  uint64_t index = 0;
  int64_t edges = 0;
  float logit = 0.0f;
};

// One load thread's traffic: its generator lane, the score requests it is
// owed answers for, and its parity sample. A session never leaves its lane,
// so per-session event order holds on every topology.
class Lane {
 public:
  Lane(const WorkloadSpec& spec, uint64_t seed, uint64_t lane, int thread)
      : gen_(LaneOptions(spec, seed, lane)),
        stream_rate_(SteadyStreamRate(gen_.options())),
        score_limit_us_(spec.score_limit_us),
        thread_(thread) {}

  void BeginPhase(const std::string& name, bool paced, bool traced) {
    stats_ = PhaseStats();
    stats_.name = name;
    tracer_ = Tracer(traced, thread_);
    paced_ = paced;
    slice_parity_ = 0;
    clock_ = PhaseClock();
  }
  void EndPhase() {
    stats_.wall_s = clock_.Now();
    tracer_.AddWall(stats_.wall_s);
  }

  const serve::Event& Peek() {
    if (!has_next_) {
      Tracer::Span span(tracer_, Layer::kWorkload, Op::kNext);
      gen_.Next(&next_, &next_index_);
      has_next_ = true;
    }
    return next_;
  }
  void Take(serve::Event* event, uint64_t* index) {
    Peek();
    *event = std::move(next_);
    *index = next_index_;
    has_next_ = false;
  }
  double stream_time() { return Peek().time; }
  // Events per stream second of this lane once ramped up; the paced phase
  // divides its offered rate by this to get its speed.
  double stream_rate() const { return stream_rate_; }

  // Bookkeeping once the SUT has applied `event`.
  void Applied(const serve::Event& event, uint64_t index, double due) {
    ++stats_.applied;
    switch (event.kind) {
      case serve::Event::Kind::kBegin:
        if (SampledSession(event.session_id, kParityOneIn)) {
          tracked_[event.session_id] = {index, 0, false};
        }
        break;
      case serve::Event::Kind::kScore:
        ++stats_.scores_requested;
        owed_[event.session_id].push_back(due);
        ++owed_count_;
        break;
      case serve::Event::Kind::kEnd: {
        auto tracked = tracked_.find(event.session_id);
        if (tracked != tracked_.end()) {
          if (owed_.count(event.session_id) == 0) {
            tracked_.erase(tracked);
          } else {
            tracked->second.ended = true;
          }
        }
        break;
      }
      case serve::Event::Kind::kEdge:
        break;
    }
  }

  // Matches a result to the oldest unanswered Score of its session.
  void Resolve(const serve::ScoreResult& result, double now) {
    auto it = owed_.find(result.session_id);
    if (it == owed_.end()) {
      Violation("score result for session " +
                std::to_string(result.session_id) + " with no open request");
      return;
    }
    const double due = it->second.front();
    it->second.pop_front();
    --owed_count_;
    const bool settled = it->second.empty();
    if (settled) {
      owed_.erase(it);
    }
    if (result.status.ok()) {
      ++stats_.scores_ok;
      if (paced_) {
        const double latency = LatencyFromDueUs(due, now);
        stats_.score_us.Add(latency);
        stats_.score_sum_us += latency;
        stats_.scores_within_limit += latency <= score_limit_us_ ? 1 : 0;
        stats_.queue_ns.Add(Nanos(result.queue_micros));
        stats_.finalize_ns.Add(Nanos(result.score_micros));
      }
    } else {
      ++stats_.scores_failed;
    }
    auto tracked = tracked_.find(result.session_id);
    if (tracked == tracked_.end()) {
      return;
    }
    Tracked& t = tracked->second;
    if (result.status.ok() && t.checks < kMaxParityChecksPerSession &&
        slice_parity_ < kParityChecksPerSlice) {
      ++t.checks;
      ++slice_parity_;
      parity_.push_back({t.index, result.edges_scored, result.logit});
    }
    if (t.checks >= kMaxParityChecksPerSession || (t.ended && settled)) {
      tracked_.erase(tracked);
    }
  }

  void Violation(const std::string& text) {
    if (violations_.size() < kMaxViolationLines) {
      violations_.push_back(text);
    }
    ++violation_count_;
  }

  PhaseStats& stats() { return stats_; }
  Tracer& tracer() { return tracer_; }
  const PhaseClock& clock() const { return clock_; }
  bool paced() const { return paced_; }
  size_t owed() const { return owed_count_; }
  const workload::WorkloadGenerator& generator() const { return gen_; }
  const std::vector<ParityCheck>& parity() const { return parity_; }
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t violation_count() const { return violation_count_; }

 private:
  workload::WorkloadGenerator gen_;
  const double stream_rate_;
  const double score_limit_us_;
  const int thread_;
  PhaseStats stats_;
  Tracer tracer_;
  PhaseClock clock_;
  bool paced_ = false;
  serve::Event next_;
  uint64_t next_index_ = 0;
  bool has_next_ = false;
  std::unordered_map<uint64_t, std::deque<double>> owed_;
  size_t owed_count_ = 0;
  // A sampled session, kept until its checks are queued or it has ended
  // with no score outstanding.
  struct Tracked {
    uint64_t index = 0;  // Session index, for MaterializeSession.
    int checks = 0;      // Parity checks queued.
    bool ended = false;
  };
  std::unordered_map<uint64_t, Tracked> tracked_;
  int slice_parity_ = 0;  // Checks queued in this slice.
  std::vector<ParityCheck> parity_;
  std::vector<std::string> violations_;
  uint64_t violation_count_ = 0;
};

// One producer thread calling the engine directly, pumping the score queue
// the way serve_server's poll loop does: whenever a micro-batch is full,
// and (paced) whenever the producer would otherwise wait.
class InProcessLoad {
 public:
  InProcessLoad(serve::InferenceEngine* engine, Lane* lane)
      : engine_(*engine), lane_(*lane) {}

  // Applies `events` events as fast as the engine takes them, or stops at
  // `max_seconds`.
  void Flood(uint64_t events, double max_seconds) {
    serve::Event event;
    uint64_t index = 0;
    for (uint64_t n = 0; n < events; ++n) {
      if ((n & 15) == 0 && lane_.clock().Now() >= max_seconds) {
        break;
      }
      lane_.Take(&event, &index);
      Ingest(event, index, 0.0);
      PumpIfFull();
    }
    FlushAll();
  }

  void Paced(double seconds, const PacedSchedule& schedule) {
    serve::Event event;
    uint64_t index = 0;
    for (;;) {
      const double now = lane_.clock().Now();
      if (now >= seconds) {
        break;
      }
      const double due = schedule.DueSeconds(lane_.Peek().time);
      if (due <= now) {
        lane_.stats().late_ns.Add(Nanos(LatenessUs(due, now)));
        lane_.stats().offered += 1;
        lane_.Take(&event, &index);
        Ingest(event, index, due);
        PumpIfFull();
      } else if (engine_.pending_scores() > 0) {
        Pump();
      } else {
        lane_.stats().wait_cpu_s +=
            WaitUntil(lane_.clock(), due, lane_.tracer());
      }
    }
    FlushAll();
  }

 private:
  void Ingest(const serve::Event& event, uint64_t index, double due) {
    PhaseStats& stats = lane_.stats();
    Status status;
    for (int round = 0;; ++round) {
      {
        Tracer::Span span(lane_.tracer(), Layer::kServe, IngestOp(event.kind),
                          event.session_id);
        status = engine_.Ingest(event);
      }
      ++stats.attempted;
      if (status.code() != StatusCode::kOverloaded ||
          round >= kMaxOverloadRounds) {
        break;
      }
      ++stats.shed;
      ++stats.overload_retries;
      Pump();
    }
    if (!status.ok()) {
      ++stats.failed;
      lane_.Violation("ingest failed: " + status.ToString());
      return;
    }
    lane_.Applied(event, index, due);
    if (lane_.paced()) {
      stats.ingest_us.Add(LatencyFromDueUs(due, lane_.clock().Now()));
    }
  }

  void PumpIfFull() {
    if (engine_.pending_scores() >= engine_.options().max_batch) {
      Pump();
    }
  }

  void Pump() {
    size_t n = 0;
    {
      Tracer::Span span(lane_.tracer(), Layer::kServe, Op::kProcessPending);
      n = engine_.ProcessPending(&results_);
    }
    ++lane_.stats().pending_calls;
    lane_.stats().pending_results += n;
    Deliver();
  }

  void FlushAll() {
    {
      Tracer::Span span(lane_.tracer(), Layer::kServe, Op::kFlush);
      engine_.Flush(&results_);
    }
    Deliver();
  }

  void Deliver() {
    const double now = lane_.clock().Now();
    for (const serve::ScoreResult& result : results_) {
      lane_.Resolve(result, now);
    }
    results_.clear();
  }

  serve::InferenceEngine& engine_;
  Lane& lane_;
  std::vector<serve::ScoreResult> results_;
};

// One load thread on one connection: batched INGEST_BATCH frames carrying
// the lane's events (Scores included), OVERLOADED answered by collecting
// results and resending the shed tail.
class NetLoad {
 public:
  NetLoad(int port, Lane* lane) : client_(Options(port)), lane_(*lane) {}

  Status Connect() { return client_.Connect(); }

  // Sends `events` events in closed-loop batches, or stops at
  // `max_seconds`.
  void Flood(uint64_t events, double max_seconds) {
    uint64_t sent = 0;
    while (sent < events && lane_.clock().Now() < max_seconds && ok_) {
      events_.clear();
      indices_.clear();
      dues_.clear();
      while (events_.size() < kFloodBatch && sent < events) {
        Push(0.0);
        ++sent;
      }
      Send();
    }
    Drain();
  }

  void Paced(double seconds, const PacedSchedule& schedule) {
    for (;;) {
      const double now = lane_.clock().Now();
      if (now >= seconds || !ok_) {
        break;
      }
      events_.clear();
      indices_.clear();
      dues_.clear();
      while (events_.size() < kMaxPacedBatch) {
        const double due = schedule.DueSeconds(lane_.Peek().time);
        if (due > now) {
          break;
        }
        lane_.stats().late_ns.Add(Nanos(LatenessUs(due, now)));
        lane_.stats().offered += 1;
        Push(due);
      }
      if (!events_.empty()) {
        Send();
      } else if (client_.inflight_scores() > 0) {
        Drain();
      } else {
        lane_.stats().wait_cpu_s +=
            WaitUntil(lane_.clock(), schedule.DueSeconds(lane_.Peek().time),
                      lane_.tracer());
      }
    }
    Drain();
  }

  net::Client& client() { return client_; }

 private:
  static net::ClientOptions Options(int port) {
    net::ClientOptions options;
    options.port = port;
    options.io_timeout_ms = 20000;
    return options;
  }

  void Push(double due) {
    events_.emplace_back();
    indices_.push_back(0);
    dues_.push_back(due);
    lane_.Take(&events_.back(), &indices_.back());
  }

  void Send() {
    PhaseStats& stats = lane_.stats();
    uint64_t span_session = 0;
    for (const serve::Event& event : events_) {
      if (SampledSession(event.session_id, Tracer::kSpanSampleOneIn)) {
        span_session = event.session_id;
        break;
      }
    }
    size_t pos = 0;
    int stalls = 0;
    while (pos < events_.size()) {
      const std::vector<serve::Event>* slice = &events_;
      if (pos > 0) {
        tail_.assign(events_.begin() + static_cast<ptrdiff_t>(pos),
                     events_.end());
        slice = &tail_;
      }
      uint64_t applied = 0;
      Status status;
      {
        Tracer::Span span(lane_.tracer(), Layer::kCluster, Op::kIngestBatch,
                          span_session);
        status = client_.IngestBatch(*slice, &applied);
      }
      applied = std::min<uint64_t>(applied, slice->size());
      const double now = lane_.clock().Now();
      stats.attempted += slice->size();
      ++stats.batches;
      for (size_t k = pos; k < pos + applied; ++k) {
        lane_.Applied(events_[k], indices_[k], dues_[k]);
        if (lane_.paced()) {
          stats.ingest_us.Add(LatencyFromDueUs(dues_[k], now));
        }
      }
      Collect();
      pos += applied;
      if (status.ok()) {
        break;
      }
      if (status.code() != StatusCode::kOverloaded) {
        Fail(events_.size() - pos, "ingest batch: " + status.ToString());
        return;
      }
      ++stats.overloaded_frames;
      ++stats.overload_retries;
      stats.shed += slice->size() - applied;
      stalls = applied > 0 ? 0 : stalls + 1;
      if (stalls > kMaxOverloadRounds) {
        Fail(events_.size() - pos, "ingest batch: no progress under overload");
        return;
      }
      if (client_.inflight_scores() > 0) {
        Drain();
      } else {
        std::this_thread::yield();
      }
    }
  }

  void Drain() {
    if (!ok_) {
      return;
    }
    Status status;
    {
      Tracer::Span span(lane_.tracer(), Layer::kCluster, Op::kDrainResults);
      status = client_.DrainResults();
    }
    Collect();
    if (!status.ok()) {
      Fail(0, "drain results: " + status.ToString());
    }
  }

  void Collect() {
    const double now = lane_.clock().Now();
    for (const serve::ScoreResult& result : client_.TakeResults()) {
      lane_.Resolve(result, now);
    }
  }

  void Fail(size_t events_lost, const std::string& why) {
    lane_.stats().failed += events_lost;
    lane_.Violation(why);
    ok_ = false;
  }

  net::Client client_;
  Lane& lane_;
  bool ok_ = true;
  std::vector<serve::Event> events_;
  std::vector<serve::Event> tail_;
  std::vector<uint64_t> indices_;
  std::vector<double> dues_;
};

// ---------------------------------------------------------------------------
// The system under test.

struct ProcRole {
  std::string role;  // engine0, engine1, router, client.
  pid_t pid = 0;     // 0: this process.
  bool sut = false;
};

// The number after "key": inside the "cluster" object of a router METRICS
// payload; 0 when absent.
double ClusterField(const std::string& json, const std::string& key) {
  const size_t section = json.find("\"cluster\"");
  if (section == std::string::npos) {
    return 0.0;
  }
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle, section);
  return at == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + at + needle.size(), nullptr);
}

class Sut {
 public:
  Sut(const Args& args, const WorkloadSpec& spec) : args_(args), spec_(spec) {}
  ~Sut() { Stop(); }

  // One set-up: spawn (or construct) the SUT and apply its first event.
  // Returns the seconds that took.
  Status Start(int trial, double* setup_s) {
    serve::Event begin;
    {
      // The same first event in every run, whatever --seed is: its
      // session's size sets what the first Ingest costs.
      workload::WorkloadGenerator probe(
          LaneOptions(spec_, kSetupSeed, kSetupLane));
      probe.Next(&begin);  // A stream always opens with a Begin.
    }
    serve::Event end;
    end.kind = serve::Event::Kind::kEnd;
    end.session_id = begin.session_id;
    end.time = begin.time;

    const double t0 = SteadySeconds();
    if (spec_.topology == Topology::kInProcess) {
      engine_ = std::make_unique<serve::InferenceEngine>(
          ServingConfig(), kModelSeed, serve::EngineOptions{});
      if (Status s = engine_->Ingest(begin); !s.ok()) {
        return s;
      }
      *setup_s = SteadySeconds() - t0;
      roles_ = {{"engine0", 0, true}};
      return engine_->Ingest(end);
    }

    const std::string tag = args_.work_dir + "/" + spec_.name + "-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(trial);
    // The router and its two backends.
    constexpr int kBackends = 2;
    server_ports_.clear();
    roles_.clear();
    std::vector<ChildProcess*> servers;
    std::vector<std::string> port_files;
    for (int i = 0; i < kBackends; ++i) {
      const std::string name = tag + "-engine" + std::to_string(i);
      port_files.push_back(name + ".port");
      std::remove(port_files.back().c_str());
      children_.push_back(std::make_unique<ChildProcess>());
      ChildProcess& child = *children_.back();
      if (Status s = child.Spawn(args_.bin_dir + "/serve_server",
                                 {"--port=0", "--port_file=" + port_files[i]},
                                 name + ".log");
          !s.ok()) {
        return s;
      }
      servers.push_back(&child);
      roles_.push_back({"engine" + std::to_string(i), child.pid(), true});
    }
    std::string backends;
    for (int i = 0; i < kBackends; ++i) {
      int port = 0;
      if (Status s =
              WaitForPortFile(port_files[i], *servers[i], kPortTimeoutS, &port);
          !s.ok()) {
        return s;
      }
      server_ports_.push_back(port);
      backends += (i > 0 ? ",127.0.0.1:" : "127.0.0.1:") + std::to_string(port);
    }
    const std::string port_file = tag + "-router.port";
    std::remove(port_file.c_str());
    children_.push_back(std::make_unique<ChildProcess>());
    ChildProcess& router = *children_.back();
    if (Status s = router.Spawn(args_.bin_dir + "/serve_router",
                                {"--port=0", "--port_file=" + port_file,
                                 "--backends=" + backends},
                                tag + "-router.log");
        !s.ok()) {
      return s;
    }
    roles_.push_back({"router", router.pid(), true});
    if (Status s = WaitForPortFile(port_file, router, kPortTimeoutS, &port_);
        !s.ok()) {
      return s;
    }
    roles_.push_back({"client", 0, false});

    net::ClientOptions options;
    options.port = port_;
    options.io_timeout_ms = 20000;
    control_ = std::make_unique<net::Client>(options);
    if (Status s = control_->Connect(); !s.ok()) {
      return s;
    }
    // A router dials its backends lazily and sheds until one is up, so the
    // first event is retried until it is applied.
    const std::vector<serve::Event> first = {begin};
    for (int round = 0;; ++round) {
      uint64_t applied = 0;
      Status s = control_->IngestBatch(first, &applied);
      if (s.ok() && applied == 1) {
        break;
      }
      if (s.code() != StatusCode::kOverloaded || round > 20000) {
        return s.ok() ? Status::Internal("first event not applied") : s;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *setup_s = SteadySeconds() - t0;
    return control_->IngestBatch({end});
  }

  // SHUTDOWN cascade (router -> backends, or the one server), then a timed
  // kill for any child still running. Returns the children killed.
  int Stop(Tracer* tracer = nullptr) {
    engine_.reset();
    if (control_ != nullptr) {
      Tracer local;
      Tracer::Span span(tracer != nullptr ? *tracer : local, Layer::kProc,
                        Op::kShutdown);
      control_->Shutdown();
      control_.reset();
    }
    int killed = 0;
    for (auto& child : children_) {
      if (!child->WaitExit(kChildExitTimeoutS)) {
        child->Kill();
        ++killed;
      }
    }
    return killed;
  }

  // True when every child this SUT ever spawned has been reaped.
  bool AllReaped() const {
    for (const auto& child : children_) {
      if (!child->reaped()) {
        return false;
      }
    }
    return true;
  }

  // The SUT's metrics: the engine's own, or the METRICS RPC (merged across
  // backends by the router). `raw` receives the JSON payload.
  Status Snapshot(serve::MetricsSnapshot* snap, std::string* raw,
                  Tracer* tracer) {
    Tracer local;
    Tracer::Span span(tracer != nullptr ? *tracer : local,
                      engine_ != nullptr ? Layer::kServe : Layer::kCluster,
                      Op::kMetrics);
    if (engine_ != nullptr) {
      engine_->mutable_metrics().UpdateResourcePeaks();
      *snap = engine_->metrics().Snapshot();
      raw->clear();
      return Status::Ok();
    }
    if (Status s = control_->GetMetricsJson(raw); !s.ok()) {
      return s;
    }
    return serve::ParseMetricsJson(*raw, snap);
  }

  // events_ingested of each serve_server, asked directly.
  std::vector<double> BackendEvents() {
    std::vector<double> events;
    for (int port : server_ports_) {
      net::ClientOptions options;
      options.port = port;
      net::Client client(options);
      std::string json;
      serve::MetricsSnapshot snap;
      if (client.Connect().ok() && client.GetMetricsJson(&json).ok() &&
          serve::ParseMetricsJson(json, &snap).ok()) {
        events.push_back(static_cast<double>(snap.events_ingested));
      }
    }
    return events;
  }

  std::vector<ProcSample> SampleProcs(Tracer* tracer) const {
    Tracer local;
    Tracer::Span span(tracer != nullptr ? *tracer : local, Layer::kProc,
                      Op::kSample);
    std::vector<ProcSample> samples(roles_.size());
    for (size_t i = 0; i < roles_.size(); ++i) {
      ReadProcSample(roles_[i].pid, &samples[i]);
    }
    return samples;
  }

  serve::InferenceEngine* engine() { return engine_.get(); }
  int port() const { return port_; }
  const std::vector<ProcRole>& roles() const { return roles_; }

 private:
  const Args& args_;
  const WorkloadSpec& spec_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  // Every child ever spawned, kept until the run ends so the outlive check
  // can see each one reaped.
  std::vector<std::unique_ptr<ChildProcess>> children_;
  std::vector<int> server_ports_;
  int port_ = 0;
  std::unique_ptr<net::Client> control_;
  std::vector<ProcRole> roles_;
};

// ---------------------------------------------------------------------------
// Offline parity: rebuild the scored prefix from (seed, index) and run the
// inference-mode forward of an independently constructed model.

float OfflineLogit(core::TpGnnModel& model,
                   const workload::MaterializedSession& session,
                   int64_t edges) {
  tpgnn::graph::TemporalGraph prefix(session.num_nodes, session.feature_dim);
  for (int64_t node = 0; node < session.num_nodes; ++node) {
    prefix.SetNodeFeature(node, session.features[static_cast<size_t>(node)]);
  }
  for (int64_t k = 0; k < edges; ++k) {
    const auto& e = session.edges[static_cast<size_t>(k)];
    prefix.AddEdge(e.src, e.dst, e.time);
  }
  tpgnn::tensor::NoGradGuard no_grad;
  tpgnn::Rng rng(0);
  return model.ForwardLogit(prefix, /*training=*/false, rng).item();
}

struct ParityResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  double seconds = 0.0;
};

ParityResult CheckParity(const std::vector<Lane*>& lanes, Tracer& tracer,
                         std::vector<std::string>* violations) {
  ParityResult result;
  const double t0 = SteadySeconds();
  core::TpGnnModel model(ServingConfig(), kModelSeed);
  for (Lane* lane : lanes) {
    for (const ParityCheck& check : lane->parity()) {
      Tracer::Span span(tracer, Layer::kWorkload, Op::kParity);
      const workload::MaterializedSession session =
          lane->generator().MaterializeSession(check.index);
      ++result.checked;
      if (check.edges < 0 ||
          static_cast<size_t>(check.edges) > session.edges.size()) {
        ++result.mismatches;
        violations->push_back("parity: session index " +
                              std::to_string(check.index) + " scored " +
                              std::to_string(check.edges) + " edges of " +
                              std::to_string(session.edges.size()));
        continue;
      }
      const float offline = OfflineLogit(model, session, check.edges);
      if (std::memcmp(&offline, &check.logit, sizeof(float)) != 0) {
        ++result.mismatches;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "parity: session index %llu at %lld edges served "
                      "%.9g, offline %.9g",
                      static_cast<unsigned long long>(check.index),
                      static_cast<long long>(check.edges), check.logit,
                      offline);
        violations->push_back(line);
      }
    }
  }
  result.seconds = SteadySeconds() - t0;
  return result;
}

// ---------------------------------------------------------------------------
// Reporting.

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void SetPercentile(const std::string& name, const Percentile& p) {
    values_[name] = p.value;
    evidence_[name] = p;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  // Prints every metric of `defs` by name and unit, then the result line.
  // A metric the run failed to compute is a breach.
  void Print(const std::vector<MetricDef>& defs, uint64_t attempted,
             uint64_t failed,
             std::vector<std::string>* violations) const {
    for (const MetricDef& def : defs) {
      if (!Has(def.name)) {
        violations->push_back(std::string("metric not computed: ") +
                              def.name);
      }
    }
    for (const MetricDef& def : defs) {
      const auto ev = evidence_.find(def.name);
      if (ev != evidence_.end()) {
        std::printf("metric %-34s %.6g %s (n=%llu, beyond=%llu)\n", def.name,
                    Get(def.name), def.unit,
                    static_cast<unsigned long long>(ev->second.count),
                    static_cast<unsigned long long>(ev->second.beyond));
      } else {
        std::printf("metric %-34s %.6g %s\n", def.name, Get(def.name),
                    def.unit);
      }
    }
    for (const std::string& v : *violations) {
      std::printf("VIOLATION %s\n", v.c_str());
    }
    std::string json = "{\"correct\": ";
    json += violations->empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : defs) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", Get(def.name));
      json += std::string(first ? "" : ", ") + "\"" + def.name +
              "\": {\"value\": " + value + ", \"unit\": \"" + def.unit +
              "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, Percentile> evidence_;
};

void PrintPhase(const PhaseStats& s) {
  std::printf(
      "phase %-6s wall=%.3fs sent=%llu applied=%llu shed=%llu failed=%llu "
      "scores requested=%llu ok=%llu failed=%llu\n",
      s.name.c_str(), s.wall_s, static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.applied),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.scores_requested),
      static_cast<unsigned long long>(s.scores_ok),
      static_cast<unsigned long long>(s.scores_failed));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The median of the last third of `values` over the median of the first.
double LastOverFirstThird(const std::vector<double>& values) {
  const size_t third = values.size() / 3;
  if (third == 0) {
    return 0.0;
  }
  const auto span = static_cast<ptrdiff_t>(third);
  return Ratio(
      SliceMedian(std::vector<double>(values.end() - span, values.end())),
      SliceMedian(std::vector<double>(values.begin(), values.begin() + span)));
}

// ---------------------------------------------------------------------------
// One run.

struct PhasePlan {
  std::string name;
  bool paced = false;
  bool traced = false;
  double seconds = 0.0;  // Paced: the slice length. Flood: a safety cap.
  uint64_t events = 0;   // Flood: events per slice, all lanes.
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Precise sleeps for the paced sender.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("isa=%s hardware_threads=%u\n",
              tpgnn::tensor::SimdModeName(tpgnn::tensor::ActiveSimdMode()),
              std::thread::hardware_concurrency());

  std::vector<std::string> violations;
  const bool in_process = spec->topology == Topology::kInProcess;

  // The SUT that serves the run. Its set-up is the first of the run's
  // set-up trials; one more follows between every two rounds (below), so
  // setup_s is a median over the whole run, not one moment of the host.
  Sut sut(args, *spec);
  std::vector<double> setups(1, 0.0);
  if (Status s = sut.Start(0, &setups[0]); !s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    sut.Stop();
    return 1;
  }
  int killed = 0;
  // A fresh SUT started and stopped again, timed the same way.
  auto setup_trial = [&](int trial) {
    Sut fresh(args, *spec);
    double setup_s = 0.0;
    const Status s = fresh.Start(trial, &setup_s);
    killed += fresh.Stop();
    if (!s.ok()) {
      violations.push_back("set-up trial: " + s.ToString());
    } else {
      setups.push_back(setup_s);
    }
    if (!fresh.AllReaped()) {
      violations.push_back("a set-up trial's child outlived it");
    }
  };

  // The run is a sequence of rounds of about 1.3 s, each a flood slice of
  // a fixed event count (about 0.3 s) and a 1 s paced slice, until
  // --seconds have passed; 1 s gives every paced slice a score p99 with at
  // least ten samples beyond it. Each slice ends drained, so the slices are
  // independent samples of the same SUT as its state grows. A traced run
  // splits each flood slice into an untraced (flood0) and a traced (flood)
  // half, alternating which goes first, so trace.overhead compares like
  // with like.
  const double paced_s = 1.0;
  const double flood_cap_s = 3.0;
  auto round_plan = [&](int r) {
    std::vector<PhasePlan> round;
    if (!args.trace) {
      round.push_back({"flood", false, false, flood_cap_s, spec->flood_events});
    } else {
      const uint64_t half = spec->flood_events / 2;
      const bool traced_first = r % 2 == 1;
      round.push_back({traced_first ? "flood" : "flood0", false, traced_first,
                       flood_cap_s, half});
      round.push_back({traced_first ? "flood0" : "flood", false, !traced_first,
                       flood_cap_s, half});
    }
    round.push_back({"paced", true, args.trace, paced_s, 0});
    return round;
  };

  std::vector<std::unique_ptr<Lane>> lanes;
  for (int i = 0; i < spec->load_threads; ++i) {
    lanes.push_back(std::make_unique<Lane>(*spec, args.seed, i, i));
  }
  std::vector<std::unique_ptr<InProcessLoad>> inproc;
  std::vector<std::unique_ptr<NetLoad>> netdrv;
  for (auto& lane : lanes) {
    if (in_process) {
      inproc.push_back(
          std::make_unique<InProcessLoad>(sut.engine(), lane.get()));
    } else {
      netdrv.push_back(
          std::make_unique<NetLoad>(sut.port(), lane.get()));
      if (Status st = netdrv.back()->Connect(); !st.ok()) {
        std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  Tracer main_tracer(args.trace, -1);
  serve::MetricsSnapshot base_snap, end_snap;
  std::string base_raw, end_raw;
  if (Status st = sut.Snapshot(&base_snap, &base_raw, nullptr); !st.ok()) {
    violations.push_back("metrics: " + st.ToString());
  }

  // Slices of one phase: each reduced to its own figures when it ends (its
  // samples dropped), and its counts summed under the phase's name.
  struct Slice {
    double rate = 0.0;  // Events applied per second.
    Percentile score_p50, score_p99, ingest_p50, ingest_p99;
    double within = 0.0;  // Share of Score requests OK within the limit.
    double cpu_per_mevent = 0.0;
  };
  struct PhaseAgg {
    PhaseStats stats;
    Tracer tracer;
    std::vector<Slice> slices;
    std::vector<ProcSample> before;  // At the start of the first slice.
    std::vector<ProcSample> after;   // At the end of the last slice.
    std::vector<double> cpu_s;       // Per role, summed over the slices.
    double e2e_sum_us = 0.0;         // SUT e2e histogram over the slices.
    uint64_t e2e_count = 0;
  };
  std::map<std::string, PhaseAgg> phases;
  const std::vector<ProcRole>& roles = sut.roles();
  auto run_slice = [&](const PhasePlan& p) {
    serve::MetricsSnapshot snap_before, snap_after;
    std::string raw;
    if (p.paced) {
      if (Status st = sut.Snapshot(&snap_before, &raw, &main_tracer);
          !st.ok()) {
        violations.push_back("metrics: " + st.ToString());
      }
    }
    const std::vector<ProcSample> before = sut.SampleProcs(&main_tracer);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < lanes.size(); ++i) {
      Lane* lane = lanes[i].get();
      InProcessLoad* in = in_process ? inproc[i].get() : nullptr;
      NetLoad* nd = in_process ? nullptr : netdrv[i].get();
      const double speed = PacedSchedule::SpeedFor(
          spec->paced_rate / static_cast<double>(lanes.size()),
          lane->stream_rate());
      const uint64_t events = p.events / lanes.size();
      auto body = [lane, in, nd, p, speed, events] {
        lane->BeginPhase(p.name, p.paced, p.traced);
        const PacedSchedule sched(lane->stream_time(), speed);
        if (in != nullptr) {
          p.paced ? in->Paced(p.seconds, sched)
                  : in->Flood(events, p.seconds);
        } else {
          p.paced ? nd->Paced(p.seconds, sched)
                  : nd->Flood(events, p.seconds);
        }
        lane->EndPhase();
      };
      if (lanes.size() == 1) {
        body();
      } else {
        threads.emplace_back(body);
      }
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const std::vector<ProcSample> after = sut.SampleProcs(&main_tracer);

    PhaseAgg& agg = phases[p.name];
    if (agg.before.empty()) {
      agg.stats.name = p.name;
      agg.before = before;
      agg.cpu_s.assign(before.size(), 0.0);
    }
    agg.after = after;
    PhaseStats stats;
    stats.name = p.name;
    for (auto& lane : lanes) {
      stats.Merge(lane->stats());  // Threads overlap: wall is the max.
      agg.tracer.Merge(lane->tracer());
    }
    double sut_cpu_s = 0.0;
    for (size_t i = 0; i < before.size(); ++i) {
      const double cpu = after[i].cpu_s - before[i].cpu_s;
      agg.cpu_s[i] += cpu;
      sut_cpu_s += roles[i].sut ? cpu : 0.0;
    }
    // In process the producer thread is both load and SUT; the CPU its
    // paced waits burned is the benchmark's, not the SUT's.
    if (in_process) {
      sut_cpu_s -= stats.wait_cpu_s;
    }
    Slice slice;
    slice.rate = Ratio(static_cast<double>(stats.applied), stats.wall_s);
    slice.score_p50 = stats.score_us.At(0.5);
    slice.score_p99 = stats.score_us.At(0.99);
    slice.ingest_p50 = stats.ingest_us.At(0.5);
    slice.ingest_p99 = stats.ingest_us.At(0.99);
    slice.within = Ratio(static_cast<double>(stats.scores_within_limit),
                         static_cast<double>(stats.scores_requested));
    slice.cpu_per_mevent =
        Ratio(sut_cpu_s, static_cast<double>(stats.applied) / 1e6);
    stats.score_us.Clear();
    stats.ingest_us.Clear();
    if (p.paced) {
      if (Status st = sut.Snapshot(&snap_after, &raw, &main_tracer);
          !st.ok()) {
        violations.push_back("metrics: " + st.ToString());
      }
      agg.e2e_sum_us +=
          snap_after.e2e_latency.sum_micros -
          snap_before.e2e_latency.sum_micros;
      agg.e2e_count +=
          snap_after.e2e_latency.count - snap_before.e2e_latency.count;
    }
    const double wall = agg.stats.wall_s;
    agg.stats.Merge(stats);
    agg.stats.wall_s = wall + stats.wall_s;  // Slices follow each other.
    agg.slices.push_back(slice);
  };
  const PhaseClock run_clock;
  for (int r = 0; r < 2 || run_clock.Now() < args.seconds; ++r) {
    if (r > 0) {
      setup_trial(r);
    }
    for (const PhasePlan& p : round_plan(r)) {
      run_slice(p);
    }
  }
  for (const auto& [name, agg] : phases) {
    PrintPhase(agg.stats);
  }

  // The in-process serve probe of a network workload's traffic mix: the
  // serve-layer call costs of the same events, measured where the
  // benchmark can see them.
  std::unique_ptr<Lane> probe_lane;
  if (args.trace && !in_process) {
    probe_lane = std::make_unique<Lane>(*spec, args.seed, kServeProbeLane, 9);
    serve::InferenceEngine engine(ServingConfig(), kModelSeed,
                                  serve::EngineOptions{});
    InProcessLoad probe(&engine, probe_lane.get());
    probe_lane->BeginPhase("probe", false, true);
    probe.Flood(5 * spec->flood_events, 5 * flood_cap_s);
    probe_lane->EndPhase();
    PrintPhase(probe_lane->stats());
  }

  if (Status st = sut.Snapshot(&end_snap, &end_raw, &main_tracer); !st.ok()) {
    violations.push_back("metrics: " + st.ToString());
  }
  const std::vector<ProcSample> end_procs = sut.SampleProcs(&main_tracer);
  const std::vector<double> backend_events =
      spec->topology == Topology::kRouted ? sut.BackendEvents()
                                          : std::vector<double>{};

  // Correctness.
  std::vector<Lane*> all_lanes;
  for (auto& lane : lanes) {
    all_lanes.push_back(lane.get());
  }
  if (probe_lane != nullptr) {
    all_lanes.push_back(probe_lane.get());
  }
  uint64_t unresolved = 0;
  for (Lane* lane : all_lanes) {
    unresolved += lane->owed();
    for (const std::string& v : lane->violations()) {
      violations.push_back(v);
    }
    if (lane->violation_count() > lane->violations().size()) {
      violations.push_back(
          std::to_string(lane->violation_count() - lane->violations().size()) +
          " more violations of this kind");
    }
  }
  if (unresolved > 0) {
    violations.push_back(std::to_string(unresolved) +
                         " score requests never resolved");
  }
  if (end_snap.protocol_errors != 0 ||
      ClusterField(end_raw, "router_protocol_errors") != 0.0) {
    violations.push_back("protocol_errors != 0");
  }
  if (end_snap.mixed_version_scores != 0) {
    violations.push_back("mixed_version_scores != 0");
  }
  const ParityResult parity = CheckParity(all_lanes, main_tracer, &violations);
  if (parity.checked == 0) {
    violations.push_back("no score was checked for parity");
  }

  // Teardown and the outlive check.
  killed += sut.Stop(&main_tracer);
  if (!sut.AllReaped()) {
    violations.push_back("a child process outlived the run");
  }

  // Totals over every phase.
  uint64_t attempted = 0, failed = 0, shed = 0, applied = 0;
  for (const auto& [name, agg] : phases) {
    const PhaseStats& st = agg.stats;
    attempted += st.attempted;
    failed += st.failed + st.scores_failed;
    shed += st.shed;
    applied += st.applied;
  }

  Report report;
  const PhaseAgg& flood_agg = phases["flood"];
  PhaseAgg& paced_agg = phases["paced"];
  const PhaseStats& flood = flood_agg.stats;
  PhaseStats& paced = paced_agg.stats;
  const double paced_wall = std::max(paced.wall_s, 1e-9);

  // End-to-end: the median slice (see SliceMedian).
  std::vector<double> rates, cpu_per_mevent, score_p50_values;
  std::vector<Percentile> score_p50, score_p99, ingest_p50, ingest_p99;
  for (const Slice& slice : flood_agg.slices) {
    rates.push_back(slice.rate);
  }
  std::printf("paced slices (score p50/p99 us, ingest p50/p99 us, within, "
              "cpu s/Mevent):\n");
  for (size_t i = 0; i < paced_agg.slices.size(); ++i) {
    const Slice& slice = paced_agg.slices[i];
    std::printf("  %3zu %9.2f %9.2f %9.2f %9.2f %.5f %.3f\n", i,
                slice.score_p50.value, slice.score_p99.value,
                slice.ingest_p50.value, slice.ingest_p99.value, slice.within,
                slice.cpu_per_mevent);
    for (auto [from, to] : {std::pair{&slice.score_p50, &score_p50},
                            std::pair{&slice.score_p99, &score_p99},
                            std::pair{&slice.ingest_p50, &ingest_p50},
                            std::pair{&slice.ingest_p99, &ingest_p99}}) {
      if (from->count > 0) {
        to->push_back(*from);
      }
    }
    score_p50_values.push_back(slice.score_p50.value);
    cpu_per_mevent.push_back(slice.cpu_per_mevent);
  }
  report.Set("events_per_s", SliceMedian(rates));
  report.SetPercentile("score_p50_us", SliceMedian(score_p50));
  report.SetPercentile("score_p99_us", SliceMedian(score_p99));
  report.SetPercentile("ingest_p50_us", SliceMedian(ingest_p50));
  report.SetPercentile("ingest_p99_us", SliceMedian(ingest_p99));
  // Over every paced Score of the run, not the median slice: this is the
  // end-to-end gate on the tail, so a stall in any slice counts.
  report.Set("score_within_limit",
             Ratio(static_cast<double>(paced.scores_within_limit),
                   static_cast<double>(paced.scores_requested)));
  report.Set("cpu_s_per_mevent", SliceMedian(cpu_per_mevent));
  double sut_hwm = 0.0;
  for (size_t i = 0; i < roles.size(); ++i) {
    sut_hwm += roles[i].sut ? end_procs[i].hwm_mb : 0.0;
  }
  report.Set("rss_peak_mb", sut_hwm);
  report.Set("setup_s", SliceMedian(setups));
  std::printf("setup trials:");
  for (double v : setups) {
    std::printf(" %.6fs", v);
  }
  std::printf("\nflood slices (events/s):");
  for (double v : rates) {
    std::printf(" %.0f", v);
  }
  std::printf("\n");
  // How the run's last third compares with its first: state that grows
  // through the run (routed_churn never ends its abandoned sessions) shows
  // here before it moves the median slice.
  report.Set("trend.events_per_s", LastOverFirstThird(rates));
  report.Set("trend.score_p50", LastOverFirstThird(score_p50_values));
  std::printf("trend last/first third: events_per_s %.3f score_p50 %.3f\n",
              report.Get("trend.events_per_s"), report.Get("trend.score_p50"));

  // Per-layer.
  report.Set("failed_ratio",
             Ratio(static_cast<double>(shed + failed),
                   static_cast<double>(attempted)));
  report.Set("parity_mismatches", static_cast<double>(parity.mismatches));
  const Tracer& flood_tr = flood_agg.tracer;
  const Tracer& paced_tr = paced_agg.tracer;
  const Tracer& serve_tr =
      probe_lane != nullptr ? probe_lane->tracer() : flood_tr;
  const PhaseStats& serve_stats =
      probe_lane != nullptr ? probe_lane->stats() : paced;
  report.Set("workload.next_ns",
             flood_tr.Calls(Layer::kWorkload, Op::kNext).Mean());
  report.SetPercentile("workload.late_p99_us", Micros(paced.late_ns.At(0.99)));
  report.Set("workload.offered_per_s", paced.offered / paced_wall);
  report.Set("workload.parity_checked", static_cast<double>(parity.checked));
  report.Set("workload.parity_s", parity.seconds);
  const LogLinearHistogram& edge_calls =
      serve_tr.Calls(Layer::kServe, Op::kIngestEdge);
  report.SetPercentile("serve.ingest_edge_ns_p50", edge_calls.At(0.5));
  report.SetPercentile("serve.ingest_edge_ns_p99", edge_calls.At(0.99));
  report.Set("serve.edges", static_cast<double>(end_snap.edges_ingested -
                                                base_snap.edges_ingested));
  report.Set("serve.ingest_begin_us",
             serve_tr.Calls(Layer::kServe, Op::kIngestBegin).Mean() / 1e3);
  report.Set("serve.ingest_end_ns",
             serve_tr.Calls(Layer::kServe, Op::kIngestEnd).Mean());
  report.Set("serve.ingest_score_ns",
             serve_tr.Calls(Layer::kServe, Op::kIngestScore).Mean());
  report.Set("serve.pending_calls",
             static_cast<double>(serve_stats.pending_calls));
  report.Set("serve.batch_mean",
             Ratio(static_cast<double>(serve_stats.pending_results),
                   static_cast<double>(serve_stats.pending_calls)));
  report.SetPercentile("serve.queue_us_p50", Micros(paced.queue_ns.At(0.5)));
  report.SetPercentile("serve.queue_us_p99", Micros(paced.queue_ns.At(0.99)));
  report.SetPercentile("serve.finalize_us_p50",
                       Micros(paced.finalize_ns.At(0.5)));
  report.SetPercentile("serve.finalize_us_p99",
                       Micros(paced.finalize_ns.At(0.99)));
  uint64_t retries = 0;
  for (const auto& [name, agg] : phases) {
    const PhaseStats& st = agg.stats;
    retries += st.overload_retries;
  }
  report.Set("serve.overload_retries", static_cast<double>(retries));
  report.Set("serve.ingest_accept_ratio",
             Ratio(static_cast<double>(applied),
                   static_cast<double>(attempted)));
  report.Set("serve.busy_share",
             Ratio(static_cast<double>(serve_tr.SelfNanos(Layer::kServe)) / 1e9,
                   serve_tr.wall_seconds()));
  report.Set("serve.state_refolds",
             static_cast<double>(end_snap.state_refolds -
                                 base_snap.state_refolds));
  report.Set("serve.state_rescales",
             static_cast<double>(end_snap.state_rescales -
                                 base_snap.state_rescales));
  report.Set("serve.sessions_evicted",
             static_cast<double>(end_snap.sessions_evicted -
                                 base_snap.sessions_evicted));
  report.Set("serve.resident_sessions",
             static_cast<double>(end_snap.sessions_begun) -
                 static_cast<double>(end_snap.sessions_ended) -
                 static_cast<double>(end_snap.sessions_evicted));
  report.Set("serve.mixed_version_scores",
             static_cast<double>(end_snap.mixed_version_scores));

  // Network and cluster.
  const double paced_server_e2e =
      Ratio(paced_agg.e2e_sum_us, static_cast<double>(paced_agg.e2e_count));
  const double client_score_mean =
      Ratio(paced.score_sum_us, static_cast<double>(paced.scores_ok));
  const LogLinearHistogram& rtt =
      paced_tr.Calls(Layer::kCluster, Op::kIngestBatch);
  report.Set("net.ingest_rtt_us_p50",
             in_process ? 0.0 : rtt.At(0.5).value / 1e3);
  report.Set("net.ingest_rtt_us_p99",
             in_process ? 0.0 : rtt.At(0.99).value / 1e3);
  uint64_t batches = 0, overloaded = 0;
  for (const auto& [name, agg] : phases) {
    const PhaseStats& st = agg.stats;
    batches += st.batches;
    overloaded += st.overloaded_frames;
  }
  report.Set("net.events_per_frame",
             Ratio(static_cast<double>(applied), static_cast<double>(batches)));
  report.Set("net.bytes_per_event",
             Ratio(static_cast<double>(end_snap.bytes_received -
                                       base_snap.bytes_received),
                   static_cast<double>(applied)));
  report.Set("net.server_e2e_mean_us", in_process ? 0.0 : paced_server_e2e);
  report.Set("net.overloaded_frame_ratio",
             Ratio(static_cast<double>(overloaded),
                   static_cast<double>(batches)));
  report.Set("net.protocol_errors",
             static_cast<double>(end_snap.protocol_errors) +
                 ClusterField(end_raw, "router_protocol_errors"));
  const bool routed = spec->topology == Topology::kRouted;
  report.Set("cluster.hop_us",
             routed ? client_score_mean - paced_server_e2e : 0.0);
  double router_cores = 0.0, router_growth = 0.0, backend_growth = 0.0;
  for (size_t i = 0; i < roles.size(); ++i) {
    const double growth =
        paced_agg.after[i].rss_mb - paced_agg.before[i].rss_mb;
    if (roles[i].role == "router") {
      router_cores = paced_agg.cpu_s[i] / paced_wall;
      router_growth = growth;
    } else if (routed && roles[i].role.rfind("engine", 0) == 0) {
      backend_growth += growth;
    }
  }
  report.Set("cluster.router_cpu_cores", router_cores);
  report.Set("cluster.router_rss_growth_mb", router_growth);
  report.Set("cluster.backend_rss_growth_mb", backend_growth);
  report.Set("cluster.router_resident_sessions",
             ClusterField(end_raw, "resident_sessions"));
  double skew = 0.0;
  if (!backend_events.empty()) {
    double sum = 0.0, max = 0.0;
    for (double e : backend_events) {
      sum += e;
      max = std::max(max, e);
    }
    skew = Ratio(max, sum / static_cast<double>(backend_events.size()));
  }
  report.Set("cluster.backend_skew", skew);
  for (const char* key : {"probes_missed", "backend_failovers",
                          "overloads_shed"}) {
    report.Set(std::string("cluster.") + key,
               ClusterField(end_raw, key) - ClusterField(base_raw, key));
  }

  // Processes: cores over the flood phase, memory at the end.
  double sut_cores = 0.0;
  for (const char* role : {"engine0", "engine1", "router", "client"}) {
    double cores = 0.0, rss = 0.0;
    for (size_t i = 0; i < roles.size(); ++i) {
      if (roles[i].role == role) {
        cores = flood_agg.cpu_s[i] /
                std::max(flood.wall_s, 1e-9);
        rss = end_procs[i].rss_mb;
        sut_cores += roles[i].sut ? cores : 0.0;
      }
    }
    report.Set(std::string("proc.cpu_cores.") + role, cores);
    report.Set(std::string("proc.rss_mb.") + role, rss);
  }
  report.Set("proc.cpu_cores.sut", sut_cores);
  report.Set("proc.kill_fallbacks", static_cast<double>(killed));
  report.Set("util.pool_bytes_peak",
             static_cast<double>(end_snap.pool_bytes_peak));

  // Trace shares over the traced phases, all threads.
  if (args.trace) {
    Tracer traced(true, 0);
    traced.Merge(flood_tr);
    traced.Merge(paced_tr);
    const double wall = std::max(traced.wall_seconds(), 1e-9);
    double attributed = 0.0;
    for (Layer layer :
         {Layer::kWorkload, Layer::kServe, Layer::kCluster, Layer::kProc}) {
      const double share =
          static_cast<double>(traced.SelfNanos(layer)) / 1e9 / wall;
      report.Set(std::string("trace.self_share.") + LayerName(layer), share);
      attributed += share;
    }
    const double idle =
        static_cast<double>(traced.SelfNanos(Layer::kIdle)) / 1e9 / wall;
    report.Set("trace.attributed_share", attributed);
    report.Set("trace.idle_share", idle);
    report.Set("trace.bench_share", 1.0 - attributed - idle);
    const PhaseStats& untraced = phases["flood0"].stats;
    report.Set("trace.overhead",
               1.0 - Ratio(Ratio(static_cast<double>(flood.applied),
                                 flood.wall_s),
                           Ratio(static_cast<double>(untraced.applied),
                                 untraced.wall_s)));
    if (!args.trace_out.empty()) {
      std::remove(args.trace_out.c_str());
      bool ok = flood_tr.AppendJsonLines(args.trace_out, "flood") &&
                paced_tr.AppendJsonLines(args.trace_out, "paced") &&
                main_tracer.AppendJsonLines(args.trace_out, "control");
      if (probe_lane != nullptr) {
        ok = ok && probe_lane->tracer().AppendJsonLines(args.trace_out,
                                                        "probe");
      }
      if (!ok) {
        violations.push_back("cannot write " + args.trace_out);
      }
    }
  }

  report.Print(args.trace ? PerLayerMetrics() : EndToEndMetrics(), attempted,
               failed, &violations);
  return violations.empty() ? 0 : 1;
}

int ListMetrics() {
  auto print = [](const char* key, const std::vector<MetricDef>& defs) {
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                  defs[i].name, defs[i].unit);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < Workloads().size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", Workloads()[i].name);
  }
  std::printf("], ");
  print("end_to_end", EndToEndMetrics());
  std::printf(", ");
  print("per_layer", PerLayerMetrics());
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.list_metrics) {
    return servebench::ListMetrics();
  }
  return servebench::Run(args);
}
