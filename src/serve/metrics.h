#ifndef TPGNN_SERVE_METRICS_H_
#define TPGNN_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

// Serving telemetry: monotone counters plus fixed-bucket latency
// histograms. Everything is updated with relaxed atomics on the hot path
// and snapshotted without stopping traffic; a snapshot is internally
// consistent per counter (each is monotone) but not across counters, which
// is the usual contract for serving metrics.

namespace tpgnn::serve {

// Log-linear latency histogram over microseconds (HdrHistogram style):
// bucket 0 counts [0, 1) µs; above it every octave [2^k, 2^(k+1)) µs,
// k = 0 .. kOctaves-1, splits into kSubBuckets equal-width buckets, so a
// bucket's upper edge overstates any sample in it by at most 1/kSubBuckets
// (12.5%); the last bucket absorbs overflow from 2^kOctaves µs (~33 s) up.
// Merging adds bucket counts, so it stays exact.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 25;
  static constexpr int kNumBuckets = 1 + kOctaves * kSubBuckets + 1;

  // Bucket index of a sample, and the upper edge of a bucket in µs.
  static int BucketIndex(double micros);
  static double BucketUpperMicros(int bucket);

  void Record(double micros);

  struct Snapshot {
    uint64_t count = 0;
    double sum_micros = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean_micros() const { return count > 0 ? sum_micros / count : 0.0; }
    // Percentile estimate (q in [0, 1]): upper edge of the bucket where the
    // cumulative count crosses q * count; 0 when empty.
    double PercentileMicros(double q) const;
  };

  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  // Sum in nanoseconds so the accumulator stays integral (atomic<double>
  // fetch_add is C++20 but emulated with a CAS loop on most targets).
  std::atomic<uint64_t> sum_nanos_{0};
};

struct MetricsSnapshot {
  uint64_t events_ingested = 0;
  uint64_t sessions_begun = 0;
  uint64_t sessions_ended = 0;
  uint64_t sessions_evicted = 0;
  // Session migrations (cluster serving, DESIGN.md §4.7): snapshots handed
  // out via SESSION_EXPORT and installed via SESSION_IMPORT.
  uint64_t sessions_exported = 0;
  uint64_t sessions_imported = 0;
  uint64_t edges_ingested = 0;
  uint64_t scores_completed = 0;
  uint64_t scores_failed = 0;
  uint64_t overload_rejections = 0;
  uint64_t state_refolds = 0;
  uint64_t state_rescales = 0;
  // Model lifecycle (versioned registry, DESIGN.md §4.8).
  uint64_t model_loads = 0;
  uint64_t model_activations = 0;
  uint64_t version_rebases = 0;
  uint64_t mixed_version_scores = 0;
  // Network front-end (zero unless a net::Server drives the engine).
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t protocol_errors = 0;
  // Process memory high-water marks (soak harness, DESIGN.md §4.9),
  // captured by Metrics::UpdateResourcePeaks — zero until the first probe:
  // the buffer pool's live-bytes peak, its currently cached bytes, the
  // summed planned-executor arena peak, and the kernel's RSS high-water
  // mark (VmHWM). The peaks are gauges, not flows: MergeFrom takes the max
  // (a cluster's value is its worst single process), while bytes_cached
  // sums (total memory parked across processes).
  uint64_t pool_bytes_peak = 0;
  uint64_t pool_bytes_cached = 0;
  uint64_t arena_bytes_peak = 0;
  uint64_t rss_peak_kb = 0;
  // Shadow scoring block (never returned to clients): how many primary
  // scores the shadow version re-scored, how many shadow attempts failed,
  // and the primary-vs-shadow logit divergence.
  uint64_t shadow_scores = 0;
  uint64_t shadow_failures = 0;
  double shadow_delta_sum = 0.0;  // Σ |primary_logit − shadow_logit|.
  double shadow_delta_max = 0.0;  // max |primary_logit − shadow_logit|.
  LatencyHistogram::Snapshot ingest_latency;
  LatencyHistogram::Snapshot score_latency;
  LatencyHistogram::Snapshot e2e_latency;
  LatencyHistogram::Snapshot shadow_latency;

  // One-line human-readable summary (counts + score p50/p95/p99).
  std::string ToString() const;
  // Full snapshot as a JSON object: every counter under "counters", each
  // latency histogram under "latency_us" as {count, mean, sum, p50, p95,
  // p99, buckets}. The raw buckets make the payload mergeable — a router
  // aggregating N backends parses them back and recomputes percentiles
  // over the combined distribution instead of averaging quantiles.
  // This is the METRICS RPC payload and the server half of BENCH_net.json.
  std::string ToJson() const;

  // Field-wise aggregation: counters sum, histogram counts/sums/buckets
  // add, so percentiles of the merged snapshot are percentiles of the
  // union distribution; the memory peaks take the max (worst single
  // process) and pool_bytes_cached sums. The identity element is a default
  // snapshot.
  void MergeFrom(const MetricsSnapshot& other);
};

// Parses a snapshot back out of MetricsSnapshot::ToJson() output — the
// emitter's exact shape, not general JSON (unknown keys are skipped, but
// structure is expected). The router's cluster-wide METRICS RPC uses this
// to fold N backend payloads into one. kDataLoss when a required section
// or histogram field is missing or malformed.
Status ParseMetricsJson(const std::string& json, MetricsSnapshot* snap);

class Metrics {
 public:
  // Counters (relaxed increments).
  std::atomic<uint64_t> events_ingested{0};
  std::atomic<uint64_t> sessions_begun{0};
  std::atomic<uint64_t> sessions_ended{0};
  std::atomic<uint64_t> sessions_evicted{0};
  // Migration traffic (SessionShard::ExportSession / ImportSession).
  std::atomic<uint64_t> sessions_exported{0};
  std::atomic<uint64_t> sessions_imported{0};
  std::atomic<uint64_t> edges_ingested{0};
  std::atomic<uint64_t> scores_completed{0};
  std::atomic<uint64_t> scores_failed{0};
  std::atomic<uint64_t> overload_rejections{0};
  // Folded session states discarded and rebuilt (time-normalization or
  // out-of-order invalidation; see SessionShard).
  std::atomic<uint64_t> state_refolds{0};
  // Scores that absorbed a max-time move through the TimeBasis::kInvariant
  // finalize-time correction instead of a refold (SessionShard; the O(1)
  // counterpart of state_refolds).
  std::atomic<uint64_t> state_rescales{0};
  // Model lifecycle (model::ModelRegistry through InferenceEngine /
  // SessionShard): checkpoint versions loaded, primary activations,
  // sessions refolded onto a new version after an immediate-rebase swap or
  // an A/B assignment change, and — the hot-swap safety gate, asserted zero
  // by bench_swap and the chaos sweep — scores whose folded state mixed
  // parameters from two versions.
  std::atomic<uint64_t> model_loads{0};
  std::atomic<uint64_t> model_activations{0};
  std::atomic<uint64_t> version_rebases{0};
  std::atomic<uint64_t> mixed_version_scores{0};
  // Shadow scoring: candidate re-scores of primary scores (off the client
  // path), failed shadow attempts, and logit divergence. The divergence
  // accumulators stay integral (nanounits / double bits) so the hot path
  // needs no atomic<double> CAS loop for the common add.
  std::atomic<uint64_t> shadow_scores{0};
  std::atomic<uint64_t> shadow_failures{0};
  std::atomic<uint64_t> shadow_delta_sum_nanos{0};
  std::atomic<uint64_t> shadow_delta_max_bits{0};
  // Records one |primary − shadow| logit delta into the sum and running
  // max (CAS max over double bits; monotone for non-negative doubles).
  void RecordShadowDelta(double abs_delta);
  // Network front-end counters, maintained by net::Server: wire bytes and
  // frames in each direction, connection churn, and streams torn down for
  // protocol violations (kDataLoss frames).
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> protocol_errors{0};
  // Memory high-water gauges, written only by UpdateResourcePeaks below
  // (checkpoint-rate probes, never the per-event hot path).
  std::atomic<uint64_t> pool_bytes_peak{0};
  std::atomic<uint64_t> pool_bytes_cached{0};
  std::atomic<uint64_t> arena_bytes_peak{0};
  std::atomic<uint64_t> rss_peak_kb{0};

  // Probes the buffer pool, the planned-executor arena accounting, and the
  // kernel's VmHWM, folding the readings into the gauges above (peaks only
  // ever rise; bytes_cached tracks the current reading). Callers that
  // export metrics for bounded-memory gating — the METRICS RPC, the soak
  // harness's checkpoints — call this right before Snapshot/ToJson.
  void UpdateResourcePeaks();

  // Latency distributions, all in microseconds.
  LatencyHistogram ingest_latency;  // One Ingest(event) call.
  // A score job from its start to its result: fold, finalize, extractor
  // and classifier, with no lock or queue wait in it (ScoreResult::
  // score_micros). The wait before it is ScoreResult::queue_micros.
  LatencyHistogram score_latency;
  LatencyHistogram e2e_latency;     // Score enqueue -> result ready.
  LatencyHistogram shadow_latency;  // One shadow re-score (off hot path).

  MetricsSnapshot Snapshot() const;
  // Shorthand for Snapshot().ToJson().
  std::string ToJson() const;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_METRICS_H_
