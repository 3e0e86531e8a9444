#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "tensor/executor.h"
#include "util/buffer_pool.h"
#include "util/resource.h"

namespace tpgnn::serve {

int LatencyHistogram::BucketIndex(double micros) {
  if (!(micros >= 1.0)) {  // Also catches NaN.
    return 0;
  }
  // micros = mantissa * 2^exponent with mantissa in [0.5, 1): the octave is
  // exponent - 1 and the sub-bucket the top bits of the mantissa; both
  // steps are exact in binary floating point.
  int exponent = 0;
  const double mantissa = std::frexp(micros, &exponent);
  const int octave = exponent - 1;
  if (octave >= kOctaves) {
    return kNumBuckets - 1;
  }
  const int sub = static_cast<int>((2.0 * mantissa - 1.0) * kSubBuckets);
  return 1 + octave * kSubBuckets + sub;
}

double LatencyHistogram::BucketUpperMicros(int bucket) {
  if (bucket <= 0) {
    return 1.0;
  }
  if (bucket >= kNumBuckets - 1) {
    return std::ldexp(1.0, kOctaves + 1);
  }
  const int octave = (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0 || std::isnan(micros)) {
    micros = 0.0;
  }
  buckets_[static_cast<size_t>(BucketIndex(micros))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1e3),
                       std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-3;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return snap;
}

double LatencyHistogram::Snapshot::PercentileMicros(double q) const {
  if (count == 0) {
    return 0.0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[static_cast<size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      return BucketUpperMicros(i);
    }
  }
  return BucketUpperMicros(kNumBuckets - 1);
}

void Metrics::RecordShadowDelta(double abs_delta) {
  if (abs_delta < 0.0 || std::isnan(abs_delta)) {
    abs_delta = 0.0;
  }
  shadow_delta_sum_nanos.fetch_add(static_cast<uint64_t>(abs_delta * 1e9),
                                   std::memory_order_relaxed);
  // CAS max over raw double bits: for non-negative doubles the bit pattern
  // orders like the value.
  uint64_t bits;
  std::memcpy(&bits, &abs_delta, sizeof(bits));
  uint64_t seen = shadow_delta_max_bits.load(std::memory_order_relaxed);
  while (bits > seen && !shadow_delta_max_bits.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream os;
  os << "events=" << events_ingested << " sessions=" << sessions_begun << "/"
     << sessions_ended << " evicted=" << sessions_evicted
     << " edges=" << edges_ingested << " scores=" << scores_completed << "/"
     << scores_failed << " overloads=" << overload_rejections
     << " refolds=" << state_refolds << " rescales=" << state_rescales
     << " rebases=" << version_rebases
     << " mixed_version=" << mixed_version_scores
     << " shadow=" << shadow_scores << "/" << shadow_failures
     << " score_us{p50=" <<
      score_latency.PercentileMicros(0.5)
     << " p95=" << score_latency.PercentileMicros(0.95)
     << " p99=" << score_latency.PercentileMicros(0.99) << "}";
  return os.str();
}

namespace {

void AppendHistogramJson(std::ostringstream& os, const char* name,
                         const LatencyHistogram::Snapshot& h) {
  os << "\"" << name << "\": {\"count\": " << h.count
     << ", \"mean\": " << h.mean_micros()
     << ", \"sum\": " << h.sum_micros
     << ", \"p50\": " << h.PercentileMicros(0.5)
     << ", \"p95\": " << h.PercentileMicros(0.95)
     << ", \"p99\": " << h.PercentileMicros(0.99) << ", \"buckets\": [";
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (i > 0) os << ", ";
    os << h.buckets[static_cast<size_t>(i)];
  }
  os << "]}";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\": {"
     << "\"events_ingested\": " << events_ingested
     << ", \"sessions_begun\": " << sessions_begun
     << ", \"sessions_ended\": " << sessions_ended
     << ", \"sessions_evicted\": " << sessions_evicted
     << ", \"sessions_exported\": " << sessions_exported
     << ", \"sessions_imported\": " << sessions_imported
     << ", \"edges_ingested\": " << edges_ingested
     << ", \"scores_completed\": " << scores_completed
     << ", \"scores_failed\": " << scores_failed
     << ", \"overload_rejections\": " << overload_rejections
     << ", \"state_refolds\": " << state_refolds
     << ", \"state_rescales\": " << state_rescales
     << ", \"model_loads\": " << model_loads
     << ", \"model_activations\": " << model_activations
     << ", \"version_rebases\": " << version_rebases
     << ", \"mixed_version_scores\": " << mixed_version_scores
     << ", \"shadow_scores\": " << shadow_scores
     << ", \"shadow_failures\": " << shadow_failures
     << ", \"bytes_received\": " << bytes_received
     << ", \"bytes_sent\": " << bytes_sent
     << ", \"frames_received\": " << frames_received
     << ", \"frames_sent\": " << frames_sent
     << ", \"connections_accepted\": " << connections_accepted
     << ", \"connections_closed\": " << connections_closed
     << ", \"protocol_errors\": " << protocol_errors
     << ", \"pool_bytes_peak\": " << pool_bytes_peak
     << ", \"pool_bytes_cached\": " << pool_bytes_cached
     << ", \"arena_bytes_peak\": " << arena_bytes_peak
     << ", \"rss_peak_kb\": " << rss_peak_kb
     << "}, \"shadow\": {"
     << "\"sum_abs_delta\": " << shadow_delta_sum
     << ", \"max_abs_delta\": " << shadow_delta_max
     << "}, \"latency_us\": {";
  AppendHistogramJson(os, "ingest", ingest_latency);
  os << ", ";
  AppendHistogramJson(os, "score", score_latency);
  os << ", ";
  AppendHistogramJson(os, "e2e", e2e_latency);
  os << ", ";
  AppendHistogramJson(os, "shadow", shadow_latency);
  os << "}}";
  return os.str();
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  events_ingested += other.events_ingested;
  sessions_begun += other.sessions_begun;
  sessions_ended += other.sessions_ended;
  sessions_evicted += other.sessions_evicted;
  sessions_exported += other.sessions_exported;
  sessions_imported += other.sessions_imported;
  edges_ingested += other.edges_ingested;
  scores_completed += other.scores_completed;
  scores_failed += other.scores_failed;
  overload_rejections += other.overload_rejections;
  state_refolds += other.state_refolds;
  state_rescales += other.state_rescales;
  model_loads += other.model_loads;
  model_activations += other.model_activations;
  version_rebases += other.version_rebases;
  mixed_version_scores += other.mixed_version_scores;
  shadow_scores += other.shadow_scores;
  shadow_failures += other.shadow_failures;
  shadow_delta_sum += other.shadow_delta_sum;
  shadow_delta_max = std::max(shadow_delta_max, other.shadow_delta_max);
  bytes_received += other.bytes_received;
  bytes_sent += other.bytes_sent;
  frames_received += other.frames_received;
  frames_sent += other.frames_sent;
  connections_accepted += other.connections_accepted;
  connections_closed += other.connections_closed;
  protocol_errors += other.protocol_errors;
  // Memory peaks are gauges: the cluster-wide peak is the worst single
  // process, not a sum. Cached pool bytes do sum (memory parked per process).
  pool_bytes_peak = std::max(pool_bytes_peak, other.pool_bytes_peak);
  pool_bytes_cached += other.pool_bytes_cached;
  arena_bytes_peak = std::max(arena_bytes_peak, other.arena_bytes_peak);
  rss_peak_kb = std::max(rss_peak_kb, other.rss_peak_kb);
  auto merge_histogram = [](LatencyHistogram::Snapshot& into,
                            const LatencyHistogram::Snapshot& from) {
    into.count += from.count;
    into.sum_micros += from.sum_micros;
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      into.buckets[static_cast<size_t>(i)] +=
          from.buckets[static_cast<size_t>(i)];
    }
  };
  merge_histogram(ingest_latency, other.ingest_latency);
  merge_histogram(score_latency, other.score_latency);
  merge_histogram(e2e_latency, other.e2e_latency);
  merge_histogram(shadow_latency, other.shadow_latency);
}

namespace {

// Targeted extraction over the emitter's JSON shape. `Find*` locate a
// quoted key inside [from, json.size()) and parse the value right after
// its ':'; they tolerate unknown keys (skipped by not being asked for)
// but not a missing requested one.
bool FindNumber(const std::string& json, const std::string& key, size_t from,
                double* value, size_t* value_end) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) {
    return false;
  }
  const char* start = json.c_str() + at + needle.size();
  char* end = nullptr;
  *value = std::strtod(start, &end);
  if (end == start) {
    return false;
  }
  if (value_end != nullptr) {
    *value_end = static_cast<size_t>(end - json.c_str());
  }
  return true;
}

bool FindCounter(const std::string& json, const std::string& key, size_t from,
                 uint64_t* value) {
  double v = 0.0;
  if (!FindNumber(json, key, from, &v, nullptr) || v < 0.0) {
    return false;
  }
  *value = static_cast<uint64_t>(v);
  return true;
}

bool ParseHistogram(const std::string& json, const std::string& name,
                    size_t from, LatencyHistogram::Snapshot* h) {
  const size_t at = json.find("\"" + name + "\":", from);
  if (at == std::string::npos) {
    return false;
  }
  if (!FindCounter(json, "count", at, &h->count) ||
      !FindNumber(json, "sum", at, &h->sum_micros, nullptr)) {
    return false;
  }
  const size_t buckets_at = json.find("\"buckets\":", at);
  if (buckets_at == std::string::npos) {
    return false;
  }
  size_t open = json.find('[', buckets_at);
  if (open == std::string::npos) {
    return false;
  }
  const char* cursor = json.c_str() + open + 1;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    char* end = nullptr;
    const double v = std::strtod(cursor, &end);
    if (end == cursor || v < 0.0) {
      return false;
    }
    h->buckets[static_cast<size_t>(i)] = static_cast<uint64_t>(v);
    cursor = end;
    while (*cursor == ',' || *cursor == ' ') ++cursor;
  }
  return *cursor == ']';
}

}  // namespace

Status ParseMetricsJson(const std::string& json, MetricsSnapshot* snap) {
  *snap = MetricsSnapshot();
  const size_t counters_at = json.find("\"counters\":");
  const size_t latency_at = json.find("\"latency_us\":");
  if (counters_at == std::string::npos || latency_at == std::string::npos) {
    return Status::DataLoss("metrics JSON missing counters or latency_us");
  }
  struct Field {
    const char* key;
    uint64_t* value;
  };
  const Field fields[] = {
      {"events_ingested", &snap->events_ingested},
      {"sessions_begun", &snap->sessions_begun},
      {"sessions_ended", &snap->sessions_ended},
      {"sessions_evicted", &snap->sessions_evicted},
      {"sessions_exported", &snap->sessions_exported},
      {"sessions_imported", &snap->sessions_imported},
      {"edges_ingested", &snap->edges_ingested},
      {"scores_completed", &snap->scores_completed},
      {"scores_failed", &snap->scores_failed},
      {"overload_rejections", &snap->overload_rejections},
      {"state_refolds", &snap->state_refolds},
      {"state_rescales", &snap->state_rescales},
      {"model_loads", &snap->model_loads},
      {"model_activations", &snap->model_activations},
      {"version_rebases", &snap->version_rebases},
      {"mixed_version_scores", &snap->mixed_version_scores},
      {"shadow_scores", &snap->shadow_scores},
      {"shadow_failures", &snap->shadow_failures},
      {"bytes_received", &snap->bytes_received},
      {"bytes_sent", &snap->bytes_sent},
      {"frames_received", &snap->frames_received},
      {"frames_sent", &snap->frames_sent},
      {"connections_accepted", &snap->connections_accepted},
      {"connections_closed", &snap->connections_closed},
      {"protocol_errors", &snap->protocol_errors},
      {"pool_bytes_peak", &snap->pool_bytes_peak},
      {"pool_bytes_cached", &snap->pool_bytes_cached},
      {"arena_bytes_peak", &snap->arena_bytes_peak},
      {"rss_peak_kb", &snap->rss_peak_kb},
  };
  for (const Field& f : fields) {
    if (!FindCounter(json, f.key, counters_at, f.value)) {
      return Status::DataLoss(std::string("metrics JSON missing counter ") +
                              f.key);
    }
  }
  const size_t shadow_at = json.find("\"shadow\":");
  if (shadow_at == std::string::npos || shadow_at > latency_at ||
      !FindNumber(json, "sum_abs_delta", shadow_at, &snap->shadow_delta_sum,
                  nullptr) ||
      !FindNumber(json, "max_abs_delta", shadow_at, &snap->shadow_delta_max,
                  nullptr)) {
    return Status::DataLoss("metrics JSON shadow block malformed");
  }
  if (!ParseHistogram(json, "ingest", latency_at, &snap->ingest_latency) ||
      !ParseHistogram(json, "score", latency_at, &snap->score_latency) ||
      !ParseHistogram(json, "e2e", latency_at, &snap->e2e_latency) ||
      !ParseHistogram(json, "shadow", latency_at, &snap->shadow_latency)) {
    return Status::DataLoss("metrics JSON histogram malformed");
  }
  return Status::Ok();
}

void Metrics::UpdateResourcePeaks() {
  auto raise = [](std::atomic<uint64_t>& gauge, uint64_t reading) {
    uint64_t seen = gauge.load(std::memory_order_relaxed);
    while (reading > seen && !gauge.compare_exchange_weak(
                                 seen, reading, std::memory_order_relaxed)) {
    }
  };
  const util::BufferPoolStats pool = util::GetBufferPoolStats();
  raise(pool_bytes_peak, pool.bytes_peak);
  pool_bytes_cached.store(pool.bytes_cached, std::memory_order_relaxed);
  raise(arena_bytes_peak, tensor::plan::ArenaBytesPeak());
  raise(rss_peak_kb, util::PeakRssKb());
}

std::string Metrics::ToJson() const { return Snapshot().ToJson(); }

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.events_ingested = events_ingested.load(std::memory_order_relaxed);
  snap.sessions_begun = sessions_begun.load(std::memory_order_relaxed);
  snap.sessions_ended = sessions_ended.load(std::memory_order_relaxed);
  snap.sessions_evicted = sessions_evicted.load(std::memory_order_relaxed);
  snap.sessions_exported = sessions_exported.load(std::memory_order_relaxed);
  snap.sessions_imported = sessions_imported.load(std::memory_order_relaxed);
  snap.edges_ingested = edges_ingested.load(std::memory_order_relaxed);
  snap.scores_completed = scores_completed.load(std::memory_order_relaxed);
  snap.scores_failed = scores_failed.load(std::memory_order_relaxed);
  snap.overload_rejections =
      overload_rejections.load(std::memory_order_relaxed);
  snap.state_refolds = state_refolds.load(std::memory_order_relaxed);
  snap.state_rescales = state_rescales.load(std::memory_order_relaxed);
  snap.model_loads = model_loads.load(std::memory_order_relaxed);
  snap.model_activations = model_activations.load(std::memory_order_relaxed);
  snap.version_rebases = version_rebases.load(std::memory_order_relaxed);
  snap.mixed_version_scores =
      mixed_version_scores.load(std::memory_order_relaxed);
  snap.shadow_scores = shadow_scores.load(std::memory_order_relaxed);
  snap.shadow_failures = shadow_failures.load(std::memory_order_relaxed);
  snap.shadow_delta_sum =
      static_cast<double>(
          shadow_delta_sum_nanos.load(std::memory_order_relaxed)) *
      1e-9;
  {
    const uint64_t bits =
        shadow_delta_max_bits.load(std::memory_order_relaxed);
    std::memcpy(&snap.shadow_delta_max, &bits, sizeof(bits));
  }
  snap.bytes_received = bytes_received.load(std::memory_order_relaxed);
  snap.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
  snap.frames_received = frames_received.load(std::memory_order_relaxed);
  snap.frames_sent = frames_sent.load(std::memory_order_relaxed);
  snap.connections_accepted =
      connections_accepted.load(std::memory_order_relaxed);
  snap.connections_closed = connections_closed.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
  snap.pool_bytes_peak = pool_bytes_peak.load(std::memory_order_relaxed);
  snap.pool_bytes_cached = pool_bytes_cached.load(std::memory_order_relaxed);
  snap.arena_bytes_peak = arena_bytes_peak.load(std::memory_order_relaxed);
  snap.rss_peak_kb = rss_peak_kb.load(std::memory_order_relaxed);
  snap.ingest_latency = ingest_latency.Snap();
  snap.score_latency = score_latency.Snap();
  snap.e2e_latency = e2e_latency.Snap();
  snap.shadow_latency = shadow_latency.Snap();
  return snap;
}

}  // namespace tpgnn::serve
