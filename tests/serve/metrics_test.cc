// LatencyHistogram bucketing and percentile estimation, and the Metrics
// snapshot plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"

namespace tpgnn::serve {
namespace {

TEST(LatencyHistogramTest, BucketAssignment) {
  LatencyHistogram histogram;
  histogram.Record(0.0);    // [0, 1) -> bucket 0.
  histogram.Record(0.5);    // [0, 1) -> bucket 0.
  histogram.Record(1.5);    // Octave 0, sub-bucket 4: [1.5, 1.625).
  histogram.Record(2.0);    // Octave 1, sub-bucket 0: [2, 2.25).
  histogram.Record(3.9);    // Octave 1, sub-bucket 7: [3.75, 4).
  histogram.Record(1000);   // Octave 9, sub-bucket 7: [960, 1024).
  histogram.Record(1e12);   // Overflow -> last bucket.

  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1 + 0 * 8 + 4], 1u);
  EXPECT_EQ(snap.buckets[1 + 1 * 8 + 0], 1u);
  EXPECT_EQ(snap.buckets[1 + 1 * 8 + 7], 1u);
  EXPECT_EQ(snap.buckets[1 + 9 * 8 + 7], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(1 + 9 * 8 + 7), 1024.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(1 + 1 * 8 + 0), 2.25);
}

TEST(LatencyHistogramTest, UpperEdgeOverstatesASampleByAtMostAnEighth) {
  // Every sample from 1 µs to the overflow bucket lands in a bucket whose
  // upper edge exceeds it by at most 12.5%, and bucket edges tile the
  // range without gaps.
  for (double v = 1.0; v < std::ldexp(1.0, LatencyHistogram::kOctaves);
       v *= 1.0137) {
    const int bucket = LatencyHistogram::BucketIndex(v);
    const double upper = LatencyHistogram::BucketUpperMicros(bucket);
    EXPECT_GT(upper, v) << v;
    EXPECT_LE(upper, v * 1.125) << v;
    EXPECT_LE(LatencyHistogram::BucketUpperMicros(bucket - 1), v) << v;
  }
  // A p99 gate at 2000 µs reads a bucket edge within 12.5% of the sample.
  EXPECT_LT(LatencyHistogram::BucketIndex(2000.0),
            LatencyHistogram::BucketIndex(2048.0));
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(
                LatencyHistogram::BucketIndex(2000.0)),
            2048.0);
}

TEST(LatencyHistogramTest, MeanAndPercentiles) {
  LatencyHistogram histogram;
  // 90 fast samples at 100us (bucket [96, 104)), 10 slow at 5000us
  // (bucket [4608, 5120)).
  for (int i = 0; i < 90; ++i) histogram.Record(100.0);
  for (int i = 0; i < 10; ++i) histogram.Record(5000.0);

  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean_micros(), (90 * 100.0 + 10 * 5000.0) / 100.0, 1.0);
  // Percentile = upper edge of the crossing bucket.
  EXPECT_EQ(snap.PercentileMicros(0.5), 104.0);
  EXPECT_EQ(snap.PercentileMicros(0.9), 104.0);
  EXPECT_EQ(snap.PercentileMicros(0.95), 5120.0);
  EXPECT_EQ(snap.PercentileMicros(0.99), 5120.0);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram histogram;
  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.mean_micros(), 0.0);
  EXPECT_EQ(snap.PercentileMicros(0.99), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(i % 512));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.Snap().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, SnapshotCarriesCountersAndSummarizes) {
  Metrics metrics;
  metrics.events_ingested.fetch_add(10);
  metrics.sessions_begun.fetch_add(2);
  metrics.scores_completed.fetch_add(3);
  metrics.state_refolds.fetch_add(1);
  metrics.state_rescales.fetch_add(5);
  metrics.score_latency.Record(100.0);

  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.events_ingested, 10u);
  EXPECT_EQ(snap.sessions_begun, 2u);
  EXPECT_EQ(snap.scores_completed, 3u);
  EXPECT_EQ(snap.state_refolds, 1u);
  EXPECT_EQ(snap.state_rescales, 5u);
  EXPECT_EQ(snap.score_latency.count, 1u);

  const std::string text = snap.ToString();
  EXPECT_NE(text.find("events=10"), std::string::npos) << text;
  EXPECT_NE(text.find("scores=3"), std::string::npos) << text;
  EXPECT_NE(text.find("rescales=5"), std::string::npos) << text;
}

// Minimal checks over the JSON the METRICS RPC ships: every counter lands
// under "counters" with its exact value, histogram quantiles match the
// snapshot's own estimates, and the structure is balanced.
TEST(MetricsTest, ToJsonCarriesCountersAndQuantiles) {
  Metrics metrics;
  metrics.events_ingested.fetch_add(10);
  metrics.sessions_begun.fetch_add(2);
  metrics.scores_completed.fetch_add(3);
  metrics.bytes_received.fetch_add(4096);
  metrics.frames_sent.fetch_add(7);
  metrics.connections_accepted.fetch_add(1);
  metrics.protocol_errors.fetch_add(1);
  metrics.state_refolds.fetch_add(2);
  metrics.state_rescales.fetch_add(9);
  for (int i = 0; i < 90; ++i) metrics.score_latency.Record(100.0);
  for (int i = 0; i < 10; ++i) metrics.score_latency.Record(5000.0);

  const MetricsSnapshot snap = metrics.Snapshot();
  const std::string json = metrics.ToJson();
  // Metrics::ToJson is exactly the snapshot's serialization.
  EXPECT_EQ(json, snap.ToJson());

  for (const char* expected :
       {"\"counters\"", "\"events_ingested\": 10", "\"sessions_begun\": 2",
        "\"scores_completed\": 3", "\"bytes_received\": 4096",
        "\"frames_sent\": 7", "\"connections_accepted\": 1",
        "\"protocol_errors\": 1", "\"state_refolds\": 2",
        "\"state_rescales\": 9", "\"latency_us\"", "\"score\"",
        "\"count\": 100"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected << "\n"
                                                      << json;
  }
  // The emitted quantiles are the snapshot's own estimates (formatted the
  // same way ToJson streams them).
  std::ostringstream quantiles;
  quantiles << "\"p50\": " << snap.score_latency.PercentileMicros(0.5);
  EXPECT_NE(json.find(quantiles.str()), std::string::npos)
      << quantiles.str() << "\n" << json;
  quantiles.str("");
  quantiles << "\"p99\": " << snap.score_latency.PercentileMicros(0.99);
  EXPECT_NE(json.find(quantiles.str()), std::string::npos)
      << quantiles.str() << "\n" << json;

  // Structurally sound: balanced braces, no trailing text.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// A snapshot with every counter and histogram field distinct, so a
// roundtrip or merge that drops/swaps a field cannot pass by accident.
// Values stay small enough that ToJson's default stream precision prints
// the histogram sums exactly.
MetricsSnapshot DistinctSnapshot(uint64_t seed) {
  MetricsSnapshot snap;
  uint64_t v = seed;
  for (uint64_t* counter :
       {&snap.events_ingested, &snap.sessions_begun, &snap.sessions_ended,
        &snap.sessions_evicted, &snap.sessions_exported,
        &snap.sessions_imported, &snap.edges_ingested, &snap.scores_completed,
        &snap.scores_failed, &snap.overload_rejections, &snap.state_refolds,
        &snap.state_rescales, &snap.bytes_received, &snap.bytes_sent,
        &snap.frames_received, &snap.frames_sent, &snap.connections_accepted,
        &snap.connections_closed, &snap.protocol_errors,
        &snap.pool_bytes_peak, &snap.pool_bytes_cached,
        &snap.arena_bytes_peak, &snap.rss_peak_kb}) {
    *counter = v++;
  }
  uint64_t bucket = seed % LatencyHistogram::kNumBuckets;
  for (LatencyHistogram::Snapshot* h :
       {&snap.ingest_latency, &snap.score_latency, &snap.e2e_latency}) {
    h->count = v;
    h->sum_micros = static_cast<double>(v) * 100.0;
    h->buckets[bucket] = v;
    ++v;
    bucket = (bucket + 7) % LatencyHistogram::kNumBuckets;
  }
  return snap;
}

void ExpectSnapshotsEqual(const MetricsSnapshot& want,
                          const MetricsSnapshot& got) {
  EXPECT_EQ(want.events_ingested, got.events_ingested);
  EXPECT_EQ(want.sessions_begun, got.sessions_begun);
  EXPECT_EQ(want.sessions_ended, got.sessions_ended);
  EXPECT_EQ(want.sessions_evicted, got.sessions_evicted);
  EXPECT_EQ(want.sessions_exported, got.sessions_exported);
  EXPECT_EQ(want.sessions_imported, got.sessions_imported);
  EXPECT_EQ(want.edges_ingested, got.edges_ingested);
  EXPECT_EQ(want.scores_completed, got.scores_completed);
  EXPECT_EQ(want.scores_failed, got.scores_failed);
  EXPECT_EQ(want.overload_rejections, got.overload_rejections);
  EXPECT_EQ(want.state_refolds, got.state_refolds);
  EXPECT_EQ(want.state_rescales, got.state_rescales);
  EXPECT_EQ(want.bytes_received, got.bytes_received);
  EXPECT_EQ(want.bytes_sent, got.bytes_sent);
  EXPECT_EQ(want.frames_received, got.frames_received);
  EXPECT_EQ(want.frames_sent, got.frames_sent);
  EXPECT_EQ(want.connections_accepted, got.connections_accepted);
  EXPECT_EQ(want.connections_closed, got.connections_closed);
  EXPECT_EQ(want.protocol_errors, got.protocol_errors);
  EXPECT_EQ(want.pool_bytes_peak, got.pool_bytes_peak);
  EXPECT_EQ(want.pool_bytes_cached, got.pool_bytes_cached);
  EXPECT_EQ(want.arena_bytes_peak, got.arena_bytes_peak);
  EXPECT_EQ(want.rss_peak_kb, got.rss_peak_kb);
  const LatencyHistogram::Snapshot* want_h[] = {
      &want.ingest_latency, &want.score_latency, &want.e2e_latency};
  const LatencyHistogram::Snapshot* got_h[] = {
      &got.ingest_latency, &got.score_latency, &got.e2e_latency};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(want_h[i]->count, got_h[i]->count) << "histogram " << i;
    EXPECT_EQ(want_h[i]->sum_micros, got_h[i]->sum_micros)
        << "histogram " << i;
    EXPECT_EQ(want_h[i]->buckets, got_h[i]->buckets) << "histogram " << i;
  }
}

TEST(MetricsJsonTest, ParseRecoversEveryFieldOfToJson) {
  const MetricsSnapshot original = DistinctSnapshot(17);
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(original.ToJson(), &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);
}

TEST(MetricsJsonTest, ParseSkipsUnknownTrailingSections) {
  // The router splices a "cluster" object after "latency_us" before
  // re-emitting the merged payload; the parser must shrug it off.
  const MetricsSnapshot original = DistinctSnapshot(3);
  std::string json = original.ToJson();
  ASSERT_EQ(json.back(), '}');
  json.insert(json.size() - 1,
              ", \"cluster\": {\"backends_up\": 2, \"sessions_migrated\": 5}");
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(json, &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);
}

TEST(MetricsJsonTest, ParseFailsTypedOnStructuralDamage) {
  const std::string good = DistinctSnapshot(5).ToJson();
  MetricsSnapshot scratch;

  EXPECT_EQ(ParseMetricsJson("{}", &scratch).code(), StatusCode::kDataLoss);
  EXPECT_EQ(ParseMetricsJson("not json at all", &scratch).code(),
            StatusCode::kDataLoss);

  // A renamed counter is a missing counter.
  std::string renamed = good;
  const size_t at = renamed.find("\"protocol_errors\"");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 17, "\"protocol_mishaps\"");
  EXPECT_EQ(ParseMetricsJson(renamed, &scratch).code(),
            StatusCode::kDataLoss);

  // Chopping off the histograms loses the latency section.
  const std::string truncated = good.substr(0, good.find("\"latency_us\""));
  EXPECT_EQ(ParseMetricsJson(truncated, &scratch).code(),
            StatusCode::kDataLoss);
}

TEST(MetricsJsonTest, MergeFromSumsCountersAndHistograms) {
  MetricsSnapshot merged = DistinctSnapshot(100);
  const MetricsSnapshot a = merged;
  const MetricsSnapshot b = DistinctSnapshot(1000);
  merged.MergeFrom(b);

  EXPECT_EQ(merged.events_ingested, a.events_ingested + b.events_ingested);
  EXPECT_EQ(merged.protocol_errors, a.protocol_errors + b.protocol_errors);
  EXPECT_EQ(merged.sessions_exported,
            a.sessions_exported + b.sessions_exported);
  EXPECT_EQ(merged.score_latency.count,
            a.score_latency.count + b.score_latency.count);
  EXPECT_EQ(merged.score_latency.sum_micros,
            a.score_latency.sum_micros + b.score_latency.sum_micros);
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const auto idx = static_cast<size_t>(i);
    EXPECT_EQ(merged.e2e_latency.buckets[idx],
              a.e2e_latency.buckets[idx] + b.e2e_latency.buckets[idx])
        << "bucket " << i;
  }

  // Default snapshot is the identity element.
  MetricsSnapshot identity;
  identity.MergeFrom(a);
  ExpectSnapshotsEqual(a, identity);
}

TEST(MetricsJsonTest, MergeTakesMaxOfMemoryPeaksAndSumsCachedBytes) {
  // The router folds N backends: a cluster's peak is its worst single
  // process (max), while cached pool bytes are parked per process (sum).
  MetricsSnapshot a, b;
  a.pool_bytes_peak = 700;
  a.pool_bytes_cached = 40;
  a.arena_bytes_peak = 60;
  a.rss_peak_kb = 9000;
  b.pool_bytes_peak = 300;
  b.pool_bytes_cached = 25;
  b.arena_bytes_peak = 180;
  b.rss_peak_kb = 12000;

  MetricsSnapshot merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.pool_bytes_peak, 700u);
  EXPECT_EQ(merged.pool_bytes_cached, 65u);
  EXPECT_EQ(merged.arena_bytes_peak, 180u);
  EXPECT_EQ(merged.rss_peak_kb, 12000u);

  // Merge order must not matter for the maxes.
  MetricsSnapshot reversed = b;
  reversed.MergeFrom(a);
  EXPECT_EQ(reversed.pool_bytes_peak, merged.pool_bytes_peak);
  EXPECT_EQ(reversed.arena_bytes_peak, merged.arena_bytes_peak);
  EXPECT_EQ(reversed.rss_peak_kb, merged.rss_peak_kb);
  EXPECT_EQ(reversed.pool_bytes_cached, merged.pool_bytes_cached);
}

TEST(MetricsTest, UpdateResourcePeaksIsMonotoneAndSurvivesRoundtrip) {
  Metrics metrics;
  metrics.UpdateResourcePeaks();
  const MetricsSnapshot first = metrics.Snapshot();
  // On Linux the process certainly has a nonzero RSS high-water mark.
  EXPECT_GT(first.rss_peak_kb, 0u);

  metrics.UpdateResourcePeaks();
  const MetricsSnapshot second = metrics.Snapshot();
  EXPECT_GE(second.rss_peak_kb, first.rss_peak_kb);
  EXPECT_GE(second.pool_bytes_peak, first.pool_bytes_peak);
  EXPECT_GE(second.arena_bytes_peak, first.arena_bytes_peak);

  // The gauges ride the METRICS RPC like any counter.
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(second.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.rss_peak_kb, second.rss_peak_kb);
  EXPECT_EQ(parsed.pool_bytes_peak, second.pool_bytes_peak);
  EXPECT_EQ(parsed.pool_bytes_cached, second.pool_bytes_cached);
  EXPECT_EQ(parsed.arena_bytes_peak, second.arena_bytes_peak);
}

TEST(MetricsJsonTest, MergedPercentilesSpanTheUnionDistribution) {
  // 90 fast samples on one backend, 10 slow on another: the merged p50
  // must come from the fast bucket and the merged p95 from the slow one —
  // i.e. merging keeps raw buckets instead of averaging quantiles.
  MetricsSnapshot fast, slow;
  fast.score_latency.count = 90;
  fast.score_latency.sum_micros = 9000.0;
  fast.score_latency.buckets[LatencyHistogram::BucketIndex(100.0)] = 90;
  slow.score_latency.count = 10;
  slow.score_latency.sum_micros = 50000.0;
  slow.score_latency.buckets[LatencyHistogram::BucketIndex(5000.0)] = 10;

  fast.MergeFrom(slow);
  EXPECT_EQ(fast.score_latency.count, 100u);
  EXPECT_EQ(fast.score_latency.PercentileMicros(0.5), 104.0);
  EXPECT_EQ(fast.score_latency.PercentileMicros(0.95), 5120.0);
}

}  // namespace
}  // namespace tpgnn::serve
