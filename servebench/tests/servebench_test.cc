// Unit tests of the serving benchmark's own machinery: percentile math, the
// paced schedule, seed determinism of the generated inputs, and the metric
// names it reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "pacer.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workloads.h"

namespace servebench {
namespace {

TEST(SamplesTest, NearestRankOnOneToHundred) {
  Samples s;
  for (int v = 100; v >= 1; --v) {
    s.Add(v);
  }
  EXPECT_EQ(s.At(0.5).value, 50.0);
  EXPECT_EQ(s.At(0.99).value, 99.0);
  EXPECT_EQ(s.At(0.99).beyond, 1u);
  EXPECT_EQ(s.At(0.99).count, 100u);
  EXPECT_EQ(s.At(1.0).value, 100.0);
  EXPECT_EQ(s.At(0.001).value, 1.0);
}

TEST(SamplesTest, BeyondCountsOnlyStrictlyLarger) {
  Samples s;
  for (double v : {1.0, 2.0, 2.0, 2.0, 3.0}) {
    s.Add(v);
  }
  const Percentile p = s.At(0.5);
  EXPECT_EQ(p.value, 2.0);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(SamplesTest, EmptyAndSingle) {
  Samples empty;
  EXPECT_EQ(empty.At(0.99).count, 0u);
  EXPECT_EQ(empty.At(0.99).value, 0.0);
  Samples one;
  one.Add(7.0);
  EXPECT_EQ(one.At(0.5).value, 7.0);
  EXPECT_EQ(one.At(0.99).value, 7.0);
  EXPECT_EQ(one.At(0.99).beyond, 0u);
}

TEST(SamplesTest, AppendAndClear) {
  Samples a, b;
  a.Add(1.0);
  a.Add(5.0);
  b.Add(10.0);
  b.Add(2.0);
  a.Append(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.At(1.0).value, 10.0);
  a.Clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.At(0.5).count, 0u);
  a.Add(3.0);
  EXPECT_EQ(a.At(0.5).value, 3.0);
}

TEST(SliceMedianTest, MedianOfTheSlices) {
  std::vector<double> rates;
  for (int v = 30; v >= 1; --v) {
    rates.push_back(v);
  }
  EXPECT_EQ(SliceMedian(rates), 15.5);
  rates.push_back(100.0);
  EXPECT_EQ(SliceMedian(rates), 16.0);
  EXPECT_EQ(SliceMedian(std::vector<double>{5.0}), 5.0);
  EXPECT_EQ(SliceMedian(std::vector<double>{}), 0.0);
  // Stalls in a minority of slices do not move it ...
  std::vector<double> stalled(31, 100.0);
  for (int i = 0; i < 15; ++i) {
    stalled[i * 2] = 1000.0;
  }
  EXPECT_EQ(SliceMedian(stalled), 100.0);
  // ... while a slowdown that sets in half way through the run does.
  std::vector<double> growing(31, 100.0);
  for (int i = 15; i < 31; ++i) {
    growing[i] = 130.0;
  }
  EXPECT_EQ(SliceMedian(growing), 130.0);
}

TEST(SliceMedianTest, PercentileKeepsItsSlicesEvidence) {
  std::vector<Percentile> per_slice;
  for (int s = 0; s < 9; ++s) {
    Samples slice;
    for (int v = 1; v <= 100 + s; ++v) {
      slice.Add(v * (9 - s));
    }
    per_slice.push_back(slice.At(0.99));
  }
  // Slice 4 (values 5..500 in steps of 5, 104 samples) is the median one.
  const Percentile p = SliceMedian(per_slice);
  EXPECT_EQ(p.value, 5.0 * 103);
  EXPECT_EQ(p.count, 104u);
  EXPECT_EQ(p.beyond, 1u);
  // An even count takes the lower median slice.
  per_slice.pop_back();
  EXPECT_EQ(SliceMedian(per_slice).value, 5.0 * 103);
  EXPECT_EQ(SliceMedian(std::vector<Percentile>{}).count, 0u);
}

TEST(LogLinearHistogramTest, BucketsTileTheLine) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{129}, uint64_t{255}, uint64_t{256},
                     uint64_t{1000}, uint64_t{123456789},
                     uint64_t{1} << 40, ~uint64_t{0}}) {
    const size_t index = LogLinearHistogram::Index(v);
    const uint64_t lower = LogLinearHistogram::Lower(index);
    const uint64_t width = LogLinearHistogram::Width(index);
    EXPECT_LE(lower, v) << v;
    EXPECT_LE(v - lower, width - 1) << v;
    if (index > 0) {
      const size_t prev = index - 1;
      EXPECT_EQ(LogLinearHistogram::Lower(prev) +
                    LogLinearHistogram::Width(prev),
                lower)
          << v;
    }
  }
}

TEST(LogLinearHistogramTest, PercentilesWithinOnePercentOfExact) {
  tpgnn::Rng rng(42);
  LogLinearHistogram h;
  Samples exact;
  double exact_sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~1 us .. ~10 ms in nanoseconds.
    const double v = std::exp(6.9 + 9.2 * rng.Uniform());
    const uint64_t ns = static_cast<uint64_t>(v);
    h.Add(ns);
    exact.Add(static_cast<double>(ns));
    exact_sum += static_cast<double>(ns);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = exact.At(q).value;
    const double got = h.At(q).value;
    EXPECT_LE(std::abs(got - want) / want, 0.01) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_NEAR(h.Mean(), exact_sum / 20000, 1e-6 * exact_sum / 20000);
}

TEST(LogLinearHistogramTest, MergeEqualsCombined) {
  LogLinearHistogram a, b, all;
  for (uint64_t v = 1; v < 100000; v += 37) {
    (v % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(a.At(q).value, all.At(q).value);
    EXPECT_EQ(a.At(q).beyond, all.At(q).beyond);
  }
}

TEST(PacedScheduleTest, MapsStreamClockAtFixedSpeed) {
  const PacedSchedule schedule(/*stream_origin=*/10.0, /*speed=*/4.0);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(10.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(14.0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(9.0), 0.0);  // Before the origin.
  // 20k events per stream second offered at 100k per wall second.
  EXPECT_DOUBLE_EQ(PacedSchedule::SpeedFor(100000.0, 20000.0), 5.0);
}

TEST(PacedScheduleTest, LatenessAndLatencyCountFromDue) {
  EXPECT_DOUBLE_EQ(LatenessUs(/*due=*/1.0, /*sent=*/0.5), 0.0);
  EXPECT_NEAR(LatenessUs(1.0, 1.002), 2000.0, 1e-6);
  EXPECT_NEAR(LatencyFromDueUs(1.0, 1.0005), 500.0, 1e-6);
}

// A sender that stalls: requests due every 1 ms, each takes 0.1 ms to
// serve, but the sender is blocked from 2.0 ms to 5.0 ms. Every request
// that fell due during the stall must carry the stall in its latency
// (coordinated omission would hide it by timing from the send).
TEST(PacedScheduleTest, StallShowsInEveryRequestQueuedBehindIt) {
  const PacedSchedule schedule(0.0, 1.0);
  const double service = 0.0001;
  const double stall_end = 0.005;
  double sender_free = 0.0;
  Samples latency, late;
  double latency_sum = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double due = schedule.DueSeconds(0.001 * i);
    double sent = std::max(due, sender_free);
    if (due >= 0.002 && due < stall_end) {
      sent = std::max(sent, stall_end);
    }
    late.Add(LatenessUs(due, sent));
    const double done = sent + service;
    sender_free = done;
    latency.Add(LatencyFromDueUs(due, done));
    latency_sum += LatencyFromDueUs(due, done);
  }
  // Due at 2, 3, 4 ms and sent at 5.0, 5.1, 5.2 ms; the request due at
  // 5 ms waits for them and goes at 5.3 ms.
  EXPECT_NEAR(late.At(1.0).value, 3000.0, 1e-6);
  EXPECT_EQ(late.At(0.5).value, 0.0);
  EXPECT_EQ(late.At(0.5).beyond, 4u);
  EXPECT_NEAR(latency.At(1.0).value, 3100.0, 1e-6);
  EXPECT_NEAR(latency.At(0.5).value, 100.0, 1e-6);
  // Timed from the send, every request would read 100 us.
  EXPECT_NEAR(latency_sum / 8, (4 * 100.0 + 400 + 1300 + 2200 + 3100) / 8,
              1e-6);
}

std::string StreamBytes(const tpgnn::workload::WorkloadOptions& options,
                        int events, std::unordered_set<uint64_t>* ids) {
  tpgnn::workload::WorkloadGenerator gen(options);
  std::string bytes;
  tpgnn::serve::Event event;
  for (int i = 0; i < events && gen.Next(&event); ++i) {
    tpgnn::workload::AppendEventBytes(event, &bytes);
    if (ids != nullptr) {
      ids->insert(event.session_id);
    }
  }
  return bytes;
}

TEST(SeedDeterminismTest, SameSeedSameInputsOnEveryLane) {
  for (const WorkloadSpec& spec : Workloads()) {
    for (uint64_t lane : {uint64_t{0}, uint64_t{1}, kSetupLane,
                          kServeProbeLane}) {
      EXPECT_EQ(StreamBytes(LaneOptions(spec, 7, lane), 3000, nullptr),
                StreamBytes(LaneOptions(spec, 7, lane), 3000, nullptr))
          << spec.name << " lane " << lane;
    }
  }
}

TEST(SeedDeterminismTest, SeedsAndLanesGiveDisjointSessions) {
  for (const WorkloadSpec& spec : Workloads()) {
    std::unordered_set<uint64_t> a, b, c;
    const std::string s7 = StreamBytes(LaneOptions(spec, 7, 0), 3000, &a);
    const std::string s8 = StreamBytes(LaneOptions(spec, 8, 0), 3000, &b);
    StreamBytes(LaneOptions(spec, 7, 1), 3000, &c);
    EXPECT_NE(s7, s8) << spec.name;
    for (uint64_t id : a) {
      EXPECT_EQ(b.count(id), 0u) << spec.name;
      EXPECT_EQ(c.count(id), 0u) << spec.name;
    }
  }
}

TEST(MetricNamesTest, NamesAndUnitsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *list) {
      EXPECT_TRUE(ValidMetricName(def.name)) << def.name;
      EXPECT_TRUE(ValidUnit(def.unit)) << def.name << " " << def.unit;
      EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
    }
  }
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
  bool has_setup = false;
  for (const MetricDef& def : EndToEndMetrics()) {
    if (std::string(def.name) == "setup_s") {
      has_setup = std::string(def.unit) == "s";
    }
  }
  EXPECT_TRUE(has_setup);
  EXPECT_LE(EndToEndMetrics().size(), 16u);
  EXPECT_LE(PerLayerMetrics().size(), 128u);
}

TEST(MetricNamesTest, RejectsMalformedNames) {
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_TRUE(ValidMetricName("9lives.p99-x_y"));
  EXPECT_FALSE(ValidUnit("µs"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
}

}  // namespace
}  // namespace servebench
