// The soak harness's core accounting invariant, isolated: every session
// the engine ever admitted is — at any quiescent point — exactly one of
// ended, evicted, or resident:
//
//   sessions_begun == sessions_ended + sessions_evicted + resident
//
// held bit-exactly through eviction churn (tiny resident cap, abandoned
// sessions, TTL sweeps) and with Begin / score-enqueue faults injected.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "serve_test_util.h"
#include "util/failpoint.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace tpgnn::serve {
namespace {

void ExpectExactAccounting(InferenceEngine& engine, const char* where) {
  // Quiesce first, so every queued score has its result.
  std::vector<ScoreResult> results;
  engine.Flush(&results);
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.sessions_begun, snap.sessions_ended + snap.sessions_evicted +
                                     engine.resident_sessions())
      << where << ": begun=" << snap.sessions_begun
      << " ended=" << snap.sessions_ended
      << " evicted=" << snap.sessions_evicted
      << " resident=" << engine.resident_sessions();
}

// Streams a bounded churn workload through the engine, checking the
// accounting equation at every checkpoint. Returns the final snapshot.
MetricsSnapshot RunChurn(InferenceEngine& engine, uint64_t seed,
                         uint64_t num_sessions) {
  workload::WorkloadOptions options = workload::EvictionChurnProfile(seed);
  options.num_sessions = num_sessions;
  options.max_open_sessions = 128;
  workload::WorkloadGenerator generator(options);

  std::vector<ScoreResult> results;
  Event event;
  uint64_t processed = 0;
  while (generator.Next(&event)) {
    Status status = engine.Ingest(event);
    for (int retry = 0; status.code() == StatusCode::kOverloaded && retry < 64;
         ++retry) {
      engine.ProcessPending(&results);
      status = engine.Ingest(event);
    }
    // Non-overload failures (injected faults, post-shed kNotFound) are
    // expected under churn; the invariant must hold regardless.
    if (++processed % 5000 == 0) {
      ExpectExactAccounting(engine, "mid-stream checkpoint");
    }
    if (engine.pending_scores() >= engine.options().max_batch) {
      engine.ProcessPending(&results);
    }
  }
  ExpectExactAccounting(engine, "end of stream");
  return engine.metrics().Snapshot();
}

EngineOptions ChurnEngineOptions() {
  EngineOptions options;
  options.num_shards = 4;
  // A deliberately tiny cap so cap-eviction fires constantly, plus a short
  // TTL so abandoned sessions are reclaimed by sweeps.
  options.max_resident_sessions = 48;
  options.idle_ttl_seconds = 0.5;
  options.max_pending_scores = 128;
  options.max_batch = 32;
  return options;
}

TEST(SoakInvariantsTest, AccountingExactThroughEvictionChurn) {
  InferenceEngine engine(TinyServeConfig(), /*seed=*/3, ChurnEngineOptions());
  const MetricsSnapshot snap = RunChurn(engine, /*seed=*/17, 600);

  // The workload actually churned: evictions happened (cap + abandoned
  // sessions) and so did clean Ends.
  EXPECT_GT(snap.sessions_evicted, 0u);
  EXPECT_GT(snap.sessions_ended, 0u);
  EXPECT_GT(snap.sessions_begun, 100u);
}

TEST(SoakInvariantsTest, AccountingExactThroughForcedTtlSweep) {
  InferenceEngine engine(TinyServeConfig(), /*seed=*/3, ChurnEngineOptions());
  RunChurn(engine, /*seed=*/19, 300);

  // Force a full TTL sweep far in the future: everything resident (the
  // abandoned stragglers) is evicted; the equation must rebalance exactly.
  engine.router().EvictIdle(/*now=*/1e12);
  ExpectExactAccounting(engine, "after forced sweep");
  EXPECT_EQ(engine.resident_sessions(), 0u);
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.sessions_begun, snap.sessions_ended + snap.sessions_evicted);
}

TEST(SoakInvariantsTest, AccountingExactWithBeginAndEnqueueFaults) {
  failpoint::SetSeed(11);
  failpoint::ScopedFailpoint begin_fault("shard.begin", /*probability=*/0.05,
                                         failpoint::Kind::kReturnError);
  failpoint::ScopedFailpoint enqueue_fault("engine.score_enqueue",
                                           /*probability=*/0.05,
                                           failpoint::Kind::kReturnError);

  InferenceEngine engine(TinyServeConfig(), /*seed=*/3, ChurnEngineOptions());
  const MetricsSnapshot snap = RunChurn(engine, /*seed=*/23, 600);

  // Both faults fired — rejected Begins must not count as begun, and
  // rejected enqueues must not leak pins that would defer Ends forever.
  EXPECT_GT(begin_fault.fires(), 0u);
  EXPECT_GT(enqueue_fault.fires(), 0u);
  EXPECT_GT(snap.sessions_begun, 0u);
  engine.router().EvictIdle(/*now=*/1e12);
  ExpectExactAccounting(engine, "after faults + sweep");
}

}  // namespace
}  // namespace tpgnn::serve
