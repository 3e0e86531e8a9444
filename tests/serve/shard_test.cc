// SessionShard lifecycle, validation, and eviction semantics: error
// statuses for malformed events, LRU eviction at the resident cap, TTL
// sweeps, and scores snapshotted before their session is ended or evicted.

#include <gtest/gtest.h>

#include <vector>

#include "core/model.h"
#include "model/registry.h"
#include "data/datasets.h"
#include "serve/metrics.h"
#include "serve/session_shard.h"
#include "serve_test_util.h"

namespace tpgnn::serve {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : registry_(TinyServeConfig(), /*seed=*/3) {}

  // Opens a minimal two-node session.
  Status Begin(SessionShard& shard, uint64_t id, double now = 0.0) {
    return shard.BeginSession(id, /*num_nodes=*/2, /*feature_dim=*/3,
                              {{0, {1.0f, 0.0f, 0.0f}}}, now);
  }

  model::ModelRegistry registry_;
  Metrics metrics_;
};

TEST_F(ShardTest, LifecycleAndValidation) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  EXPECT_EQ(shard.resident_sessions(), 1u);

  // Duplicate id, bad node count, bad feature width.
  EXPECT_EQ(Begin(shard, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 0, 3, {}, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 2, 5, {}, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 2, 3, {{7, {1, 2, 3}}}, 0.0).code(),
            StatusCode::kInvalidArgument);

  // Edge validation.
  EXPECT_EQ(shard.AddEdge(99, 0, 1, 1.0, 0.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.AddEdge(1, 0, 5, 1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.AddEdge(1, -1, 1, 1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.AddEdge(1, 0, 1, -1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());

  ScoreResult result;
  EXPECT_EQ(shard.Score(99, &result).code(), StatusCode::kNotFound);
  ASSERT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(result.edges_scored, 1);
  EXPECT_GT(result.probability, 0.0f);
  EXPECT_LT(result.probability, 1.0f);

  // End releases the session; later events are NotFound.
  ASSERT_TRUE(shard.EndSession(1).ok());
  EXPECT_EQ(shard.resident_sessions(), 0u);
  EXPECT_EQ(shard.EndSession(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.AddEdge(1, 0, 1, 2.0, 0.0).code(), StatusCode::kNotFound);
}

TEST_F(ShardTest, ScoringEmptySessionWorks) {
  // A session with zero edges scores the initial embedding (no extractor
  // input edges) without crashing.
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(result.edges_scored, 0);
}

TEST_F(ShardTest, LruEvictionAtCap) {
  ShardOptions options;
  options.max_resident_sessions = 2;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, /*now=*/1.0).ok());
  ASSERT_TRUE(Begin(shard, 2, /*now=*/2.0).ok());
  // Touch session 1 so session 2 becomes least recently used.
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, /*now=*/3.0).ok());

  ASSERT_TRUE(Begin(shard, 3, /*now=*/4.0).ok());
  EXPECT_EQ(shard.resident_sessions(), 2u);
  EXPECT_EQ(metrics_.sessions_evicted.load(), 1u);
  // Session 2 (LRU) was evicted; 1 and 3 survive.
  ScoreResult result;
  EXPECT_EQ(shard.Score(2, &result).code(), StatusCode::kNotFound);
  EXPECT_TRUE(shard.Score(1, &result).ok());
  EXPECT_TRUE(shard.Score(3, &result).ok());
}

TEST_F(ShardTest, EvictionWithAQueuedScoreStillScores) {
  ShardOptions options;
  options.max_resident_sessions = 2;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, 1.0).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 1.0).ok());
  ASSERT_TRUE(Begin(shard, 2, 2.0).ok());
  ScoreSnapshot queued;  // Session 1 is LRU with a score queued.
  ASSERT_TRUE(shard.Snapshot(1, &queued).ok());

  // The cap evicts session 1 at once; the queued score holds its snapshot.
  ASSERT_TRUE(Begin(shard, 3, 3.0).ok());
  EXPECT_EQ(shard.resident_sessions(), 2u);
  EXPECT_EQ(metrics_.sessions_evicted.load(), 1u);
  ScoreResult result;
  EXPECT_EQ(shard.Score(1, &result).code(), StatusCode::kNotFound);
  shard.Compute(&queued, &result);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.session_id, 1u);
  EXPECT_EQ(result.edges_scored, 1);
  EXPECT_EQ(metrics_.sessions_begun.load(),
            metrics_.sessions_ended.load() + metrics_.sessions_evicted.load() +
                shard.resident_sessions());
}

TEST_F(ShardTest, EndWithAQueuedScoreRemovesAtOnce) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ScoreSnapshot queued;
  ASSERT_TRUE(shard.Snapshot(1, &queued).ok());
  ASSERT_TRUE(shard.EndSession(1).ok());

  // Gone for every later event, yet the queued score still completes on
  // the prefix it snapshotted.
  EXPECT_EQ(shard.resident_sessions(), 0u);
  EXPECT_EQ(shard.AddEdge(1, 0, 1, 2.0, 0.0).code(), StatusCode::kNotFound);
  ScoreResult result;
  shard.Compute(&queued, &result);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.edges_scored, 1);
  EXPECT_EQ(metrics_.sessions_begun.load(),
            metrics_.sessions_ended.load() + metrics_.sessions_evicted.load() +
                shard.resident_sessions());
}

TEST_F(ShardTest, TtlEvictsIdleSessionsOnly) {
  ShardOptions options;
  options.idle_ttl_seconds = 10.0;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, /*now=*/0.0).ok());
  ASSERT_TRUE(Begin(shard, 2, /*now=*/0.0).ok());
  ASSERT_TRUE(Begin(shard, 3, /*now=*/0.0).ok());
  ASSERT_TRUE(shard.AddEdge(2, 0, 1, 1.0, /*now=*/8.0).ok());  // Keep 2 fresh.
  ScoreSnapshot queued;  // Idle with a score queued.
  ASSERT_TRUE(shard.Snapshot(3, &queued).ok());

  shard.EvictIdle(/*now=*/15.0);
  EXPECT_EQ(shard.resident_sessions(), 1u);
  ScoreResult result;
  EXPECT_EQ(shard.Score(1, &result).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.Score(3, &result).code(), StatusCode::kNotFound);
  EXPECT_TRUE(shard.Score(2, &result).ok());
  shard.Compute(&queued, &result);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(metrics_.sessions_begun.load(),
            metrics_.sessions_ended.load() + metrics_.sessions_evicted.load() +
                shard.resident_sessions());

  // TTL disabled: sweep is a no-op.
  SessionShard no_ttl(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(no_ttl, 1, 0.0).ok());
  no_ttl.EvictIdle(1e9);
  EXPECT_EQ(no_ttl.resident_sessions(), 1u);
}

TEST_F(ShardTest, RouterPlacesSessionsConsistently) {
  SessionRouter::Options options;
  options.num_shards = 3;
  SessionRouter router(registry_, options, &metrics_);
  ASSERT_EQ(router.num_shards(), 3u);
  for (uint64_t id = 1; id <= 30; ++id) {
    SessionShard& shard = router.ShardFor(id);
    EXPECT_EQ(&shard, &router.ShardFor(id));  // Stable placement.
    ASSERT_TRUE(shard
                    .BeginSession(id, 2, 3, {{0, {1.0f, 0.0f, 0.0f}}}, 0.0)
                    .ok());
  }
  EXPECT_EQ(router.resident_sessions(), 30u);
  // Splitmix64 spreads 30 ids over 3 shards: no shard should be empty.
  for (size_t i = 0; i < router.num_shards(); ++i) {
    EXPECT_GT(router.shard(i).resident_sessions(), 0u) << "shard " << i;
  }
}

TEST_F(ShardTest, MetricsCountLifecycleEvents) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ASSERT_TRUE(shard.AddEdge(1, 1, 0, 2.0, 0.0).ok());
  ASSERT_TRUE(shard.EndSession(1).ok());
  EXPECT_EQ(metrics_.sessions_begun.load(), 1u);
  EXPECT_EQ(metrics_.edges_ingested.load(), 2u);
  EXPECT_EQ(metrics_.sessions_ended.load(), 1u);
}

}  // namespace
}  // namespace tpgnn::serve
