// Concurrency contracts of the serving subsystem (also the TSan smoke
// target, see .github/workflows/ci.yml):
//  * Multi-threaded ingest, with threads owning disjoint session subsets,
//    yields bit-identical per-session scores regardless of the thread and
//    shard counts — per-session determinism depends only on the event
//    prefix, never on interleaving or on when a score is collected.
//  * Eviction under a tight resident cap never drops a score request
//    already enqueued: every enqueued request completes.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "serve/inference_engine.h"
#include "serve_test_util.h"

namespace tpgnn::serve {
namespace {

graph::GraphDataset SessionDataset() {
  return data::MakeDataset(data::HdfsSpec(), /*count=*/16, /*seed=*/41);
}

// Streams session `id` (graph index id - 1) through the engine: Begin,
// every edge, one Score carrying the label, End. With `interleave`, a
// Score also follows every third edge, so later edges of the session
// arrive while it is still queued. Retries overloaded submissions after
// draining a micro-batch into `results`.
void StreamSession(InferenceEngine& engine, const graph::GraphDataset& dataset,
                   uint64_t id, bool interleave,
                   std::vector<ScoreResult>* results) {
  const graph::TemporalGraph& g = dataset[id - 1].graph;
  auto submit = [&](const Event& event) {
    Status status = engine.Ingest(event);
    while (status.code() == StatusCode::kOverloaded) {
      engine.ProcessPending(results);
      status = engine.Ingest(event);
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
  };

  Event begin;
  begin.kind = Event::Kind::kBegin;
  begin.session_id = id;
  begin.num_nodes = g.num_nodes();
  begin.feature_dim = g.feature_dim();
  begin.features = AllNodeFeatures(g);
  submit(begin);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const graph::TemporalEdge& e = g.edges()[i];
    Event edge;
    edge.kind = Event::Kind::kEdge;
    edge.session_id = id;
    edge.src = e.src;
    edge.dst = e.dst;
    edge.edge_time = e.time;
    submit(edge);
    if (interleave && i % 3 == 0) {
      Event mid;
      mid.kind = Event::Kind::kScore;
      mid.session_id = id;
      submit(mid);
    }
  }
  Event score;
  score.kind = Event::Kind::kScore;
  score.session_id = id;
  score.label = dataset[id - 1].label;
  submit(score);
  Event end;
  end.kind = Event::Kind::kEnd;
  end.session_id = id;
  submit(end);
}

// (session_id, edges scored) -> logit.
using PrefixLogits = std::map<std::pair<uint64_t, int64_t>, float>;

// Runs the dataset through an engine with `num_threads` ingest threads
// owning disjoint session subsets.
PrefixLogits RunConcurrent(const graph::GraphDataset& dataset, int num_threads,
                           int num_shards, size_t max_pending,
                           bool interleave) {
  EngineOptions options;
  options.num_shards = num_shards;
  options.max_pending_scores = max_pending;
  options.max_batch = 4;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/9, options);

  std::vector<std::vector<ScoreResult>> per_thread(
      static_cast<size_t>(num_threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t owns sessions t+1, t+1+num_threads, ... (disjoint).
      for (uint64_t id = static_cast<uint64_t>(t) + 1; id <= dataset.size();
           id += static_cast<uint64_t>(num_threads)) {
        StreamSession(engine, dataset, id, interleave,
                      &per_thread[static_cast<size_t>(t)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<ScoreResult> results;
  engine.Flush(&results);
  for (const std::vector<ScoreResult>& r : per_thread) {
    results.insert(results.end(), r.begin(), r.end());
  }

  PrefixLogits logits;
  for (const ScoreResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << "session " << r.session_id << ": "
                               << r.status.ToString();
    logits[{r.session_id, r.edges_scored}] = r.logit;
  }
  EXPECT_EQ(engine.resident_sessions(), 0u);
  return logits;
}

TEST(ServeConcurrencyTest, ScoresDeterministicAcrossThreadAndShardCounts) {
  graph::GraphDataset dataset = SessionDataset();
  core::TpGnnModel model(TinyServeConfig(), /*seed=*/9);

  for (const bool interleave : {false, true}) {
    // Reference: serial ingest, single shard.
    const PrefixLogits reference =
        RunConcurrent(dataset, /*num_threads=*/1, /*num_shards=*/1,
                      /*max_pending=*/256, interleave);
    if (interleave) {
      ASSERT_GT(reference.size(), dataset.size());
    } else {
      ASSERT_EQ(reference.size(), dataset.size());
    }

    // And the offline forward of each scored prefix agrees, anchoring the
    // whole matrix.
    for (const auto& [key, logit] : reference) {
      const graph::TemporalGraph& g = dataset[key.first - 1].graph;
      graph::TemporalGraph prefix(g.num_nodes(), g.feature_dim());
      for (int64_t node = 0; node < g.num_nodes(); ++node) {
        prefix.SetNodeFeature(node, g.node_feature(node));
      }
      for (int64_t e = 0; e < key.second; ++e) {
        const graph::TemporalEdge& edge = g.edges()[static_cast<size_t>(e)];
        prefix.AddEdge(edge.src, edge.dst, edge.time);
      }
      EXPECT_EQ(logit, OfflineLogit(model, prefix))
          << "session " << key.first << " prefix " << key.second;
    }

    struct Setup {
      int threads;
      int shards;
      size_t max_pending;
    };
    for (const Setup& setup : {Setup{2, 1, 256}, Setup{2, 4, 256},
                               Setup{4, 3, 8}, Setup{3, 8, 2}}) {
      const PrefixLogits logits = RunConcurrent(
          dataset, setup.threads, setup.shards, setup.max_pending, interleave);
      EXPECT_EQ(logits, reference)
          << setup.threads << " threads, " << setup.shards << " shards, queue "
          << setup.max_pending << (interleave ? ", interleaved" : "");
    }
  }
}

TEST(ServeConcurrencyTest, ConcurrentDrainerSeesEveryScore) {
  // A dedicated drainer thread races ProcessPending against the ingest
  // threads; between them, every request must surface exactly once.
  graph::GraphDataset dataset = SessionDataset();
  EngineOptions options;
  options.num_shards = 4;
  options.max_pending_scores = 4;
  options.max_batch = 2;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/9, options);

  std::atomic<bool> done{false};
  std::vector<ScoreResult> drained;
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (engine.ProcessPending(&drained) == 0) {
        std::this_thread::yield();
      }
    }
  });

  constexpr int kThreads = 3;
  std::vector<std::vector<ScoreResult>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t id = static_cast<uint64_t>(t) + 1; id <= dataset.size();
           id += kThreads) {
        StreamSession(engine, dataset, id, /*interleave=*/false,
                      &per_thread[static_cast<size_t>(t)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  engine.Flush(&drained);

  size_t total = drained.size();
  for (const std::vector<ScoreResult>& r : per_thread) total += r.size();
  EXPECT_EQ(total, dataset.size());
  EXPECT_EQ(engine.metrics().scores_completed.load(), dataset.size());
  EXPECT_EQ(engine.metrics().scores_failed.load(), 0u);
  EXPECT_EQ(engine.resident_sessions(), 0u);
}

TEST(ServeConcurrencyTest, EvictionNeverDropsInFlightScores) {
  // Resident cap far below the live session count: Begin-driven eviction
  // churns constantly, but a score already enqueued holds its own snapshot
  // and must complete even when its session is evicted meanwhile.
  graph::GraphDataset dataset = SessionDataset();
  EngineOptions options;
  options.num_shards = 2;
  options.max_resident_sessions = 4;
  options.max_pending_scores = 64;
  options.max_batch = 4;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/9, options);

  constexpr int kThreads = 4;
  std::vector<std::vector<ScoreResult>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One session per lambda call so an eviction mid-session skips only
      // that session, not the thread's remaining ones.
      auto stream_one = [&](uint64_t id) {
        // Sessions are deliberately left un-Ended so the cap stays under
        // pressure; eviction is the only thing freeing shard slots.
        const graph::TemporalGraph& g = dataset[id - 1].graph;
        Event begin;
        begin.kind = Event::Kind::kBegin;
        begin.session_id = id;
        begin.num_nodes = g.num_nodes();
        begin.feature_dim = g.feature_dim();
        begin.features = AllNodeFeatures(g);
        Status status = engine.Ingest(begin);
        while (status.code() == StatusCode::kOverloaded) {
          engine.ProcessPending(&per_thread[static_cast<size_t>(t)]);
          status = engine.Ingest(begin);
        }
        ASSERT_TRUE(status.ok()) << status.ToString();
        for (const graph::TemporalEdge& e : g.edges()) {
          Event edge;
          edge.kind = Event::Kind::kEdge;
          edge.session_id = id;
          edge.src = e.src;
          edge.dst = e.dst;
          edge.edge_time = e.time;
          // The session may already have been evicted by a neighbour's
          // Begin — that is allowed; a NotFound edge just means the session
          // is gone and we skip its score.
          Status edge_status = engine.Ingest(edge);
          if (edge_status.code() == StatusCode::kNotFound) return;
          ASSERT_TRUE(edge_status.ok()) << edge_status.ToString();
        }
        Event score;
        score.kind = Event::Kind::kScore;
        score.session_id = id;
        status = engine.Ingest(score);
        while (status.code() == StatusCode::kOverloaded) {
          engine.ProcessPending(&per_thread[static_cast<size_t>(t)]);
          status = engine.Ingest(score);
        }
        // NotFound: evicted before the request was enqueued — acceptable.
        // But once enqueued (ok), completion is guaranteed below.
        if (!status.ok()) {
          ASSERT_EQ(status.code(), StatusCode::kNotFound)
              << status.ToString();
        }
      };
      for (uint64_t id = static_cast<uint64_t>(t) + 1; id <= dataset.size();
           id += kThreads) {
        stream_one(id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ScoreResult> results;
  engine.Flush(&results);
  for (const std::vector<ScoreResult>& r : per_thread) {
    results.insert(results.end(), r.begin(), r.end());
  }

  // The snapshot taken at enqueue makes every accepted request succeed: a
  // NotFound result here would mean eviction dropped an in-flight score.
  for (const ScoreResult& r : results) {
    EXPECT_TRUE(r.status.ok())
        << "in-flight score dropped for session " << r.session_id << ": "
        << r.status.ToString();
  }
  EXPECT_EQ(engine.metrics().scores_failed.load(), 0u);
  EXPECT_EQ(results.size(), engine.metrics().scores_completed.load());
}

}  // namespace
}  // namespace tpgnn::serve
