// Seeded chaos: replay an EventReplayer stream through the full TCP stack
// while failpoints inject partial I/O, delays, allocation pressure, queue
// rejections, scoring failures, and corrupted wire frames. The invariants
// that must survive every schedule:
//
//   * no crash (the whole binary runs under ASan/UBSan and TSan in CI);
//   * every accepted event is scored exactly once — shed events are
//     reported via events_applied and retried, never dropped or doubled;
//   * every successful score is bit-identical to the fault-free in-process
//     reference (the prefix table of loopback_parity_test);
//   * serve::Metrics error counters equal the injected-fault fire counts
//     exactly — no fault vanishes, none is double-counted;
//   * on a TimeBasis::kInvariant model, state_refolds counts exactly the
//     injected rescale fallbacks and state_rescales exactly the max-time
//     moves the successful scores absorbed.
//
// Determinism: with a fixed failpoint seed the fire schedule is a pure
// function of per-site evaluation indices, so single-threaded replays are
// bit-reproducible end to end (SameSeedSameOutcome pins this down).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/server.h"
#include "net_test_util.h"
#include "serve/inference_engine.h"
#include "serve/replay.h"
#include "serve/serve_test_util.h"
#include "util/env.h"
#include "util/failpoint.h"

namespace tpgnn::net {
namespace {

using failpoint::Kind;
using failpoint::ScopedFailpoint;

constexpr uint64_t kSeed = 5;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    failpoint::ResetCounters();
    failpoint::SetSeed(1);
  }
  void TearDown() override {
    failpoint::ClearAll();
    failpoint::ResetCounters();
  }
};

serve::EventReplayer MakeReplayer(const graph::GraphDataset& dataset) {
  serve::ReplayOptions options;
  options.session_start_interval = 0.25;
  options.score_every_edges = 4;
  return serve::EventReplayer(dataset, options);
}

struct PrefixScore {
  float logit = 0.0f;
  float probability = 0.0f;
};

// (session_id, edges ingested at scoring time) -> fault-free score.
using PrefixTable = std::map<std::pair<uint64_t, int64_t>, PrefixScore>;

// Fault-free ground truth for the model `config` describes: must run with
// no failpoints installed.
void BuildPrefixTable(
    const std::vector<serve::Event>& events, PrefixTable* table,
    const core::TpGnnConfig& config = serve::TinyServeConfig()) {
  ASSERT_EQ(failpoint::ActiveCount(), 0u)
      << "reference table must be built fault-free";
  serve::InferenceEngine engine(config, kSeed, {});
  std::map<uint64_t, int64_t> edges_seen;
  std::vector<serve::ScoreResult> results;

  auto score_now = [&](uint64_t session_id) {
    results.clear();
    ASSERT_TRUE(engine.Ingest(ScoreEvent(session_id)).ok());
    engine.Flush(&results);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
    (*table)[{session_id, edges_seen[session_id]}] = {results[0].logit,
                                                      results[0].probability};
  };

  for (const serve::Event& event : events) {
    switch (event.kind) {
      case serve::Event::Kind::kBegin:
        ASSERT_TRUE(engine.Ingest(event).ok());
        score_now(event.session_id);
        break;
      case serve::Event::Kind::kEdge:
        ASSERT_TRUE(engine.Ingest(event).ok());
        ++edges_seen[event.session_id];
        score_now(event.session_id);
        break;
      case serve::Event::Kind::kScore:
      case serve::Event::Kind::kEnd:
        break;
    }
  }
}

// Every OK result must be bitwise equal to the reference score of its
// session at its arrival prefix. `*failed_out` (optional) receives the
// number of failed results, each of which must carry the injected-fault
// marker of `injected_site` (pass nullptr when no failures are expected).
void CheckResults(const PrefixTable& table,
                  const std::vector<serve::ScoreResult>& results,
                  size_t expected_count, const char* injected_site,
                  size_t* failed_out = nullptr) {
  EXPECT_EQ(results.size(), expected_count);
  size_t failed = 0;
  for (const serve::ScoreResult& result : results) {
    if (!result.status.ok()) {
      ++failed;
      ASSERT_NE(injected_site, nullptr) << result.status.ToString();
      EXPECT_NE(result.status.message().find("injected fault"),
                std::string::npos)
          << result.status.ToString();
      EXPECT_NE(result.status.message().find(injected_site),
                std::string::npos)
          << result.status.ToString();
      continue;
    }
    const auto it = table.find({result.session_id, result.edges_scored});
    ASSERT_NE(it, table.end()) << "session " << result.session_id
                               << " prefix " << result.edges_scored;
    EXPECT_EQ(it->second.logit, result.logit)  // Bitwise: floats travel raw.
        << "session " << result.session_id << " prefix "
        << result.edges_scored;
    EXPECT_EQ(it->second.probability, result.probability);
  }
  if (failed_out != nullptr) {
    *failed_out = failed;
  }
}

// Engine/server options with caps far above what the streams here can
// reach, so genuine backpressure never fires and every overload counter
// increment is attributable to an injected fault.
serve::EngineOptions UncappedEngine() {
  serve::EngineOptions options;
  options.max_pending_scores = 1u << 20;
  return options;
}

ServerOptions UncappedServer() {
  ServerOptions options;
  options.max_inflight_scores = 1u << 20;
  return options;
}

// Injected engine-queue rejections surface as real OVERLOADED frames; the
// client's shed-and-retry path must still deliver every score exactly once,
// and overload_rejections must count exactly the injected fires.
TEST_F(ChaosTest, InjectedOverloadIsRetriedAndAccountedExactly) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/11);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  PrefixTable table;
  BuildPrefixTable(replayer.events(), &table);

  ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
  failpoint::SetSeed(41);
  ScopedFailpoint overload("engine.score_enqueue", 0.2, Kind::kReturnError);

  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  { Status st = client.IngestAll(replayer.events()); ASSERT_TRUE(st.ok()) << st.ToString(); }
  { Status st = client.DrainResults(); ASSERT_TRUE(st.ok()) << st.ToString(); }

  CheckResults(table, client.TakeResults(), replayer.num_score_requests(),
               nullptr);
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_GT(overload.fires(), 0u);
  EXPECT_EQ(metrics.overload_rejections.load(), overload.fires());
  EXPECT_EQ(metrics.scores_failed.load(), 0u);
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
  EXPECT_EQ(metrics.scores_completed.load(), replayer.num_score_requests());
}

// Injected scoring failures come back as typed SCORE_RESULT errors naming
// the site; scores_failed counts exactly the fires and the OK remainder is
// still bit-identical to the reference.
TEST_F(ChaosTest, InjectedScoreFailuresAreTypedAndCountedExactly) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/11);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  PrefixTable table;
  BuildPrefixTable(replayer.events(), &table);

  ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
  failpoint::SetSeed(43);
  ScopedFailpoint fail("shard.score", 0.3, Kind::kReturnError);

  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  { Status st = client.IngestAll(replayer.events()); ASSERT_TRUE(st.ok()) << st.ToString(); }
  { Status st = client.DrainResults(); ASSERT_TRUE(st.ok()) << st.ToString(); }

  size_t failed = 0;
  CheckResults(table, client.TakeResults(), replayer.num_score_requests(),
               "shard.score", &failed);
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_GT(fail.fires(), 0u);
  EXPECT_EQ(failed, fail.fires());
  EXPECT_EQ(metrics.scores_failed.load(), fail.fires());
  EXPECT_EQ(metrics.scores_completed.load(),
            replayer.num_score_requests() - fail.fires());
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
}

// Partial reads/writes, dispatch stalls, and pool allocation failures are
// *recoverable* faults: the stack must absorb them invisibly. Every score
// arrives, bit-identical, and every error counter stays at zero.
TEST_F(ChaosTest, IoFaultScheduleIsInvisibleToResults) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/13);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  PrefixTable table;
  BuildPrefixTable(replayer.events(), &table);

  ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
  failpoint::SetSeed(47);
  ScopedFailpoint recv("net.recv", 0.25, Kind::kShortIo, /*arg=*/7);
  ScopedFailpoint send("net.send", 0.25, Kind::kShortIo, /*arg=*/5);
  ScopedFailpoint send_all("net.send_all", 0.2, Kind::kShortIo, /*arg=*/9);
  ScopedFailpoint recv_some("net.recv_some", 0.2, Kind::kShortIo, /*arg=*/11);
  ScopedFailpoint dispatch("server.dispatch", 0.05, Kind::kDelay,
                           /*arg=*/300);
  ScopedFailpoint pool("pool.acquire", 0.3, Kind::kAllocFail);

  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  { Status st = client.IngestAll(replayer.events()); ASSERT_TRUE(st.ok()) << st.ToString(); }
  { Status st = client.DrainResults(); ASSERT_TRUE(st.ok()) << st.ToString(); }

  CheckResults(table, client.TakeResults(), replayer.num_score_requests(),
               nullptr);
  // The schedule actually bit: the wire faults and pool faults fired.
  EXPECT_GT(recv.fires() + recv_some.fires(), 0u);
  EXPECT_GT(send.fires() + send_all.fires(), 0u);
  EXPECT_GT(pool.fires(), 0u);
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
  EXPECT_EQ(metrics.scores_failed.load(), 0u);
  EXPECT_EQ(metrics.overload_rejections.load(), 0u);
}

// Corrupted frames from the client always surface as a typed ERROR + torn
// connection, protocol_errors counts exactly the injected fires, and a
// fresh connection recovers every time.
TEST_F(ChaosTest, CorruptClientFramesAreTypedCountedAndRecoverable) {
  ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
  failpoint::SetSeed(53);

  constexpr uint64_t kCorruptions = 3;
  ClientOptions options = harness.client_options();
  options.reconnect_on_broken_pipe = false;  // Surface every failure.
  for (uint64_t i = 0; i < kCorruptions; ++i) {
    Client client(options);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Ping().ok());
    {
      ScopedFailpoint corrupt("client.corrupt_frame", 1.0, Kind::kCorruptByte,
                              /*arg=*/0, /*max_fires=*/1);
      Status s = client.Ping();
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
      EXPECT_EQ(corrupt.fires(), 1u);
    }
    // The torn connection is gone for good; a new one works immediately.
    Client fresh(options);
    ASSERT_TRUE(fresh.Connect().ok());
    EXPECT_TRUE(fresh.Ping().ok());
  }
  EXPECT_EQ(harness.engine().metrics().protocol_errors.load(), kCorruptions);
  EXPECT_EQ(failpoint::FireCount("client.corrupt_frame"), kCorruptions);
}

// Corruption on the server->client leg is detected by the client decoder as
// a typed kDataLoss; the client tears the stream down and reconnects clean.
TEST_F(ChaosTest, CorruptServerFramesAreDetectedByClient) {
  ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
  failpoint::SetSeed(59);

  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
  {
    ScopedFailpoint corrupt("server.corrupt_frame", 1.0, Kind::kCorruptByte,
                            /*arg=*/0, /*max_fires=*/1);
    Status s = client.Ping();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_EQ(corrupt.fires(), 1u);
  }
  EXPECT_FALSE(client.connected());  // Decoder failure tears the stream down.
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
}

// Injected connect flaps are absorbed by Connect()'s own retry loop as long
// as the flap count stays below the attempt budget.
TEST_F(ChaosTest, ConnectFlapsAreAbsorbedByRetries) {
  ServerHarness harness({}, {}, kSeed);
  failpoint::SetSeed(61);
  ScopedFailpoint flap("client.connect", 1.0, Kind::kReturnError, /*arg=*/0,
                       /*max_fires=*/2);

  ClientOptions options = harness.client_options();
  options.connect_retries = 3;
  options.retry_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(flap.fires(), 2u);
  EXPECT_TRUE(client.Ping().ok());

  // One more flap than attempts: Connect must fail typed.
  failpoint::SetSeed(61);
  ScopedFailpoint wall("client.connect", 1.0, Kind::kReturnError, /*arg=*/0,
                       /*max_fires=*/4);
  Client blocked(options);
  Status s = blocked.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("client.connect"), std::string::npos);
}

// With a fixed seed and a single-threaded drain (max_batch = 1), the whole
// chaos run is reproducible: the same requests fail, the same fire counts
// accumulate, and the same scores come out bit-identical.
TEST_F(ChaosTest, SameSeedSameOutcome) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/4, /*seed=*/17);
  serve::EventReplayer replayer = MakeReplayer(dataset);

  struct RunRecord {
    std::vector<int> ingest_codes;
    std::vector<std::pair<bool, float>> scores;  // (ok, logit).
    uint64_t enqueue_fires = 0;
    uint64_t score_fires = 0;
    bool operator==(const RunRecord& other) const {
      return ingest_codes == other.ingest_codes && scores == other.scores &&
             enqueue_fires == other.enqueue_fires &&
             score_fires == other.score_fires;
    }
  };

  auto run = [&](uint64_t seed) {
    failpoint::SetSeed(seed);
    ScopedFailpoint enqueue("engine.score_enqueue", 0.25, Kind::kReturnError);
    ScopedFailpoint score("shard.score", 0.25, Kind::kReturnError);
    serve::EngineOptions options = UncappedEngine();
    options.max_batch = 1;  // Sequential drain: deterministic fire order.
    serve::InferenceEngine engine(serve::TinyServeConfig(), kSeed, options);
    RunRecord record;
    std::vector<serve::ScoreResult> results;
    for (const serve::Event& event : replayer.events()) {
      record.ingest_codes.push_back(
          static_cast<int>(engine.Ingest(event).code()));
    }
    engine.Flush(&results);
    for (const serve::ScoreResult& r : results) {
      record.scores.emplace_back(r.status.ok(), r.logit);
    }
    record.enqueue_fires = enqueue.fires();
    record.score_fires = score.fires();
    return record;
  };

  const RunRecord a = run(71);
  const RunRecord b = run(71);
  const RunRecord c = run(72);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.enqueue_fires + a.score_fires, 0u);
  EXPECT_FALSE(a == c);  // A different seed draws a different schedule.
}

// The flagship sweep: all fault families at once, across three distinct
// seeds (CI overrides the seed via TPGNN_CHAOS_SEED to widen coverage under
// ASan/UBSan and TSan). Every invariant must hold for every seed.
TEST_F(ChaosTest, SweepAllFaultFamiliesAcrossSeeds) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/19);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  PrefixTable table;
  BuildPrefixTable(replayer.events(), &table);

  std::vector<uint64_t> seeds = {101, 202, 303};
  if (const int64_t env = GetEnvInt("TPGNN_CHAOS_SEED", -1); env >= 0) {
    seeds = {static_cast<uint64_t>(env)};
  }

  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed);
    failpoint::SetSeed(seed);
    ScopedFailpoint recv("net.recv", 0.15, Kind::kShortIo, /*arg=*/7);
    ScopedFailpoint send("net.send", 0.15, Kind::kShortIo, /*arg=*/5);
    // Every client write is truncated to 9 bytes: I/O-fault coverage must
    // not depend on how many syscalls the kernel's segment coalescing
    // happens to leave for the probabilistic sites (under sanitizers the
    // timing shifts enough that a low-probability schedule can evaluate a
    // handful of times and never fire).
    ScopedFailpoint send_all("net.send_all", 1.0, Kind::kShortIo, /*arg=*/9);
    ScopedFailpoint recv_some("net.recv_some", 0.1, Kind::kShortIo,
                              /*arg=*/11);
    ScopedFailpoint dispatch("server.dispatch", 0.02, Kind::kDelay,
                             /*arg=*/200);
    ScopedFailpoint pool("pool.acquire", 0.2, Kind::kAllocFail);
    ScopedFailpoint enqueue("engine.score_enqueue", 0.05, Kind::kReturnError);
    ScopedFailpoint begin("shard.begin", 0.2, Kind::kReturnError);

    Client client(harness.client_options());
    ASSERT_TRUE(client.Connect().ok());
    { Status st = client.IngestAll(replayer.events()); ASSERT_TRUE(st.ok()) << st.ToString(); }
    { Status st = client.DrainResults(); ASSERT_TRUE(st.ok()) << st.ToString(); }

    // Exactly once, bit-identical, despite every fault family firing.
    CheckResults(table, client.TakeResults(), replayer.num_score_requests(),
                 nullptr);
    const serve::Metrics& metrics = harness.engine().metrics();
    EXPECT_EQ(metrics.scores_completed.load(), replayer.num_score_requests());
    EXPECT_EQ(metrics.scores_failed.load(), 0u);
    EXPECT_EQ(metrics.protocol_errors.load(), 0u);
    // Every overload rejection is attributable to an injected fire — the
    // genuine caps are uncapped in this harness.
    EXPECT_EQ(metrics.overload_rejections.load(),
              enqueue.fires() + begin.fires());
    EXPECT_GT(enqueue.fires() + begin.fires(), 0u);
    // send_all fires on every write, so short-I/O coverage is guaranteed
    // deterministically; recv/send/recv_some stay probabilistic extras.
    EXPECT_GT(send_all.fires(), 0u);
    (void)recv;
    (void)send;
    (void)recv_some;
  }
}

// The replay of the shard's rescale accounting: a successful score counts
// one state_rescale when the previous successful score of its session
// finalized a nonempty prefix at a different max edge time. Which scores
// succeeded is all that matters, so the count is exact under any fault
// schedule.
uint64_t ReplayRescales(const std::vector<serve::Event>& events,
                        const std::vector<serve::ScoreResult>& results) {
  // (session_id, edges ingested) -> max edge time over that prefix.
  std::map<std::pair<uint64_t, int64_t>, double> prefix_max;
  std::map<uint64_t, int64_t> edges_seen;
  std::map<uint64_t, double> running_max;
  for (const serve::Event& event : events) {
    if (event.kind == serve::Event::Kind::kEdge) {
      double& max_time = running_max[event.session_id];
      max_time = std::max(max_time, event.edge_time);
      prefix_max[{event.session_id, ++edges_seen[event.session_id]}] =
          max_time;
    }
  }
  std::map<uint64_t, std::vector<int64_t>> ok_prefixes;
  for (const serve::ScoreResult& result : results) {
    if (result.status.ok()) {
      ok_prefixes[result.session_id].push_back(result.edges_scored);
    }
  }
  uint64_t rescales = 0;
  for (auto& [session_id, prefixes] : ok_prefixes) {
    std::sort(prefixes.begin(), prefixes.end());
    bool finalized = false;
    double finalized_max = 0.0;
    for (const int64_t edges : prefixes) {
      const auto it = prefix_max.find({session_id, edges});
      if (it == prefix_max.end()) {
        continue;  // An empty prefix finalizes no fold.
      }
      if (finalized && finalized_max != it->second) {
        ++rescales;
      }
      finalized = true;
      finalized_max = it->second;
    }
  }
  return rescales;
}

// Every fault family that keeps exactly-once intact, at once, over TCP to
// an invariant-basis model. Replayed streams are chronological per session,
// so that model never refolds on its own: every state_refold must come from
// a shard.rescale fire, which discards both folded components of the SUM
// updater (node state x and time accumulator m), and every max-time move a
// successful score absorbs must count as a state_rescale. TPGNN_CHAOS_SEED
// narrows the run to one failpoint seed.
TEST_F(ChaosTest, RefoldAndRescaleCountsAttributeToInjectedFires) {
  constexpr char kFaults[] =
      "net.recv=0.15:short_io:7,net.send=0.15:short_io:5,"
      "net.send_all=0.1:short_io:9,net.recv_some=0.1:short_io:11,"
      "server.dispatch=0.02:delay:200,pool.acquire=0.2:alloc_fail,"
      "engine.score_enqueue=0.05:return_error,shard.begin=0.1:return_error,"
      "shard.score=0.05:return_error,shard.rescale=0.1:return_error";
  constexpr uint64_t kFoldedComponents = 2;
  core::TpGnnConfig config = serve::TinyServeConfig();
  config.time_basis = core::TimeBasis::kInvariant;

  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/8, /*seed=*/19);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  PrefixTable table;
  BuildPrefixTable(replayer.events(), &table, config);

  std::vector<uint64_t> seeds = {101, 102, 103};
  if (const int64_t env = GetEnvInt("TPGNN_CHAOS_SEED", -1); env >= 0) {
    seeds = {static_cast<uint64_t>(env)};
  }

  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ServerHarness harness(UncappedEngine(), UncappedServer(), kSeed, config);
    failpoint::ResetCounters();
    failpoint::SetSeed(seed);
    ASSERT_TRUE(failpoint::InstallFromSpecString(kFaults).ok());

    Client client(harness.client_options());
    ASSERT_TRUE(client.Connect().ok());
    { Status st = client.IngestAll(replayer.events()); ASSERT_TRUE(st.ok()) << st.ToString(); }
    { Status st = client.DrainResults(); ASSERT_TRUE(st.ok()) << st.ToString(); }
    // Disarm before reading the counters so the accounting is frozen.
    failpoint::ClearAll();
    const std::vector<serve::ScoreResult> results = client.TakeResults();

    size_t failed = 0;
    CheckResults(table, results, replayer.num_score_requests(), "shard.score",
                 &failed);
    const uint64_t score_fires = failpoint::FireCount("shard.score");
    const uint64_t rescale_fires = failpoint::FireCount("shard.rescale");
    EXPECT_GT(score_fires, 0u);
    EXPECT_GT(rescale_fires, 0u);
    const serve::Metrics& metrics = harness.engine().metrics();
    EXPECT_EQ(failed, score_fires);
    EXPECT_EQ(metrics.scores_failed.load(), score_fires);
    EXPECT_EQ(metrics.overload_rejections.load(),
              failpoint::FireCount("engine.score_enqueue") +
                  failpoint::FireCount("shard.begin"));
    EXPECT_EQ(metrics.protocol_errors.load(), 0u);
    EXPECT_EQ(metrics.state_refolds.load(), kFoldedComponents * rescale_fires);
    EXPECT_EQ(metrics.state_rescales.load(),
              ReplayRescales(replayer.events(), results));
  }
}

}  // namespace
}  // namespace tpgnn::net
