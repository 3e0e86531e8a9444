// Rolling a checkpoint across the cluster through the router's MODEL_LOAD /
// MODEL_ACTIVATE fan-out (DESIGN.md §4.8): the roll visits backends one at
// a time in name order, the first failing backend stops the roll (no
// half-applied fleet beyond the failure point), and MODEL_STATUS aggregates
// every live backend's registry snapshot under {"backends": {...}}. The
// end state is proven the strong way: a session scored through the router
// after the roll is bit-identical to the rolled checkpoint's offline
// forward.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster_test_util.h"
#include "core/model.h"
#include "data/datasets.h"
#include "net/client.h"
#include "nn/checkpoint.h"
#include "testing/temp_path.h"
#include "util/failpoint.h"

namespace tpgnn::cluster {
namespace {

constexpr uint64_t kCheckpointSeed = 7;  // != kClusterSeed: v2 scores differ.

std::string WriteCheckpoint(const std::string& tag) {
  const std::string path = UniqueTempPath(tag + ".ckpt");
  const core::TpGnnConfig config = serve::TinyServeConfig();
  core::TpGnnModel model(config, kCheckpointSeed);
  Status s = nn::SaveParameters(model, path, core::ConfigMetadata(config));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return path;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ModelRollTest, RollingLoadAndActivateReachesEveryBackend) {
  RouterHarness harness(3);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  const std::string path = WriteCheckpoint("roll");
  ASSERT_TRUE(client.ModelLoad("v2", path).ok());

  // Every backend holds the new version, inactive; status aggregation
  // names each backend and still shows three v0 primaries.
  for (size_t i = 0; i < harness.num_backends(); ++i) {
    EXPECT_NE(harness.backend(i).engine().registry().Find("v2"), nullptr)
        << "backend " << i;
    EXPECT_EQ(harness.backend(i).engine().registry().Find("")->name(), "v0")
        << "backend " << i;
  }
  std::string json;
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_NE(json.find("\"backends\": {"), std::string::npos) << json;
  for (size_t i = 0; i < harness.num_backends(); ++i) {
    EXPECT_NE(json.find("\"" + RouterHarness::BackendName(i) + "\""),
              std::string::npos)
        << json;
  }
  EXPECT_EQ(CountOccurrences(json, "\"primary\": \"v0\""), 3u) << json;

  ASSERT_TRUE(
      client.ModelActivate("v2", net::ModelAdminMode::kActivateDrain).ok());
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_EQ(CountOccurrences(json, "\"primary\": \"v2\""), 3u) << json;

  // A fresh session scored through the router serves the rolled
  // checkpoint's parameters, whichever backend the ring picked.
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(net::BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(net::EdgeEvent(1, e.src, e.dst, e.time));
  }
  ASSERT_TRUE(client.IngestAll(events).ok());
  serve::ScoreResult result;
  ASSERT_TRUE(client.Score(1, -1, &result).ok());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  core::TpGnnModel reference(serve::TinyServeConfig(), kCheckpointSeed);
  EXPECT_EQ(result.logit, serve::OfflineLogit(reference, g));

  std::remove(path.c_str());
}

TEST(ModelRollTest, FirstFailingBackendStopsTheLoadRoll) {
  RouterHarness harness(3);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  // Backends roll in name order (b0, b1, b2). Pre-loading "v2" directly
  // into b1 makes the router's MODEL_LOAD a duplicate there: b0 applies,
  // b1 fails, and the roll must stop before ever reaching b2.
  const std::string path = WriteCheckpoint("partial");
  ASSERT_TRUE(
      harness.backend(1).engine().LoadModelVersion("v2", path).ok());

  Status st = client.ModelLoad("v2", path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("backend b1"), std::string::npos)
      << st.ToString();
  EXPECT_NE(harness.backend(0).engine().registry().Find("v2"), nullptr);
  EXPECT_EQ(harness.backend(2).engine().registry().Find("v2"), nullptr);

  std::remove(path.c_str());
}

TEST(ModelRollTest, InjectedActivateFaultStopsTheRollAtTheFirstBackend) {
  RouterHarness harness(3);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  const std::string path = WriteCheckpoint("fault");
  ASSERT_TRUE(client.ModelLoad("v2", path).ok());

  {
    // All backends share this process's failpoints; with probability 1 the
    // very first activate faults, so exactly one firing proves the roll
    // stopped there instead of trying the rest of the fleet.
    failpoint::ScopedFailpoint fp("model.activate", 1.0,
                                  failpoint::Kind::kReturnError);
    Status st =
        client.ModelActivate("v2", net::ModelAdminMode::kActivateDrain);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.message().find("backend b0"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(fp.fires(), 1u);
    for (size_t i = 0; i < harness.num_backends(); ++i) {
      EXPECT_EQ(harness.backend(i).engine().registry().Find("")->name(),
                "v0")
          << "backend " << i;
    }
  }

  // With the fault gone the same roll completes fleet-wide.
  ASSERT_TRUE(
      client.ModelActivate("v2", net::ModelAdminMode::kActivateDrain).ok());
  for (size_t i = 0; i < harness.num_backends(); ++i) {
    EXPECT_EQ(harness.backend(i).engine().registry().Find("")->name(), "v2")
        << "backend " << i;
  }

  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpgnn::cluster
