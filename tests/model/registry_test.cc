// The versioned model registry (DESIGN.md §4.8): lifecycle verbs, the
// deterministic A/B split, checkpoint load round-trips with architecture
// pre-flight, failpoint-injected faults that must never leave a
// half-registered version behind, and handle refcounts keeping retired
// versions alive for the sessions still pinned to them.

#include "model/registry.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/model.h"
#include "data/datasets.h"
#include "nn/checkpoint.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "testing/temp_path.h"

namespace tpgnn::model {
namespace {

core::TpGnnConfig TinyConfig() {
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

float Logit(core::TpGnnModel& model, const graph::TemporalGraph& g) {
  tensor::NoGradGuard no_grad;
  Rng rng(0);
  return model.ForwardLogit(g, /*training=*/false, rng).item();
}

TEST(ModelRegistryTest, InitialVersionIsPrimary) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_NE(registry.primary(), nullptr);
  EXPECT_EQ(registry.primary()->name(), "v0");
  EXPECT_EQ(registry.candidate(), nullptr);
  EXPECT_EQ(registry.shadow(), nullptr);
  // The empty name resolves to the primary (v1 snapshots carry no tag).
  EXPECT_EQ(registry.Find(""), registry.primary());
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.ResolveForSession(42), registry.primary());
}

TEST(ModelRegistryTest, RegisterRejectsDuplicatesAndEmptyNames) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  EXPECT_TRUE(registry.Register("v1", 7).ok());
  EXPECT_EQ(registry.Register("v1", 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("v0", 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("", 8).code(), StatusCode::kInvalidArgument);
  // Sequence numbers are strictly monotone across versions.
  EXPECT_GT(registry.Find("v1")->seq(), registry.Find("v0")->seq());
}

TEST(ModelRegistryTest, DrainActivationKeepsEpochRebaseBumpsIt) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  ASSERT_TRUE(registry.Register("v2", 9).ok());

  const uint64_t epoch0 = registry.assignment_epoch();
  ASSERT_TRUE(registry.Activate("v1", SwapPolicy::kDrain).ok());
  EXPECT_EQ(registry.primary()->name(), "v1");
  // Drain: live sessions keep their pinned version, so no epoch bump —
  // nothing about existing assignments changed.
  EXPECT_EQ(registry.assignment_epoch(), epoch0);

  ASSERT_TRUE(registry.Activate("v2", SwapPolicy::kImmediateRebase).ok());
  EXPECT_EQ(registry.primary()->name(), "v2");
  EXPECT_GT(registry.assignment_epoch(), epoch0);

  EXPECT_EQ(registry.Activate("nope", SwapPolicy::kDrain).code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, AbSplitIsDeterministicAndEpochStamped) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());

  const uint64_t epoch0 = registry.assignment_epoch();
  ASSERT_TRUE(registry.SetCandidate("v1", 0.5).ok());
  EXPECT_GT(registry.assignment_epoch(), epoch0);
  EXPECT_DOUBLE_EQ(registry.ab_fraction(), 0.5);

  size_t candidate_hits = 0;
  for (uint64_t id = 0; id < 512; ++id) {
    uint64_t epoch = 0;
    ModelVersionPtr v = registry.ResolveForSession(id, &epoch);
    const bool expect_candidate =
        AbPicksCandidate(id, registry.ab_salt(), 0.5);
    EXPECT_EQ(v->name(), expect_candidate ? "v1" : "v0") << "session " << id;
    EXPECT_EQ(epoch, registry.assignment_epoch());
    if (expect_candidate) ++candidate_hits;
    // Pure function of (id, salt, fraction): resolving again agrees.
    EXPECT_EQ(registry.ResolveForSession(id), v);
  }
  // The split actually splits (splitmix64 is uniform; 512 draws at 0.5
  // land far from either edge).
  EXPECT_GT(candidate_hits, 512 / 4);
  EXPECT_LT(candidate_hits, 512 * 3 / 4);

  // Fraction edges: 0 routes nobody, 1 routes everybody.
  ASSERT_TRUE(registry.SetCandidate("v1", 0.0).ok());
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(registry.ResolveForSession(id)->name(), "v0");
  }
  ASSERT_TRUE(registry.SetCandidate("v1", 1.0).ok());
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(registry.ResolveForSession(id)->name(), "v1");
  }

  const uint64_t epoch1 = registry.assignment_epoch();
  ASSERT_TRUE(registry.ClearCandidate().ok());
  EXPECT_GT(registry.assignment_epoch(), epoch1);
  EXPECT_EQ(registry.candidate(), nullptr);
  EXPECT_EQ(registry.ResolveForSession(7)->name(), "v0");
}

TEST(ModelRegistryTest, ActivatingTheCandidateClearsTheRole) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  ASSERT_TRUE(registry.SetCandidate("v1", 0.25).ok());
  ASSERT_TRUE(registry.Activate("v1", SwapPolicy::kDrain).ok());
  EXPECT_EQ(registry.primary()->name(), "v1");
  EXPECT_EQ(registry.candidate(), nullptr);
  EXPECT_DOUBLE_EQ(registry.ab_fraction(), 0.0);
}

TEST(ModelRegistryTest, ShadowRoleSetAndClear) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  EXPECT_EQ(registry.SetShadow("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry.SetShadow("v1").ok());
  EXPECT_EQ(registry.shadow()->name(), "v1");
  ASSERT_TRUE(registry.ClearShadow().ok());
  EXPECT_EQ(registry.shadow(), nullptr);
}

TEST(ModelRegistryTest, RetireRefusesActiveRolesAndHandlesKeepVersionsAlive) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  EXPECT_EQ(registry.Retire("v0").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(registry.SetShadow("v1").ok());
  EXPECT_EQ(registry.Retire("v1").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(registry.ClearShadow().ok());

  // A session-style handle outlives the registry's reference.
  ModelVersionPtr pinned = registry.Find("v1");
  ASSERT_TRUE(registry.Retire("v1").ok());
  EXPECT_EQ(registry.Find("v1"), nullptr);
  EXPECT_EQ(pinned->name(), "v1");  // Still alive through the handle.
  EXPECT_EQ(registry.Retire("v1").code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LoadRoundTripsCheckpointParameters) {
  const core::TpGnnConfig config = TinyConfig();
  const std::string path = UniqueTempPath("v2.ckpt");
  core::TpGnnModel source(config, /*seed=*/99);
  ASSERT_TRUE(
      nn::SaveParameters(source, path, core::ConfigMetadata(config)).ok());

  ModelRegistry registry(config, /*seed=*/3);
  ASSERT_TRUE(registry.Load("v2", path).ok());
  ASSERT_NE(registry.Find("v2"), nullptr);
  EXPECT_EQ(registry.Find("v2")->source_path(), path);
  // Loading does not activate.
  EXPECT_EQ(registry.primary()->name(), "v0");

  // The loaded version scores exactly as the checkpoint's source model.
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/2, /*seed=*/33);
  core::TpGnnModel& loaded = const_cast<core::TpGnnModel&>(
      registry.Find("v2")->model());
  for (size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(Logit(loaded, dataset[i].graph),
              Logit(source, dataset[i].graph))
        << "graph " << i;
  }

  EXPECT_EQ(registry.Load("v2", path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, LoadRejectsWrongArchitectureBeforeParameters) {
  core::TpGnnConfig other = TinyConfig();
  other.embed_dim = 16;  // Different architecture.
  const std::string path = UniqueTempPath("wrong_arch.ckpt");
  core::TpGnnModel source(other, /*seed=*/99);
  ASSERT_TRUE(
      nn::SaveParameters(source, path, core::ConfigMetadata(other)).ok());

  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  EXPECT_EQ(registry.Load("v2", path).code(),
            StatusCode::kFailedPrecondition);
  // The rejected load leaves no version behind; the name stays free.
  EXPECT_EQ(registry.Find("v2"), nullptr);
  std::remove(path.c_str());

  EXPECT_EQ(registry.Load("v2", path).code(), StatusCode::kNotFound)
      << "missing file surfaces the checkpoint I/O error";
}

TEST(ModelRegistryTest, InjectedLoadFaultLeavesRegistryUntouched) {
  const core::TpGnnConfig config = TinyConfig();
  const std::string path = UniqueTempPath("faulted.ckpt");
  core::TpGnnModel source(config, /*seed=*/99);
  ASSERT_TRUE(
      nn::SaveParameters(source, path, core::ConfigMetadata(config)).ok());

  ModelRegistry registry(config, /*seed=*/3);
  {
    failpoint::ScopedFailpoint fp("model.load", 1.0,
                                  failpoint::Kind::kReturnError);
    Status s = registry.Load("v2", path);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_EQ(fp.fires(), 1u);
  }
  EXPECT_EQ(registry.Find("v2"), nullptr);
  // With the failpoint gone the same load succeeds — no poisoned state.
  EXPECT_TRUE(registry.Load("v2", path).ok());
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, InjectedActivateFaultKeepsOldPrimary) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  const uint64_t epoch0 = registry.assignment_epoch();
  {
    failpoint::ScopedFailpoint fp("model.activate", 1.0,
                                  failpoint::Kind::kReturnError);
    Status s = registry.Activate("v1", SwapPolicy::kImmediateRebase);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(fp.fires(), 1u);
  }
  EXPECT_EQ(registry.primary()->name(), "v0");
  EXPECT_EQ(registry.assignment_epoch(), epoch0);
  EXPECT_TRUE(registry.Activate("v1", SwapPolicy::kImmediateRebase).ok());
  EXPECT_EQ(registry.primary()->name(), "v1");
}

TEST(ModelRegistryTest, StatusJsonNamesRolesAndVersions) {
  ModelRegistry registry(TinyConfig(), /*seed=*/3);
  ASSERT_TRUE(registry.Register("v1", 7).ok());
  ASSERT_TRUE(registry.Register("v2", 9).ok());
  ASSERT_TRUE(registry.SetCandidate("v1", 0.25).ok());
  ASSERT_TRUE(registry.SetShadow("v2").ok());

  const std::string json = registry.StatusJson();
  EXPECT_NE(json.find("\"primary\": \"v0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"candidate\": \"v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shadow\": \"v2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ab_fraction\": 0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"versions\""), std::string::npos) << json;

  std::vector<ModelVersionInfo> versions = registry.Versions();
  ASSERT_EQ(versions.size(), 3u);
  for (const ModelVersionInfo& info : versions) {
    if (info.name == "v0") {
      EXPECT_TRUE(info.is_primary);
    }
    if (info.name == "v1") {
      EXPECT_TRUE(info.is_candidate);
    }
    if (info.name == "v2") {
      EXPECT_TRUE(info.is_shadow);
    }
  }
}

TEST(ModelRegistryTest, SplitMixAbPredicateMatchesDocumentedForm) {
  // The exposed predicate is the documented closed form — remote tooling
  // computes assignments without asking the server.
  const uint64_t salt = 0x7450474e4d4f444cULL;
  for (uint64_t id : {0ull, 1ull, 42ull, 0xffffffffffffffffull}) {
    EXPECT_FALSE(AbPicksCandidate(id, salt, 0.0));
    EXPECT_TRUE(AbPicksCandidate(id, salt, 1.0));
    const double threshold =
        static_cast<double>(SplitMix64(id ^ salt)) / 18446744073709551616.0;
    // Just above the hash's quantile picks the candidate, just below not.
    if (threshold > 0.001 && threshold < 0.999) {
      EXPECT_TRUE(AbPicksCandidate(id, salt, threshold + 0.001));
      EXPECT_FALSE(AbPicksCandidate(id, salt, threshold - 0.001));
    }
  }
}

}  // namespace
}  // namespace tpgnn::model
