#include "nn/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "nn/gru_cell.h"
#include "nn/linear.h"
#include "testing/temp_path.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

class TwoLayer : public Module {
 public:
  explicit TwoLayer(uint64_t seed) : rng_(seed), fc1_(4, 8, rng_),
                                     fc2_(8, 2, rng_) {
    RegisterChild("fc1", &fc1_);
    RegisterChild("fc2", &fc2_);
  }

  tensor::Tensor Forward(const tensor::Tensor& x) const {
    return fc2_.Forward(tensor::Relu(fc1_.Forward(x)));
  }

 private:
  Rng rng_;
  Linear fc1_;
  Linear fc2_;
};

TEST(CheckpointTest, SaveLoadRestoresOutputs) {
  const std::string path = UniqueTempPath("ckpt.txt");
  TwoLayer source(1);
  Rng rng(9);
  tensor::Tensor x = tensor::Tensor::Uniform({3, 4}, -1, 1, rng);
  tensor::Tensor expected = source.Forward(x);
  ASSERT_TRUE(SaveParameters(source, path).ok());

  TwoLayer target(2);  // Different init.
  EXPECT_FALSE(tensor::AllClose(target.Forward(x), expected, 1e-5f, 1e-5f));
  ASSERT_TRUE(LoadParameters(target, path).ok());
  EXPECT_TRUE(tensor::AllClose(target.Forward(x), expected, 1e-6f, 1e-6f));
  std::remove(path.c_str());
}

TEST(CheckpointTest, ArchitectureMismatchIsRejected) {
  const std::string path = UniqueTempPath("ckpt2.txt");
  TwoLayer source(1);
  ASSERT_TRUE(SaveParameters(source, path).ok());
  Rng rng(3);
  GruCell other(4, 8, rng);
  Status status = LoadParameters(other, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  TwoLayer model(1);
  EXPECT_EQ(LoadParameters(model, "/nonexistent/ckpt.txt").code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  const std::string path = UniqueTempPath("ckpt3.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage contents", f);
  std::fclose(f);
  TwoLayer model(1);
  EXPECT_FALSE(LoadParameters(model, path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RoundTripPreservesExactValuesApproximately) {
  const std::string path = UniqueTempPath("ckpt4.txt");
  Rng rng(5);
  Linear fc(3, 3, rng);
  std::vector<float> before = fc.Parameters()[0].data();
  ASSERT_TRUE(SaveParameters(fc, path).ok());
  Rng rng2(6);
  Linear fc2(3, 3, rng2);
  ASSERT_TRUE(LoadParameters(fc2, path).ok());
  std::vector<float> after = fc2.Parameters()[0].data();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-6f);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MetadataRoundTrip) {
  const std::string path = UniqueTempPath("ckpt5.txt");
  TwoLayer source(1);
  CheckpointMetadata metadata;
  metadata["model"] = "tp-gnn";
  metadata["hidden_dim"] = "32";
  metadata["note"] = "value with spaces";
  ASSERT_TRUE(SaveParameters(source, path, metadata).ok());

  CheckpointMetadata head_only;
  ASSERT_TRUE(ReadCheckpointMetadata(path, &head_only).ok());
  EXPECT_EQ(head_only, metadata);

  TwoLayer target(2);
  CheckpointMetadata loaded;
  ASSERT_TRUE(LoadParameters(target, path, &loaded).ok());
  EXPECT_EQ(loaded, metadata);
  std::remove(path.c_str());
}

// Reads a saved file and splits it into (value region, whole file). The
// value region is the parameter count line through the last parameter
// line — what the v3 crc32 trailer protects. Legacy-format tests splice it
// under v1/v2 headers.
std::string SavedValueRegion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  const size_t after_header = bytes.find('\n') + 1;
  const size_t after_meta = bytes.find('\n', after_header) + 1;
  const size_t crc = bytes.rfind("\ncrc32 ") + 1;
  EXPECT_LT(after_meta, crc) << bytes;
  return bytes.substr(after_meta, crc - after_meta);
}

TEST(CheckpointTest, EmptyMetadataWritesVersionThreeWithEmptyMetaBlock) {
  // Every new save carries the integrity trailer, so even metadata-free
  // files are version 3 with a `meta 0` block.
  const std::string path = UniqueTempPath("ckpt6.txt");
  TwoLayer source(1);
  ASSERT_TRUE(SaveParameters(source, path).ok());
  std::ifstream in(path);
  std::string magic, tag;
  int version = 0;
  size_t entries = 99;
  in >> magic >> version >> tag >> entries;
  EXPECT_EQ(magic, "tpgnn-params");
  EXPECT_EQ(version, 3);
  EXPECT_EQ(tag, "meta");
  EXPECT_EQ(entries, 0u);
  in.close();

  CheckpointMetadata metadata{{"stale", "x"}};
  ASSERT_TRUE(ReadCheckpointMetadata(path, &metadata).ok());
  EXPECT_TRUE(metadata.empty());  // Cleared, not appended to.
  std::remove(path.c_str());
}

TEST(CheckpointTest, VersionOneFileStillLoads) {
  const std::string path = UniqueTempPath("ckpt7.txt");
  TwoLayer source(1);
  ASSERT_TRUE(SaveParameters(source, path).ok());
  // Rewrite as a legacy v1 file: bare header, no meta block, no trailer.
  {
    const std::string body = SavedValueRegion(path);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "tpgnn-params 1\n" << body;
  }

  Rng rng(9);
  tensor::Tensor x = tensor::Tensor::Uniform({3, 4}, -1, 1, rng);
  tensor::Tensor expected = source.Forward(x);
  TwoLayer target(2);
  CheckpointMetadata metadata;
  ASSERT_TRUE(LoadParameters(target, path, &metadata).ok());
  EXPECT_TRUE(metadata.empty());
  EXPECT_TRUE(tensor::AllClose(target.Forward(x), expected, 1e-6f, 1e-6f));
  std::remove(path.c_str());
}

TEST(CheckpointTest, VersionTwoFileStillLoads) {
  const std::string path = UniqueTempPath("ckpt7b.txt");
  TwoLayer source(1);
  ASSERT_TRUE(SaveParameters(source, path).ok());
  // Rewrite as a legacy v2 file: meta block, no crc32 trailer.
  {
    const std::string body = SavedValueRegion(path);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "tpgnn-params 2\nmeta 1\nnote legacy\n" << body;
  }

  Rng rng(9);
  tensor::Tensor x = tensor::Tensor::Uniform({3, 4}, -1, 1, rng);
  tensor::Tensor expected = source.Forward(x);
  TwoLayer target(2);
  CheckpointMetadata metadata;
  ASSERT_TRUE(LoadParameters(target, path, &metadata).ok());
  EXPECT_EQ(metadata, (CheckpointMetadata{{"note", "legacy"}}));
  EXPECT_TRUE(tensor::AllClose(target.Forward(x), expected, 1e-6f, 1e-6f));
  std::remove(path.c_str());
}

TEST(CheckpointTest, ValueCorruptionFailsChecksum) {
  const std::string path = UniqueTempPath("ckpt7c.txt");
  TwoLayer source(1);
  ASSERT_TRUE(SaveParameters(source, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string bytes = buffer.str();
  // Perturb one digit of the last value — a change the grammar alone
  // cannot catch. The checksum must.
  const size_t pos = bytes.rfind(' ', bytes.rfind("\ncrc32 ") - 2) + 1;
  bytes[pos] = bytes[pos] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  TwoLayer victim(2);
  Status s = LoadParameters(victim, path);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("crc32 mismatch"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, InvalidMetadataKeysRejectedAtSave) {
  const std::string path = UniqueTempPath("ckpt8.txt");
  TwoLayer source(1);
  EXPECT_EQ(SaveParameters(source, path, {{"bad key", "v"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SaveParameters(source, path, {{"", "v"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SaveParameters(source, path, {{"k", "line\nbreak"}}).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, DuplicateMetadataKeyInFileRejected) {
  const std::string path = UniqueTempPath("ckpt9.txt");
  std::ofstream out(path);
  out << "tpgnn-params 2\nmeta 2\nk a\nk b\n0\n";
  out.close();
  CheckpointMetadata metadata;
  EXPECT_FALSE(ReadCheckpointMetadata(path, &metadata).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnknownVersionRejected) {
  const std::string path = UniqueTempPath("ckpt10.txt");
  std::ofstream out(path);
  out << "tpgnn-params 9\n0\n";
  out.close();
  TwoLayer model(1);
  Status status = LoadParameters(model, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("version"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpgnn::nn
