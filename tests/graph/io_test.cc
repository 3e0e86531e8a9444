#include "graph/io.h"
#include "testing/temp_path.h"

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace tpgnn::graph {
namespace {

TemporalGraph MakeGraph() {
  TemporalGraph g(3, 2);
  g.SetNodeFeature(0, {0.5f, -1.25f});
  g.SetNodeFeature(2, {3.0f, 0.125f});
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(1, 2, 2.75);
  g.AddEdge(0, 2, 2.75);  // Tie.
  return g;
}

TEST(GraphIoTest, RoundTripThroughStream) {
  TemporalGraph original = MakeGraph();
  std::stringstream stream;
  ASSERT_TRUE(WriteGraph(stream, original).ok());
  TemporalGraph loaded(1, 1);
  ASSERT_TRUE(ReadGraph(stream, &loaded).ok());
  EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.feature_dim(), original.feature_dim());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  for (int64_t v = 0; v < original.num_nodes(); ++v) {
    EXPECT_EQ(loaded.node_feature(v), original.node_feature(v));
  }
  for (size_t i = 0; i < original.edges().size(); ++i) {
    EXPECT_EQ(loaded.edges()[i], original.edges()[i]);
  }
}

TEST(GraphIoTest, RejectsWrongMagic) {
  std::stringstream stream("not-a-graph 1\n");
  TemporalGraph g(1, 1);
  Status status = ReadGraph(stream, &g);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsTruncatedEdges) {
  TemporalGraph original = MakeGraph();
  std::stringstream stream;
  ASSERT_TRUE(WriteGraph(stream, original).ok());
  std::string text = stream.str();
  text = text.substr(0, text.rfind('E'));  // Cut the last edge line.
  std::stringstream truncated(text);
  TemporalGraph g(1, 1);
  EXPECT_FALSE(ReadGraph(truncated, &g).ok());
}

TEST(GraphIoTest, RejectsOutOfRangeEdge) {
  std::stringstream stream(
      "tpgnn-graph 1\n2 1 1\nF 0\nF 0\nE 0 5 1.0\n");
  TemporalGraph g(1, 1);
  EXPECT_FALSE(ReadGraph(stream, &g).ok());
}

TEST(GraphIoTest, EmptyGraphRoundTrip) {
  TemporalGraph original(0, 3);
  std::stringstream stream;
  ASSERT_TRUE(WriteGraph(stream, original).ok());
  TemporalGraph loaded(1, 1);
  ASSERT_TRUE(ReadGraph(stream, &loaded).ok());
  EXPECT_EQ(loaded.num_nodes(), 0);
  EXPECT_EQ(loaded.num_edges(), 0);
}

TEST(DatasetIoTest, RoundTripThroughFile) {
  GraphDataset dataset;
  dataset.push_back({MakeGraph(), 1});
  dataset.push_back({MakeGraph(), 0});
  const std::string path = UniqueTempPath("dataset.txt");
  ASSERT_TRUE(SaveDataset(path, dataset).ok());
  GraphDataset loaded;
  ASSERT_TRUE(LoadDataset(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].label, 1);
  EXPECT_EQ(loaded[1].label, 0);
  EXPECT_EQ(loaded[0].graph.num_edges(), 3);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  GraphDataset loaded;
  Status status = LoadDataset("/nonexistent/path/ds.txt", &loaded);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(DatasetIoTest, EmptyDatasetRoundTrip) {
  const std::string path = UniqueTempPath("empty_ds.txt");
  ASSERT_TRUE(SaveDataset(path, {}).ok());
  GraphDataset loaded;
  ASSERT_TRUE(LoadDataset(path, &loaded).ok());
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpgnn::graph
