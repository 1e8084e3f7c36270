#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "graph/upscale.h"

namespace gpm::graph {
namespace {

TEST(ErdosRenyiTest, ProducesRequestedEdges) {
  Rng rng(1);
  Graph g = ErdosRenyi(100, 300, &rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
}

TEST(ErdosRenyiTest, CapsAtCompleteGraph) {
  Rng rng(1);
  Graph g = ErdosRenyi(5, 1000, &rng);
  EXPECT_EQ(g.num_edges(), 10u);
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  Rng a(42), b(42);
  Graph g1 = ErdosRenyi(50, 100, &a);
  Graph g2 = ErdosRenyi(50, 100, &b);
  EXPECT_EQ(g1.col(), g2.col());
}

TEST(RmatTest, SkewedDegrees) {
  Rng rng(3);
  Graph g = Rmat(10, 4000, &rng);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_GT(g.num_edges(), 3000u);  // some dedup loss is fine
  // R-MAT hubs: max degree far above average.
  EXPECT_GT(g.max_degree(), 4 * g.average_degree());
}

TEST(PowerLawTest, HeavyHead) {
  Rng rng(5);
  Graph g = PowerLaw(500, 2000, 0.9, &rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_GT(g.num_edges(), 1500u);
  // Low-id vertices should be hubs under the (i+1)^-alpha weighting.
  uint64_t head = 0, tail = 0;
  for (VertexId v = 0; v < 50; ++v) head += g.degree(v);
  for (VertexId v = 450; v < 500; ++v) tail += g.degree(v);
  EXPECT_GT(head, tail * 2);
}

TEST(LabelsTest, ZipfAssignsAllInRange) {
  Rng rng(7);
  Graph g = ErdosRenyi(200, 400, &rng);
  AssignLabelsZipf(&g, 4, 0.5, &rng);
  ASSERT_TRUE(g.labeled());
  EXPECT_LE(g.num_labels(), 4u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(g.label(v), 4u);
  }
}

TEST(UpscaleTest, ScalesVerticesAndEdges) {
  Rng rng(11);
  Graph base = ErdosRenyi(50, 100, &rng);
  AssignLabelsZipf(&base, 3, 0.0, &rng);
  Graph big = Upscale(base, 4, &rng);
  EXPECT_EQ(big.num_vertices(), 200u);
  EXPECT_EQ(big.num_edges(), 400u);
}

TEST(UpscaleTest, PreservesDegreeDistribution) {
  Rng rng(13);
  Graph base = PowerLaw(100, 400, 0.8, &rng);
  Graph big = Upscale(base, 3, &rng);
  // Each clone keeps its original's degree.
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(big.degree(v + c * base.num_vertices()), base.degree(v));
    }
  }
}

TEST(UpscaleTest, ClonesInheritLabels) {
  Rng rng(17);
  Graph base = ErdosRenyi(20, 40, &rng);
  AssignLabelsZipf(&base, 4, 0.5, &rng);
  Graph big = Upscale(base, 2, &rng);
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    EXPECT_EQ(big.label(v + base.num_vertices()), base.label(v));
  }
}

TEST(DatasetsTest, AllTenListed) {
  EXPECT_EQ(AllDatasets().size(), 10u);
  EXPECT_EQ(DatasetByName("CP").full_name, "cit-Patent");
  EXPECT_EQ(DatasetByName("TW").full_name, "twitter_rv");
}

TEST(DatasetsTest, SmallProxiesMaterialize) {
  for (const char* name : {"ER", "EA", "CP", "CL"}) {
    Graph g = MakeDataset(name);
    const DatasetInfo& info = DatasetByName(name);
    EXPECT_GT(g.num_edges(), info.proxy_edges / 3) << name;
    EXPECT_TRUE(g.labeled()) << name;
  }
}

TEST(DatasetsTest, DeterministicForSeed) {
  Graph a = MakeDataset("EA", 99);
  Graph b = MakeDataset("EA", 99);
  EXPECT_EQ(a.col(), b.col());
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(LoaderTest, TextRoundTrip) {
  Rng rng(23);
  Graph g = ErdosRenyi(30, 60, &rng);
  std::string path = testing::TempDir() + "/gamma_edges.txt";
  ASSERT_TRUE(SaveEdgeListText(g, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(LoaderTest, TextSkipsCommentsAndCompacts) {
  std::string path = testing::TempDir() + "/gamma_comments.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# comment\n100 200\n% other comment\n200 300\n", f);
    std::fclose(f);
  }
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_vertices(), 3u);  // ids compacted
  EXPECT_EQ(loaded.value().num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(LoaderTest, BinaryRoundTripWithLabels) {
  Rng rng(29);
  Graph g = ErdosRenyi(40, 80, &rng);
  AssignLabelsZipf(&g, 5, 0.3, &rng);
  std::string path = testing::TempDir() + "/gamma_graph.bin";
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().col(), g.col());
  EXPECT_EQ(loaded.value().labels(), g.labels());
  std::remove(path.c_str());
}

TEST(LoaderTest, MissingFileReturnsNotFound) {
  auto loaded = LoadEdgeListText("/nonexistent/path/graph.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotFound);
}

// Binary files whose header or arrays are inconsistent: each must come
// back as InvalidArgument, never as an out-of-bounds read, an allocation
// sized by the header, or an abort.
TEST(LoaderTest, MalformedBinaryRejected) {
  constexpr uint64_t kMagic = 0x47414d4d41475231ull;  // "GAMMAGR1"
  struct Case {
    const char* what;
    std::vector<uint64_t> header;  // magic, nv, arcs, nlabels
    std::vector<uint64_t> row_ptr;
    std::vector<uint32_t> col_then_labels;
  };
  const Case cases[] = {
      {"bad magic", {0, 2, 2, 0}, {0, 1, 2}, {1, 0}},
      {"truncated header", {kMagic, 2}, {}, {}},
      {"row_ptr past arcs", {kMagic, 2, 2, 0}, {0, 1000, 2}, {1, 0}},
      {"row_ptr past arcs, no columns", {kMagic, 2, 2, 0}, {0, 1000, 1000}, {}},
      {"2^40 vertices", {kMagic, 1ull << 40, 0, 0}, {}, {}},
      {"2^31 vertices, no arrays", {kMagic, 1ull << 31, 0, 0}, {}, {}},
      {"2^62 arcs", {kMagic, 2, 1ull << 62, 0}, {0, 1, 2}, {1, 0}},
      {"truncated body", {kMagic, 2, 2, 0}, {0, 1, 2}, {1}},
      {"trailing bytes", {kMagic, 2, 2, 0}, {0, 1, 2}, {1, 0, 7}},
      {"one label for two vertices", {kMagic, 2, 2, 1}, {0, 1, 2}, {1, 0, 0}},
      {"row_ptr[0] != 0", {kMagic, 2, 2, 0}, {1, 1, 2}, {1, 0}},
      {"row_ptr decreases", {kMagic, 3, 2, 0}, {0, 2, 1, 2}, {1, 0}},
      {"row_ptr[nv] != arcs", {kMagic, 2, 2, 0}, {0, 1, 1}, {1, 0}},
      {"neighbor id out of range", {kMagic, 2, 2, 0}, {0, 1, 2}, {5, 0}},
  };
  const std::string path = testing::TempDir() + "/gamma_bad.bin";
  for (const Case& c : cases) {
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      // fwrite must not see the null data() of an empty vector.
      auto put = [f](const auto& v) {
        if (!v.empty()) std::fwrite(v.data(), sizeof(v[0]), v.size(), f);
      };
      put(c.header);
      put(c.row_ptr);
      put(c.col_then_labels);
      std::fclose(f);
    }
    auto loaded = LoadBinary(path);
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), ErrorCode::kInvalidArgument) << c.what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gpm::graph
