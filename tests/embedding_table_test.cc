#include <gtest/gtest.h>

#include "core/compaction.h"
#include "core/embedding_table.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

gpusim::SimParams SmallParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 1 << 20;
  p.um_device_buffer_bytes = 64 << 10;
  return p;
}

// Builds the Fig. 6-style table:
//   col0: a b      col1 children: a->(x,y), b->(z)
std::unique_ptr<EmbeddingTable> TwoColumnTable(gpusim::Device* device) {
  auto t = std::make_unique<EmbeddingTable>(device, TableKind::kVertex);
  EXPECT_TRUE(t->InitFirstColumn({10, 20}).ok());
  EXPECT_TRUE(t->AppendColumn({100, 101, 200}, {0, 0, 1}).ok());
  return t;
}

TEST(EmbeddingTableTest, InitAndShape) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  EXPECT_EQ(t->length(), 2);
  EXPECT_EQ(t->num_embeddings(), 3u);
  EXPECT_EQ(t->column(0).size(), 2u);
}

TEST(EmbeddingTableTest, GetEmbeddingWalksParents) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  EXPECT_EQ(t->GetEmbedding(1, 0), (std::vector<Unit>{10, 100}));
  EXPECT_EQ(t->GetEmbedding(1, 2), (std::vector<Unit>{20, 200}));
}

TEST(EmbeddingTableTest, MaterializeAll) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  auto all = t->Materialize();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1], (std::vector<Unit>{10, 101}));
}

TEST(EmbeddingTableTest, PopColumnRollsBack) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  t->PopColumn();
  EXPECT_EQ(t->length(), 1);
  EXPECT_EQ(t->num_embeddings(), 2u);
}

TEST(EmbeddingTableTest, StorageBytesCountsAllColumns) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  // (2 + 3) rows x 8 bytes each.
  EXPECT_EQ(t->StorageBytes(), 40u);
  EXPECT_GE(device.host_tracker().current_bytes(), 40u);
}

TEST(EmbeddingTableTest, DeviceResidentAllocatesOnDevice) {
  gpusim::Device device(SmallParams());
  EmbeddingTable t(&device, TableKind::kVertex, /*device_resident=*/true);
  std::size_t before = device.memory().used_bytes();
  ASSERT_TRUE(t.InitFirstColumn({1, 2, 3}).ok());
  EXPECT_EQ(device.memory().used_bytes(), before + 3 * 8);
}

TEST(EmbeddingTableTest, DeviceResidentOomSurfaces) {
  gpusim::SimParams p = SmallParams();
  p.device_memory_bytes = 80 << 10;
  p.um_device_buffer_bytes = 64 << 10;  // leaves 16 KiB
  gpusim::Device device(p);
  EmbeddingTable t(&device, TableKind::kVertex, true);
  std::vector<Unit> big(4096, 1);  // 32 KiB > 16 KiB free
  Status st = t.InitFirstColumn(big);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(CompactionTest, DropsMarkedRows) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  CompactionResult r = CompactTable(t.get(), {1, 0, 1});
  EXPECT_EQ(r.removed_last, 1u);
  EXPECT_EQ(t->num_embeddings(), 2u);
  EXPECT_EQ(t->GetEmbedding(1, 0), (std::vector<Unit>{10, 100}));
  EXPECT_EQ(t->GetEmbedding(1, 1), (std::vector<Unit>{20, 200}));
}

TEST(CompactionTest, PrunesOrphanAncestors) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  // Remove both children of parent 'a' (rows 0 and 1).
  CompactionResult r = CompactTable(t.get(), {0, 0, 1});
  EXPECT_EQ(r.removed_last, 2u);
  EXPECT_EQ(r.removed_ancestors, 1u);
  EXPECT_EQ(t->column(0).size(), 1u);
  EXPECT_EQ(t->GetEmbedding(1, 0), (std::vector<Unit>{20, 200}));
}

TEST(CompactionTest, KeepAllIsNoOp) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  CompactionResult r = CompactTable(t.get(), {1, 1, 1});
  EXPECT_EQ(r.removed_last, 0u);
  EXPECT_EQ(r.removed_ancestors, 0u);
  EXPECT_EQ(t->num_embeddings(), 3u);
}

TEST(CompactionTest, RemoveAllEmptiesTable) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  CompactTable(t.get(), {0, 0, 0});
  EXPECT_EQ(t->num_embeddings(), 0u);
  EXPECT_EQ(t->column(0).size(), 0u);
}

TEST(CompactionTest, ChargesKernelCycles) {
  gpusim::Device device(SmallParams());
  auto t = TwoColumnTable(&device);
  CompactionResult r = CompactTable(t.get(), {1, 0, 1});
  EXPECT_GT(r.kernel_cycles, 0.0);
}

TEST(CompactionTest, ThreeLevelCascade) {
  gpusim::Device device(SmallParams());
  EmbeddingTable t(&device, TableKind::kVertex);
  ASSERT_TRUE(t.InitFirstColumn({1, 2}).ok());
  ASSERT_TRUE(t.AppendColumn({11, 21}, {0, 1}).ok());
  ASSERT_TRUE(t.AppendColumn({111, 211, 212}, {0, 1, 1}).ok());
  // Kill every descendant of root 1.
  CompactTable(&t, {0, 1, 1});
  EXPECT_EQ(t.column(0).size(), 1u);
  EXPECT_EQ(t.column(1).size(), 1u);
  EXPECT_EQ(t.num_embeddings(), 2u);
  EXPECT_EQ(t.GetEmbedding(2, 0), (std::vector<Unit>{2, 21, 211}));
  EXPECT_EQ(t.GetEmbedding(2, 1), (std::vector<Unit>{2, 21, 212}));
}

}  // namespace
}  // namespace gpm::core
