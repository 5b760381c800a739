// File-system layout, allocation, and extent tests.

#include "src/ufs/ufs.h"

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/base/random.h"

namespace crufs {
namespace {

using crbase::kKiB;
using crbase::kMiB;

TEST(Ufs, GeometryDerivedSizes) {
  Ufs fs;
  EXPECT_EQ(fs.block_size(), 8 * kKiB);
  EXPECT_EQ(fs.sectors_per_block(), 16);
  // ~2 GB disk in 8 KiB blocks.
  EXPECT_NEAR(static_cast<double>(fs.total_blocks()) * 8 * kKiB / crbase::kGiB, 2.0, 0.1);
  EXPECT_EQ(fs.free_blocks(), fs.total_blocks());
  EXPECT_GT(fs.groups(), 100);
}

TEST(Ufs, CreateLookupRemove) {
  Ufs fs;
  auto created = fs.Create("movie.mpg");
  ASSERT_TRUE(created.ok());
  auto found = fs.Lookup("movie.mpg");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *created);
  EXPECT_EQ(fs.inode(*found).name, "movie.mpg");

  EXPECT_FALSE(fs.Create("movie.mpg").ok());  // duplicate
  EXPECT_FALSE(fs.Lookup("absent").ok());
  EXPECT_TRUE(fs.Remove("movie.mpg").ok());
  EXPECT_FALSE(fs.Lookup("movie.mpg").ok());
  EXPECT_FALSE(fs.Remove("movie.mpg").ok());
}

TEST(Ufs, CreateRejectsEmptyName) {
  Ufs fs;
  EXPECT_EQ(fs.Create("").status().code(), crbase::StatusCode::kInvalidArgument);
  // The root is flat: no name holds a '/', and "." and ".." name no file.
  for (const char* bad : {"a/b", "/a", "a/", ".", ".."}) {
    EXPECT_EQ(fs.Create(bad).status().code(), crbase::StatusCode::kInvalidArgument) << bad;
  }
  ASSERT_TRUE(fs.Create("a").ok());
  EXPECT_EQ(fs.Create("a").status().code(), crbase::StatusCode::kAlreadyExists);
}

TEST(Ufs, AppendAllocatesBlocks) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, 100 * kKiB).ok());
  const Inode& inode = fs.inode(n);
  EXPECT_EQ(inode.size_bytes, 100 * kKiB);
  EXPECT_EQ(inode.block_map.size(), 13u);  // ceil(100/8)
  EXPECT_EQ(fs.free_blocks(), fs.total_blocks() - 13);
}

TEST(Ufs, TunedPolicyIsFullyContiguous) {
  Ufs fs;
  InodeNumber n = *fs.Create("movie");
  ASSERT_TRUE(fs.Append(n, 64 * kMiB).ok());
  EXPECT_DOUBLE_EQ(fs.ContiguityOf(n), 1.0);
}

TEST(Ufs, InterleavedWritersStayContiguousPerFile) {
  // Two files appended alternately: the tuned allocator must still keep
  // each file's runs long (this is what contiguous preallocation policy
  // buys; a naive next-free allocator would interleave them block by
  // block).
  Ufs fs;
  InodeNumber a = *fs.Create("a");
  InodeNumber b = *fs.Create("b");
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs.Append(a, 64 * kKiB).ok());
    ASSERT_TRUE(fs.Append(b, 64 * kKiB).ok());
  }
  EXPECT_GT(fs.ContiguityOf(a), 0.85);
  EXPECT_GT(fs.ContiguityOf(b), 0.85);
}

TEST(Ufs, RemoveFreesBlocks) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, kMiB).ok());
  const std::int64_t free_before = fs.free_blocks();
  ASSERT_TRUE(fs.Remove("f").ok());
  EXPECT_EQ(fs.free_blocks(), free_before + kMiB / fs.block_size());
}

TEST(Ufs, PreallocateContiguousIsOneRun) {
  Ufs fs;
  InodeNumber filler = *fs.Create("filler");
  ASSERT_TRUE(fs.Append(filler, 10 * kMiB).ok());
  InodeNumber n = *fs.Create("rtwrite");
  ASSERT_TRUE(fs.PreallocateContiguous(n, 32 * kMiB).ok());
  EXPECT_DOUBLE_EQ(fs.ContiguityOf(n), 1.0);
  EXPECT_EQ(fs.inode(n).size_bytes, 32 * kMiB);
}

TEST(Ufs, PreallocateRequiresEmptyFile) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, kMiB).ok());
  EXPECT_EQ(fs.PreallocateContiguous(n, kMiB).code(), crbase::StatusCode::kFailedPrecondition);
}

TEST(Ufs, FragmentDestroysContiguity) {
  Ufs fs;
  InodeNumber n = *fs.Create("edited");
  ASSERT_TRUE(fs.Append(n, 32 * kMiB).ok());
  ASSERT_DOUBLE_EQ(fs.ContiguityOf(n), 1.0);
  const std::int64_t free_before = fs.free_blocks();
  crbase::Rng rng(1234);
  ASSERT_TRUE(fs.Fragment(n, rng).ok());
  EXPECT_EQ(fs.free_blocks(), free_before);  // conserves space
  EXPECT_LT(fs.ContiguityOf(n), 0.05);
}

TEST(Ufs, RearrangeRestoresContiguity) {
  // §3.2 problem 3 and its remedy: fragment a file, then rearrange it.
  Ufs fs;
  InodeNumber keeper = *fs.Create("keeper");
  ASSERT_TRUE(fs.Append(keeper, 8 * kMiB).ok());
  InodeNumber n = *fs.Create("edited");
  ASSERT_TRUE(fs.Append(n, 16 * kMiB).ok());
  crbase::Rng rng(321);
  ASSERT_TRUE(fs.Fragment(n, rng).ok());
  ASSERT_LT(fs.ContiguityOf(n), 0.1);
  const std::int64_t free_before = fs.free_blocks();

  ASSERT_TRUE(fs.Rearrange(n).ok());
  EXPECT_GT(fs.ContiguityOf(n), 0.99);
  EXPECT_EQ(fs.free_blocks(), free_before);     // conserves space
  EXPECT_EQ(fs.inode(n).size_bytes, 16 * kMiB);  // conserves content extent
  // The other file is untouched.
  EXPECT_DOUBLE_EQ(fs.ContiguityOf(keeper), 1.0);
}

TEST(Ufs, RearrangeEmptyFileIsNoop) {
  Ufs fs;
  InodeNumber n = *fs.Create("empty");
  EXPECT_TRUE(fs.Rearrange(n).ok());
  EXPECT_FALSE(fs.Rearrange(999).ok());
}

TEST(Ufs, BlockLbaIsSectorAddress) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, 64 * kKiB).ok());
  auto lba0 = fs.BlockLba(n, 0);
  auto lba1 = fs.BlockLba(n, 1);
  ASSERT_TRUE(lba0.ok());
  ASSERT_TRUE(lba1.ok());
  EXPECT_EQ(*lba1 - *lba0, fs.sectors_per_block());
  EXPECT_FALSE(fs.BlockLba(n, 100).ok());
}

TEST(Ufs, GetExtentsCoalescesContiguousBlocks) {
  Ufs fs;
  InodeNumber n = *fs.Create("movie");
  ASSERT_TRUE(fs.Append(n, kMiB).ok());
  auto extents = fs.GetExtents(n, 0, kMiB, 256 * kKiB);
  ASSERT_TRUE(extents.ok());
  // 1 MiB contiguous, capped at 256 KiB per extent => 4 extents.
  ASSERT_EQ(extents->size(), 4u);
  for (const Extent& e : *extents) {
    EXPECT_EQ(e.bytes(), 256 * kKiB);
  }
  EXPECT_EQ((*extents)[1].lba, (*extents)[0].lba + (*extents)[0].sectors);
}

TEST(Ufs, GetExtentsWidensToBlockBoundaries) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, 64 * kKiB).ok());
  // 1 byte spanning a block boundary region still reads whole blocks.
  auto extents = fs.GetExtents(n, 8 * kKiB - 1, 2, 256 * kKiB);
  ASSERT_TRUE(extents.ok());
  std::int64_t total = 0;
  for (const Extent& e : *extents) {
    total += e.bytes();
  }
  EXPECT_EQ(total, 2 * fs.block_size());
}

TEST(Ufs, GetExtentsOnFragmentedFileIsPerBlock) {
  Ufs fs;
  InodeNumber n = *fs.Create("edited");
  ASSERT_TRUE(fs.Append(n, 256 * kKiB).ok());
  crbase::Rng rng(99);
  ASSERT_TRUE(fs.Fragment(n, rng).ok());
  auto extents = fs.GetExtents(n, 0, 256 * kKiB, 256 * kKiB);
  ASSERT_TRUE(extents.ok());
  // 32 blocks, essentially all discontiguous.
  EXPECT_GE(extents->size(), 30u);
}

TEST(Ufs, GetExtentsRejectsBadRanges) {
  Ufs fs;
  InodeNumber n = *fs.Create("f");
  ASSERT_TRUE(fs.Append(n, 64 * kKiB).ok());
  EXPECT_FALSE(fs.GetExtents(n, 0, 128 * kKiB, 256 * kKiB).ok());  // beyond EOF
  EXPECT_FALSE(fs.GetExtents(n, -1, 8, 256 * kKiB).ok());
  EXPECT_FALSE(fs.GetExtents(n, 0, 8, 4 * kKiB).ok());  // extent < block
}

TEST(Ufs, FillsUpAndReportsExhaustion) {
  // A small-group config exercised to exhaustion.
  Ufs fs;
  InodeNumber n = *fs.Create("huge");
  EXPECT_EQ(fs.Append(n, 4 * crbase::kGiB).code(), crbase::StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace crufs
