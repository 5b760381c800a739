// Property tests for the file-system allocator and extent mapping, swept
// over random workloads.

#include <gtest/gtest.h>

#include <set>

#include "src/base/bytes.h"
#include "src/base/random.h"
#include "src/ufs/ufs.h"

namespace crufs {
namespace {

using crbase::kKiB;

struct UfsCase {
  const char* name;
  std::uint64_t seed;
  int files;
  int rounds;
};

// The listed test name shows the case name; gtest's default prints raw
// bytes, pointer included, which change from build to build.
void PrintTo(const UfsCase& c, std::ostream* os) { *os << c.name; }

class AllocatorInvariants : public ::testing::TestWithParam<UfsCase> {};

// Runs a random create/append/remove/fragment workload and checks global
// allocator invariants after every operation.
TEST_P(AllocatorInvariants, RandomWorkloadKeepsAccountingConsistent) {
  const UfsCase& c = GetParam();
  Ufs fs;
  crbase::Rng rng(c.seed);

  std::vector<std::string> live;
  auto check_invariants = [&fs, &live] {
    // No block is owned by two files, and free accounting matches.
    std::set<std::int64_t> owned;
    std::int64_t owned_count = 0;
    for (const std::string& name : live) {
      auto inode_number = fs.Lookup(name);
      ASSERT_TRUE(inode_number.ok());
      const Inode& inode = fs.inode(*inode_number);
      for (std::int64_t block : inode.block_map) {
        ASSERT_GE(block, 0);
        ASSERT_LT(block, fs.total_blocks());
        ASSERT_TRUE(owned.insert(block).second) << "block " << block << " double-owned";
        ++owned_count;
      }
      // Size accounting: enough blocks to cover the byte size.
      ASSERT_EQ(static_cast<std::int64_t>(inode.block_map.size()),
                (inode.size_bytes + kBlockSize - 1) / kBlockSize);
    }
    ASSERT_EQ(fs.free_blocks(), fs.total_blocks() - owned_count);
  };

  for (int round = 0; round < c.rounds; ++round) {
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 35 && static_cast<int>(live.size()) < c.files) {
      const std::string name = "f" + std::to_string(round);
      auto created = fs.Create(name);
      ASSERT_TRUE(created.ok());
      ASSERT_TRUE(fs.Append(*created, static_cast<std::int64_t>(rng.NextBelow(64) + 1) * 64 *
                                          kKiB).ok());
      live.push_back(name);
    } else if (op < 60 && !live.empty()) {
      // Append more to a random file.
      const std::string& name = live[rng.NextBelow(live.size())];
      ASSERT_TRUE(
          fs.Append(*fs.Lookup(name), static_cast<std::int64_t>(rng.NextBelow(32) + 1) * 8 * kKiB)
              .ok());
    } else if (op < 80 && !live.empty()) {
      // Remove a random file.
      const std::size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(fs.Remove(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (!live.empty()) {
      // Fragment a random file (block count and ownership must be conserved).
      const std::string& name = live[rng.NextBelow(live.size())];
      ASSERT_TRUE(fs.Fragment(*fs.Lookup(name), rng).ok());
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllocatorInvariants,
    ::testing::Values(UfsCase{"tuned_small", 101, 8, 60}, UfsCase{"tuned_churn", 202, 4, 100}),
    [](const ::testing::TestParamInfo<UfsCase>& info) { return info.param.name; });

class ExtentProperty : public ::testing::TestWithParam<std::uint64_t> {};

// GetExtents must tile the requested range exactly: extent sectors map
// 1:1 onto the file's block map, in order, with no extent crossing a
// discontiguity and none exceeding the size cap.
TEST_P(ExtentProperty, ExtentsTileTheBlockMap) {
  Ufs fs;
  crbase::Rng rng(GetParam());
  InodeNumber n = *fs.Create("movie");
  ASSERT_TRUE(fs.Append(n, 8 * crbase::kMiB).ok());
  if (GetParam() % 2 == 0) {
    ASSERT_TRUE(fs.Fragment(n, rng).ok());
  }
  const Inode& inode = fs.inode(n);

  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t offset =
        static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(inode.size_bytes)));
    const std::int64_t length = static_cast<std::int64_t>(
        rng.NextBelow(static_cast<std::uint64_t>(inode.size_bytes - offset)) + 1);
    const std::int64_t max_extent = (1 + static_cast<std::int64_t>(rng.NextBelow(32))) * 8 * kKiB;
    auto extents = fs.GetExtents(n, offset, length, max_extent);
    ASSERT_TRUE(extents.ok());

    const std::int64_t first_block = offset / kBlockSize;
    const std::int64_t last_block = (offset + length - 1) / kBlockSize;
    std::int64_t fb = first_block;
    for (const Extent& extent : *extents) {
      ASSERT_LE(extent.bytes(), max_extent);
      ASSERT_EQ(extent.sectors % fs.sectors_per_block(), 0);
      const std::int64_t blocks = extent.sectors / fs.sectors_per_block();
      for (std::int64_t b = 0; b < blocks; ++b) {
        ASSERT_LE(fb, last_block);
        ASSERT_EQ(extent.lba + b * fs.sectors_per_block(),
                  inode.block_map[static_cast<std::size_t>(fb)] * fs.sectors_per_block())
            << "extent does not match the block map at file block " << fb;
        ++fb;
      }
    }
    ASSERT_EQ(fb, last_block + 1) << "extents did not cover the full range";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentProperty, ::testing::Values(1u, 2u, 3u, 4u, 10u, 11u));

}  // namespace
}  // namespace crufs
