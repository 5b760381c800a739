// An FFS-like Unix file system over the simulated disk.
//
// CRAS's central layout decision is to *share* the Unix file system's disk
// layout: the same files are readable through both paths, CRAS adds no
// on-disk format of its own, and all non-real-time functionality stays in
// the Unix server. This module provides that layout:
//
//   * 8 KiB blocks over the disk's 512-byte sectors;
//   * 16-cylinder groups, a block bitmap per group;
//   * inodes with a block map, created through an FFS-flavoured allocator
//     tuned the way the paper tunes its file system at creation time
//     (`tunefs`): blocks are allocated "as contiguously as possible", each
//     file continuing its run from its last block;
//   * one flat root directory (name -> inode);
//   * extent queries (contiguous runs) used by CRAS to build reads of up to
//     256 KiB;
//   * fragmentation injection, to reproduce the paper's "edited file"
//     problem (Section 3.2).
//
// Simplifications, documented for reviewers: metadata (superblock, bitmaps,
// inodes, the directory) lives in memory as if permanently cached, and file
// *contents* are never materialized — only the block addresses matter,
// because every result in the paper is a function of I/O timing. Creating
// and growing files allocates blocks instantly ("offline mkfs"); the timed
// write path used by the constant-rate-writing extension goes through the
// disk model like any other I/O.

#ifndef SRC_UFS_UFS_H_
#define SRC_UFS_UFS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/random.h"
#include "src/base/status.h"
#include "src/disk/geometry.h"

namespace crufs {

using crbase::Result;
using crbase::Status;

using InodeNumber = std::int64_t;
inline constexpr InodeNumber kInvalidInode = -1;

inline constexpr std::int64_t kBlockSize = 8 * crbase::kKiB;

// A run of contiguous file-system blocks, expressed in disk sectors.
struct Extent {
  crdisk::Lba lba = 0;
  std::int64_t sectors = 0;

  std::int64_t bytes() const { return sectors * 512; }
  bool operator==(const Extent&) const = default;
};

struct Inode {
  InodeNumber number = kInvalidInode;
  std::string name;
  std::int64_t size_bytes = 0;
  std::vector<std::int64_t> block_map;  // file block index -> disk block number
};

class Ufs {
 public:
  struct Options {
    crdisk::DiskGeometry geometry;
    // Striped-volume support. When total_sectors > 0 the file system spans
    // that many sectors of *logical* volume space (an N-disk volume is N
    // times larger than the per-disk `geometry`, which then only sizes
    // cylinder groups). When stripe_unit_sectors > 0 the allocator starts
    // each new file in a fresh stripe unit — at a per-inode phase within
    // it — so concurrent streams' interval reads fan out across member
    // disks and their stripe-boundary crossings fall in different
    // intervals.
    std::int64_t total_sectors = 0;
    std::int64_t stripe_unit_sectors = 0;
    // Full stripe width (unit * member disks). When set, the per-inode
    // start phase spreads over the whole width, so file starts cover every
    // member disk *and* every sub-unit offset uniformly; defaults to one
    // unit.
    std::int64_t stripe_width_sectors = 0;
  };

  Ufs();
  explicit Ufs(const Options& options);

  // --- namespace ---
  // Every file lives in the one root directory. A name is non-empty, holds
  // no '/', and is neither "." nor ".."; Create rejects any other name
  // (INVALID_ARGUMENT) and a name already taken (ALREADY_EXISTS).
  Result<InodeNumber> Create(const std::string& name);
  Result<InodeNumber> Lookup(const std::string& name) const;
  Status Remove(const std::string& name);
  const Inode& inode(InodeNumber n) const;

  // --- allocation ---
  // Grows the file by `bytes`, allocating blocks contiguously after the
  // file's last block where they are free.
  Status Append(InodeNumber n, std::int64_t bytes);
  // Reserves `bytes` of contiguous blocks up front — the paper's suggested
  // Unix-file-system modification enabling constant-rate writing (§4).
  Status PreallocateContiguous(InodeNumber n, std::int64_t bytes);
  // Reallocates every block of the file randomly across the disk, modelling
  // a heavily edited file (§3.2 problem 3).
  Status Fragment(InodeNumber n, crbase::Rng& rng);
  // The paper's remedy for edited files: "rearrange media files whose data
  // blocks are allocated randomly". Reallocates the file into the longest
  // contiguous runs available (ideally one), restoring constant-rate
  // retrievability. An offline administrative operation (Unix-side, not
  // CRAS-side), so no simulated time passes.
  Status Rearrange(InodeNumber n);

  // --- geometry / extents ---
  std::int64_t block_size() const { return kBlockSize; }
  std::int64_t sectors_per_block() const { return sectors_per_block_; }
  std::int64_t total_blocks() const { return total_blocks_; }
  std::int64_t free_blocks() const { return free_blocks_; }
  std::int64_t stripe_unit_blocks() const { return stripe_unit_blocks_; }
  std::int64_t groups() const { return static_cast<std::int64_t>(group_free_.size()); }

  // Disk sector address of file block `file_block`.
  Result<crdisk::Lba> BlockLba(InodeNumber n, std::int64_t file_block) const;

  // Contiguous runs covering [offset, offset+length) of the file, split so
  // no run exceeds `max_bytes_per_extent` (CRAS uses 256 KiB).
  Result<std::vector<Extent>> GetExtents(InodeNumber n, std::int64_t offset, std::int64_t length,
                                         std::int64_t max_bytes_per_extent) const;

  // Fraction of adjacent file-block pairs that are disk-contiguous; 1.0 for
  // a perfectly laid out file.
  double ContiguityOf(InodeNumber n) const;

 private:
  std::int64_t BlocksPerGroup() const;
  // Finds a free block at or after `start` (wrapping); -1 when full.
  std::int64_t FindFree(std::int64_t start) const;
  // Finds a free first block for file `n` in a fresh stripe unit at or
  // after `start` (wrapping), at a per-inode phase inside the unit; -1 when
  // none exists or the volume is not striped.
  std::int64_t FindFreeAligned(std::int64_t start, InodeNumber n) const;
  void Take(std::int64_t block);
  void Release(std::int64_t block);
  // Chooses the next block for file `n` whose previous block is `prev`
  // (-1 for the first block).
  std::int64_t ChooseBlock(InodeNumber n, std::int64_t prev);

  Options options_;
  std::int64_t sectors_per_block_ = 0;
  std::int64_t stripe_unit_blocks_ = 0;   // 0 = not striped
  std::int64_t stripe_width_blocks_ = 0;  // phase-stagger span; >= unit
  std::int64_t total_blocks_ = 0;
  std::int64_t free_blocks_ = 0;
  std::vector<bool> used_;
  std::vector<std::int64_t> group_free_;
  std::map<std::string, InodeNumber> directory_;  // name -> inode
  // Deque: Inode references handed out (and held across coroutine suspension
  // points by the Unix server) must survive later Create() calls.
  std::deque<Inode> inodes_;
};

}  // namespace crufs

#endif  // SRC_UFS_UFS_H_
