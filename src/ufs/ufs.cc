#include "src/ufs/ufs.h"

#include <algorithm>

#include "src/base/logging.h"

namespace crufs {

namespace {

constexpr std::int64_t kCylindersPerGroup = 16;

// A name in the flat root: non-empty, no '/', not "." or "..".
Status ValidateName(const std::string& name) {
  if (name.empty()) {
    return crbase::InvalidArgumentError("empty name");
  }
  if (name.find('/') != std::string::npos) {
    return crbase::InvalidArgumentError("'/' in name '" + name + "': the root is flat");
  }
  if (name == "." || name == "..") {
    return crbase::InvalidArgumentError("'.' and '..' are not allowed");
  }
  return crbase::OkStatus();
}

}  // namespace

Ufs::Ufs() : Ufs(Options{}) {}

Ufs::Ufs(const Options& options) : options_(options) {
  sectors_per_block_ = kBlockSize / options_.geometry.sector_size;
  CRAS_CHECK(sectors_per_block_ * options_.geometry.sector_size == kBlockSize);
  const std::int64_t total_sectors =
      options_.total_sectors > 0 ? options_.total_sectors : options_.geometry.total_sectors();
  total_blocks_ = total_sectors / sectors_per_block_;
  if (options_.stripe_unit_sectors > 0) {
    stripe_unit_blocks_ = options_.stripe_unit_sectors / sectors_per_block_;
    CRAS_CHECK(stripe_unit_blocks_ * sectors_per_block_ == options_.stripe_unit_sectors)
        << "stripe unit must be a whole number of file-system blocks";
    stripe_width_blocks_ = options_.stripe_width_sectors > 0
                               ? options_.stripe_width_sectors / sectors_per_block_
                               : stripe_unit_blocks_;
    CRAS_CHECK(stripe_width_blocks_ % stripe_unit_blocks_ == 0)
        << "stripe width must be a whole number of stripe units";
  }
  free_blocks_ = total_blocks_;
  used_.assign(static_cast<std::size_t>(total_blocks_), false);
  const std::int64_t bpg = BlocksPerGroup();
  const std::int64_t groups = (total_blocks_ + bpg - 1) / bpg;
  group_free_.assign(static_cast<std::size_t>(groups), bpg);
  // The last group may be short.
  group_free_.back() = total_blocks_ - bpg * (groups - 1);
}

std::int64_t Ufs::BlocksPerGroup() const {
  return kCylindersPerGroup * options_.geometry.sectors_per_cylinder() / sectors_per_block_;
}

Result<InodeNumber> Ufs::Create(const std::string& name) {
  CRAS_RETURN_IF_ERROR(ValidateName(name));
  if (directory_.contains(name)) {
    return crbase::AlreadyExistsError("file exists: " + name);
  }
  const InodeNumber n = static_cast<InodeNumber>(inodes_.size());
  Inode inode;
  inode.number = n;
  inode.name = name;
  inodes_.push_back(std::move(inode));
  directory_[name] = n;
  return n;
}

Result<InodeNumber> Ufs::Lookup(const std::string& name) const {
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return crbase::NotFoundError("no such file: " + name);
  }
  return it->second;
}

Status Ufs::Remove(const std::string& name) {
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return crbase::NotFoundError("no such file: " + name);
  }
  Inode& inode = inodes_[static_cast<std::size_t>(it->second)];
  for (std::int64_t block : inode.block_map) {
    Release(block);
  }
  inode.block_map.clear();
  inode.size_bytes = 0;
  directory_.erase(it);
  return crbase::OkStatus();
}

const Inode& Ufs::inode(InodeNumber n) const {
  CRAS_CHECK(n >= 0 && n < static_cast<InodeNumber>(inodes_.size())) << "bad inode " << n;
  return inodes_[static_cast<std::size_t>(n)];
}

std::int64_t Ufs::FindFree(std::int64_t start) const {
  if (free_blocks_ == 0) {
    return -1;
  }
  if (start < 0 || start >= total_blocks_) {
    start = 0;
  }
  for (std::int64_t i = start; i < total_blocks_; ++i) {
    if (!used_[static_cast<std::size_t>(i)]) {
      return i;
    }
  }
  for (std::int64_t i = 0; i < start; ++i) {
    if (!used_[static_cast<std::size_t>(i)]) {
      return i;
    }
  }
  return -1;
}

void Ufs::Take(std::int64_t block) {
  CRAS_CHECK(!used_[static_cast<std::size_t>(block)]);
  used_[static_cast<std::size_t>(block)] = true;
  --free_blocks_;
  --group_free_[static_cast<std::size_t>(block / BlocksPerGroup())];
}

void Ufs::Release(std::int64_t block) {
  CRAS_CHECK(used_[static_cast<std::size_t>(block)]);
  used_[static_cast<std::size_t>(block)] = false;
  ++free_blocks_;
  ++group_free_[static_cast<std::size_t>(block / BlocksPerGroup())];
}

std::int64_t Ufs::ChooseBlock(InodeNumber n, std::int64_t prev) {
  if (prev >= 0) {
    // Continue the file's run where the next block is free.
    const std::int64_t next = prev + 1;
    if (next < total_blocks_ && !used_[static_cast<std::size_t>(next)]) {
      return next;
    }
    return FindFree(next);
  }
  // First block of a file: FFS hashes the inode across cylinder groups so
  // unrelated files land all over the surface (which is why multi-stream
  // retrieval seeks at all). Fall forward to a group with space.
  const std::int64_t bpg = BlocksPerGroup();
  const std::int64_t groups = static_cast<std::int64_t>(group_free_.size());
  std::int64_t group = (n * 37) % groups;
  for (std::int64_t probe = 0; probe < groups; ++probe) {
    const std::int64_t candidate = (group + probe) % groups;
    if (group_free_[static_cast<std::size_t>(candidate)] > 0) {
      const std::int64_t start = candidate * bpg;
      if (stripe_unit_blocks_ > 0) {
        const std::int64_t aligned = FindFreeAligned(start, n);
        if (aligned >= 0) {
          return aligned;
        }
      }
      return FindFree(start);
    }
  }
  return -1;
}

std::int64_t Ufs::FindFreeAligned(std::int64_t start, InodeNumber n) const {
  // Stripe-aware placement: each file starts at a per-inode block *phase*
  // within a full stripe (unit * disks) at or after `start`, wrapping. The
  // phases walk the stripe in odd-multiplier steps, so file starts cover
  // every member disk and every sub-unit offset uniformly. Both components
  // matter: the disk spread balances concurrent streams' interval windows
  // across the array, and the sub-unit spread staggers where each stream's
  // reads cross unit boundaries. Without the stagger, same-rate streams
  // started together cross boundaries in the *same* intervals, and every
  // one of their reads splits in two at once — a synchronized request
  // spike the per-disk admission charge does not cover. The step is an
  // odd fixed-point golden-ratio fraction of the usual 2 MiB eight-disk
  // span, giving low-discrepancy coverage: any run of inodes spreads
  // near-evenly over every unit of the stripe.
  if (free_blocks_ == 0 || stripe_unit_blocks_ <= 0) {
    return -1;
  }
  const std::int64_t span = stripe_width_blocks_;
  const std::int64_t stripes = total_blocks_ / span;
  if (stripes == 0) {
    return -1;
  }
  const std::int64_t phase = (n * 157) % span;
  std::int64_t stripe = (start + span - 1) / span;
  for (std::int64_t probe = 0; probe < stripes; ++probe) {
    const std::int64_t candidate = ((stripe + probe) % stripes) * span + phase;
    if (!used_[static_cast<std::size_t>(candidate)]) {
      return candidate;
    }
  }
  return -1;
}

Status Ufs::Append(InodeNumber n, std::int64_t bytes) {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  if (bytes < 0) {
    return crbase::InvalidArgumentError("negative append");
  }
  Inode& inode = inodes_[static_cast<std::size_t>(n)];
  const std::int64_t end = inode.size_bytes + bytes;
  const std::int64_t needed_blocks = (end + kBlockSize - 1) / kBlockSize;
  while (static_cast<std::int64_t>(inode.block_map.size()) < needed_blocks) {
    const std::int64_t prev = inode.block_map.empty() ? -1 : inode.block_map.back();
    const std::int64_t chosen = ChooseBlock(n, prev);
    if (chosen < 0) {
      return crbase::ResourceExhaustedError("file system full");
    }
    Take(chosen);
    inode.block_map.push_back(chosen);
  }
  inode.size_bytes = end;
  return crbase::OkStatus();
}

Status Ufs::PreallocateContiguous(InodeNumber n, std::int64_t bytes) {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  Inode& inode = inodes_[static_cast<std::size_t>(n)];
  if (!inode.block_map.empty()) {
    return crbase::FailedPreconditionError("preallocation requires an empty file");
  }
  const std::int64_t needed = (bytes + kBlockSize - 1) / kBlockSize;
  // Scan for a contiguous free run of `needed` blocks.
  std::int64_t run_start = -1;
  std::int64_t run_len = 0;
  for (std::int64_t i = 0; i < total_blocks_; ++i) {
    if (used_[static_cast<std::size_t>(i)]) {
      run_start = -1;
      run_len = 0;
      continue;
    }
    if (run_start < 0) {
      run_start = i;
    }
    if (++run_len == needed) {
      for (std::int64_t b = run_start; b < run_start + needed; ++b) {
        Take(b);
        inode.block_map.push_back(b);
      }
      inode.size_bytes = bytes;
      return crbase::OkStatus();
    }
  }
  return crbase::ResourceExhaustedError("no contiguous run of " + std::to_string(needed) +
                                        " blocks");
}

Status Ufs::Fragment(InodeNumber n, crbase::Rng& rng) {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  Inode& inode = inodes_[static_cast<std::size_t>(n)];
  for (std::int64_t& block : inode.block_map) {
    Release(block);
    std::int64_t replacement = -1;
    // Random placement attempts, falling back to first-free.
    for (int attempt = 0; attempt < 32 && replacement < 0; ++attempt) {
      const std::int64_t candidate =
          static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(total_blocks_)));
      if (!used_[static_cast<std::size_t>(candidate)]) {
        replacement = candidate;
      }
    }
    if (replacement < 0) {
      replacement = FindFree(0);
    }
    CRAS_CHECK(replacement >= 0);
    Take(replacement);
    block = replacement;
  }
  return crbase::OkStatus();
}

Status Ufs::Rearrange(InodeNumber n) {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  Inode& inode = inodes_[static_cast<std::size_t>(n)];
  if (inode.block_map.empty()) {
    return crbase::OkStatus();
  }
  // Free the current placement, then greedily re-place into the longest
  // free runs, longest first. With the file's own blocks freed there is at
  // least as much contiguous space as the file occupies.
  for (std::int64_t block : inode.block_map) {
    Release(block);
  }
  const std::int64_t needed = static_cast<std::int64_t>(inode.block_map.size());
  // Collect free runs.
  struct Run {
    std::int64_t start;
    std::int64_t length;
  };
  std::vector<Run> runs;
  std::int64_t run_start = -1;
  for (std::int64_t i = 0; i <= total_blocks_; ++i) {
    const bool is_free = i < total_blocks_ && !used_[static_cast<std::size_t>(i)];
    if (is_free && run_start < 0) {
      run_start = i;
    } else if (!is_free && run_start >= 0) {
      runs.push_back(Run{run_start, i - run_start});
      run_start = -1;
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.length > b.length; });
  std::vector<std::int64_t> placement;
  placement.reserve(static_cast<std::size_t>(needed));
  for (const Run& run : runs) {
    for (std::int64_t b = run.start; b < run.start + run.length; ++b) {
      if (static_cast<std::int64_t>(placement.size()) == needed) {
        break;
      }
      placement.push_back(b);
    }
    if (static_cast<std::int64_t>(placement.size()) == needed) {
      break;
    }
  }
  CRAS_CHECK(static_cast<std::int64_t>(placement.size()) == needed)
      << "freed blocks must fit back";
  for (std::size_t i = 0; i < placement.size(); ++i) {
    Take(placement[i]);
    inode.block_map[i] = placement[i];
  }
  return crbase::OkStatus();
}

Result<crdisk::Lba> Ufs::BlockLba(InodeNumber n, std::int64_t file_block) const {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  const Inode& inode = inodes_[static_cast<std::size_t>(n)];
  if (file_block < 0 || file_block >= static_cast<std::int64_t>(inode.block_map.size())) {
    return crbase::OutOfRangeError("file block out of range");
  }
  return inode.block_map[static_cast<std::size_t>(file_block)] * sectors_per_block_;
}

Result<std::vector<Extent>> Ufs::GetExtents(InodeNumber n, std::int64_t offset,
                                            std::int64_t length,
                                            std::int64_t max_bytes_per_extent) const {
  if (n < 0 || n >= static_cast<InodeNumber>(inodes_.size())) {
    return crbase::NotFoundError("bad inode");
  }
  const Inode& inode = inodes_[static_cast<std::size_t>(n)];
  if (offset < 0 || length < 0 || offset + length > inode.size_bytes) {
    return crbase::OutOfRangeError("range beyond EOF");
  }
  if (max_bytes_per_extent < kBlockSize) {
    return crbase::InvalidArgumentError("max extent below block size");
  }
  std::vector<Extent> extents;
  if (length == 0) {
    return extents;
  }
  const std::int64_t first_block = offset / kBlockSize;
  const std::int64_t last_block = (offset + length - 1) / kBlockSize;
  const std::int64_t max_blocks = max_bytes_per_extent / kBlockSize;
  // Reads are block-granular (the cache holds whole blocks); the caller's
  // byte range is widened to block boundaries exactly as a real FS would.
  for (std::int64_t fb = first_block; fb <= last_block; ++fb) {
    const std::int64_t disk_block = inode.block_map[static_cast<std::size_t>(fb)];
    const crdisk::Lba lba = disk_block * sectors_per_block_;
    if (!extents.empty()) {
      Extent& tail = extents.back();
      const bool adjacent = tail.lba + tail.sectors == lba;
      const bool has_room = tail.sectors + sectors_per_block_ <= max_blocks * sectors_per_block_;
      if (adjacent && has_room) {
        tail.sectors += sectors_per_block_;
        continue;
      }
    }
    extents.push_back(Extent{lba, sectors_per_block_});
  }
  return extents;
}

double Ufs::ContiguityOf(InodeNumber n) const {
  const Inode& node = inode(n);
  if (node.block_map.size() < 2) {
    return 1.0;
  }
  std::int64_t contiguous = 0;
  for (std::size_t i = 1; i < node.block_map.size(); ++i) {
    if (node.block_map[i] == node.block_map[i - 1] + 1) {
      ++contiguous;
    }
  }
  return static_cast<double>(contiguous) / static_cast<double>(node.block_map.size() - 1);
}

}  // namespace crufs
