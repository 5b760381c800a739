#include "src/ufs/unix_server.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"

namespace crufs {

namespace {

constexpr std::int64_t kCacheBlocks = 512;  // a 4 MiB buffer cache
// CPU charged per request and per block served, modelling system-call and
// copy overhead on the paper's 100 MHz Pentium.
constexpr crbase::Duration kCpuPerRequest = crbase::Microseconds(400);
constexpr crbase::Duration kCpuPerBlock = crbase::Microseconds(150);

}  // namespace

UnixServer::UnixServer(crrt::Kernel& kernel, crdisk::IoTarget& driver, Ufs& fs)
    : kernel_(&kernel),
      driver_(&driver),
      fs_(&fs),
      port_(kernel.engine()),
      cache_(kCacheBlocks) {}

UnixServer::~UnixServer() {
  // Requests still queued hold their clients' parked chains; draining them
  // lets each Request's ParkedHandle reclaim its client. The server thread's
  // own frame is not reachable from here — only client frames are, and their
  // owners (test-local Tasks) die before the server.
  Request request;
  while (port_.TryReceive(&request)) {
  }
}

void UnixServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  thread_ = kernel_->Spawn("unix-server", crrt::kPriorityUnixServer,
                           [this](crrt::ThreadContext& ctx) { return ServerThread(ctx); });
}

crsim::Task UnixServer::ServerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    Request request = co_await port_.Receive();
    const crbase::Time start = ctx.Now();
    co_await Serve(ctx, std::move(request));
    stats_.busy_time += ctx.Now() - start;
  }
}

crsim::Task UnixServer::Serve(crrt::ThreadContext& ctx, Request request) {
  ++stats_.requests;
  if (request.offset < 0 || request.length < 0) {
    request.Complete(crbase::InvalidArgumentError("negative offset or length"));
    co_return;
  }
  if (request.kind == Request::kWrite) {
    co_await ServeWrite(ctx, std::move(request));
    co_return;
  }
  const Inode& inode = fs_->inode(request.inode);
  if (request.offset + request.length > inode.size_bytes) {
    request.Complete(crbase::OutOfRangeError("read beyond EOF"));
    co_return;
  }
  co_await ctx.Compute(kCpuPerRequest);
  if (request.length == 0) {
    request.Complete(crbase::OkStatus());
    co_return;
  }

  const std::int64_t first_block = request.offset / kBlockSize;
  const std::int64_t last_block = (request.offset + request.length - 1) / kBlockSize;
  const std::int64_t file_blocks = static_cast<std::int64_t>(inode.block_map.size());
  stats_.blocks_requested += last_block - first_block + 1;

  for (std::int64_t fb = first_block; fb <= last_block; ++fb) {
    const std::int64_t disk_block = inode.block_map[static_cast<std::size_t>(fb)];
    co_await ctx.Compute(kCpuPerBlock);
    if (cache_.Lookup(disk_block)) {
      continue;
    }
    // Miss: build a clustered read starting here — disk-contiguous file
    // blocks, none already cached, extending past the requested range as
    // read-ahead, up to cluster_blocks total.
    std::int64_t run = 1;
    while (run < kClusterBlocks && fb + run < file_blocks) {
      const std::int64_t next = inode.block_map[static_cast<std::size_t>(fb + run)];
      if (next != disk_block + run || cache_.Contains(next)) {
        break;
      }
      ++run;
    }
    crdisk::DiskRequest io;
    io.kind = crdisk::IoKind::kRead;
    io.lba = disk_block * fs_->sectors_per_block();
    io.sectors = run * fs_->sectors_per_block();
    io.realtime = false;  // the Unix server has no reservation
    co_await driver_->Execute(std::move(io));
    ++stats_.disk_reads;
    stats_.blocks_from_disk += run;
    for (std::int64_t i = 0; i < run; ++i) {
      cache_.Insert(disk_block + i);
    }
  }
  request.Complete(crbase::OkStatus());
}

crsim::Task UnixServer::ServeWrite(crrt::ThreadContext& ctx, Request request) {
  co_await ctx.Compute(kCpuPerRequest);
  // Extend the file if the write ends past EOF (this is how editing grows a
  // movie; the allocator's policy decides where the new blocks land).
  const std::int64_t end = request.offset + request.length;
  if (end > fs_->inode(request.inode).size_bytes) {
    crbase::Status grown =
        fs_->Append(request.inode, end - fs_->inode(request.inode).size_bytes);
    if (!grown.ok()) {
      request.Complete(std::move(grown));
      co_return;
    }
  }
  if (request.length == 0) {
    request.Complete(crbase::OkStatus());
    co_return;
  }
  const Inode& inode = fs_->inode(request.inode);
  const std::int64_t first_block = request.offset / kBlockSize;
  const std::int64_t last_block = (end - 1) / kBlockSize;
  stats_.blocks_requested += last_block - first_block + 1;
  // Write through, coalescing disk-contiguous runs like the read path.
  for (std::int64_t fb = first_block; fb <= last_block; ++fb) {
    const std::int64_t disk_block = inode.block_map[static_cast<std::size_t>(fb)];
    co_await ctx.Compute(kCpuPerBlock);
    std::int64_t run = 1;
    while (run < kClusterBlocks && fb + run <= last_block) {
      const std::int64_t next = inode.block_map[static_cast<std::size_t>(fb + run)];
      if (next != disk_block + run) {
        break;
      }
      ++run;
    }
    crdisk::DiskRequest io;
    io.kind = crdisk::IoKind::kWrite;
    io.lba = disk_block * fs_->sectors_per_block();
    io.sectors = run * fs_->sectors_per_block();
    io.realtime = false;
    co_await driver_->Execute(std::move(io));
    ++stats_.disk_writes;
    stats_.blocks_to_disk += run;
    for (std::int64_t i = 0; i < run; ++i) {
      cache_.Insert(disk_block + i);  // written data is the freshest copy
    }
    fb += run - 1;
  }
  request.Complete(crbase::OkStatus());
}

}  // namespace crufs
