// The Unix server (Lites-style): the baseline read path.
//
// A single server thread serves all clients' read requests in arrival
// order, through a 4 MiB buffer cache. Each miss issues a clustered read
// (up to kClusterBlocks contiguous blocks, with read-ahead past the
// requested range) through the driver's *normal* queue. This reproduces the two structural reasons the
// paper's UFS baseline cannot provide rate guarantees:
//
//   1. all clients — continuous-media players and background `cat`s alike —
//      funnel through one queue served FIFO by one thread, so a high-
//      priority player's request waits behind any number of low-priority
//      requests (priority inversion);
//   2. its disk requests share the normal queue with every other
//      non-real-time I/O and receive no reservation.
//
// The server submits through the crdisk::IoTarget interface, so the same
// code serves a single-disk driver or a striped multi-disk volume (whose
// logical block space the mounted Ufs then spans).

#ifndef SRC_UFS_UNIX_SERVER_H_
#define SRC_UFS_UNIX_SERVER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/disk/io_target.h"
#include "src/rtmach/kernel.h"
#include "src/sim/port.h"
#include "src/sim/task.h"
#include "src/ufs/buffer_cache.h"
#include "src/ufs/ufs.h"

namespace crufs {

// Blocks per clustered read: 64 KiB, Table 4's B_other.
inline constexpr std::int64_t kClusterBlocks = 8;

struct UnixServerStats {
  std::int64_t requests = 0;
  std::int64_t blocks_requested = 0;
  std::int64_t disk_reads = 0;
  std::int64_t blocks_from_disk = 0;
  std::int64_t disk_writes = 0;
  std::int64_t blocks_to_disk = 0;
  crbase::Duration busy_time = 0;
};

class UnixServer {
 public:
  UnixServer(crrt::Kernel& kernel, crdisk::IoTarget& driver, Ufs& fs);
  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;
  // Reclaims client frames whose requests were still queued unprocessed.
  ~UnixServer();

  // Spawns the server thread (idempotent).
  void Start();

  // Client-side blocking read covering [offset, offset+length):
  // `Status st = co_await server.Read(inode, offset, length);`
  // Completion means every covered block is resident in client memory.
  auto Read(InodeNumber inode, std::int64_t offset, std::int64_t length) {
    return ReadAwaiter{this,
                       Request{Request::kRead, inode, offset, length, nullptr, {}},
                       crbase::Status()};
  }

  // Client-side blocking write covering [offset, offset+length). Extends
  // the file if the range ends past EOF (allocating under the mounted
  // policy), writes through the cache, and issues the disk writes on the
  // normal queue before completing (synchronous semantics — the paper's
  // editing workloads care about the disk traffic, not dirty-buffer
  // laundering policy).
  auto Write(InodeNumber inode, std::int64_t offset, std::int64_t length) {
    return ReadAwaiter{this,
                       Request{Request::kWrite, inode, offset, length, nullptr, {}},
                       crbase::Status()};
  }

  const UnixServerStats& stats() const { return stats_; }
  BufferCache& cache() { return cache_; }
  std::size_t queue_depth() const { return port_.size(); }

 private:
  struct Request {
    enum Kind { kRead, kWrite } kind = kRead;
    InodeNumber inode;
    std::int64_t offset;
    std::int64_t length;
    std::function<void(crbase::Status)> done;
    // Client frame suspended until `done` fires. Owning: if the request is
    // dropped (queued at teardown, or held in a server frame that is itself
    // reclaimed) the client's chain is destroyed with it.
    crsim::ParkedHandle parked;

    // Resumes the client with `st`. Releases `parked` first: once resumed
    // the client frame is live again and no longer ours to reclaim.
    void Complete(crbase::Status st) {
      parked.release();
      done(std::move(st));
    }
  };

  struct ReadAwaiter {
    UnixServer* server;
    Request request;
    crbase::Status result;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      request.done = [this, h](crbase::Status st) {
        result = std::move(st);
        h.resume();
      };
      request.parked = crsim::ParkedHandle(h);
      server->port_.Send(std::move(request));
    }
    crbase::Status await_resume() { return std::move(result); }
  };

  crsim::Task ServerThread(crrt::ThreadContext& ctx);
  // Serves one request to completion (cache fills included).
  crsim::Task Serve(crrt::ThreadContext& ctx, Request request);
  crsim::Task ServeWrite(crrt::ThreadContext& ctx, Request request);

  crrt::Kernel* kernel_;
  crdisk::IoTarget* driver_;
  Ufs* fs_;
  crsim::Port<Request> port_;
  BufferCache cache_;
  UnixServerStats stats_;
  crsim::Task thread_;
  bool started_ = false;
};

}  // namespace crufs

#endif  // SRC_UFS_UNIX_SERVER_H_
