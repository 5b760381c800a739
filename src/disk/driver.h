// The disk device driver, including the paper's Real-Time Mach modification:
// the request queue is split into a real-time queue and a normal queue. Any
// request in the real-time queue is dispatched before any request in the
// normal queue; each queue is ordered by the C-SCAN algorithm. A request
// already at the device is never preempted — a real-time arrival therefore
// waits at most one normal-request service time (the admission test's
// O_other term).
//
// For ablation studies the discipline (C-SCAN vs FIFO) and the queue split
// (dual vs unified) are configurable.

#ifndef SRC_DISK_DRIVER_H_
#define SRC_DISK_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/disk/device.h"
#include "src/disk/io_target.h"
#include "src/disk/request.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"

namespace crdisk {

enum class QueueDiscipline {
  kCScan,
  kFifo,
};

struct DriverQueueStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  Duration total_queue_time = 0;
  Duration max_queue_time = 0;
  std::size_t max_depth = 0;
};

class DiskDriver : public IoTarget {
 public:
  struct Options {
    QueueDiscipline discipline = QueueDiscipline::kCScan;
    // Ablation A1: when true the realtime flag is ignored and all requests
    // share the normal queue (the stock driver the paper started from).
    bool unified_queue = false;
  };

  DiskDriver(crsim::Engine& engine, DiskDevice& device);
  DiskDriver(crsim::Engine& engine, DiskDevice& device, const Options& options);
  DiskDriver(const DiskDriver&) = delete;
  DiskDriver& operator=(const DiskDriver&) = delete;
  // Reclaims frames parked on requests still queued (never dispatched).
  ~DiskDriver() override;

  // Enqueues a request; its on_complete callback fires at completion.
  // (Execute() for coroutine-friendly submission comes from IoTarget.)
  std::uint64_t Submit(DiskRequest req) override;

  // Registers this driver's queue metrics and trace track under `name`
  // ("disk0"): submitted counter series keyed {disk, queue}, bound to each
  // queue's stats, and per request an async "rt"/"nr" span on the
  // "<name>.queue" track from submission to dispatch, a queue-delay
  // histogram keyed {disk, queue}, and depth counter samples.
  void AttachObs(crobs::Hub* hub, const std::string& name);

  std::size_t realtime_depth() const { return rt_queue_.size(); }
  std::size_t normal_depth() const { return normal_queue_.size(); }
  const DriverQueueStats& realtime_stats() const { return rt_stats_; }
  const DriverQueueStats& normal_stats() const { return normal_stats_; }
  DiskDevice& device() { return *device_; }
  const Options& options() const { return options_; }

 private:
  struct Pending {
    DiskRequest req;
    std::uint64_t id;
    crbase::Time enqueued_at;
    std::int64_t cylinder;
    std::uint64_t seq;  // FIFO tiebreak / FIFO discipline order
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    std::uint32_t track = 0;
    std::uint32_t cat_queue = 0;
    std::uint32_t n_rt = 0;
    std::uint32_t n_nr = 0;
    std::uint32_t n_depth_rt = 0;
    std::uint32_t n_depth_nr = 0;
    crobs::Histogram* queue_ms_rt = nullptr;
    crobs::Histogram* queue_ms_nr = nullptr;
  };

  void MaybeDispatch();
  // Removes and returns the next request per the discipline. C-SCAN picks
  // the lowest cylinder at or beyond the current head position, wrapping to
  // the lowest cylinder overall when the sweep passes the last request.
  Pending PopNext(std::vector<Pending>& queue);

  crsim::Engine* engine_;
  DiskDevice* device_;
  Options options_;
  std::vector<Pending> rt_queue_;
  std::vector<Pending> normal_queue_;
  DriverQueueStats rt_stats_;
  DriverQueueStats normal_stats_;
  crobs::Bindings bound_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::unique_ptr<ObsState> obs_;
};

}  // namespace crdisk

#endif  // SRC_DISK_DRIVER_H_
