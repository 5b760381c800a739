// The disk device: services one request at a time, charging command
// overhead, seek, rotational latency, and transfer time against the current
// head position and platter angle.

#ifndef SRC_DISK_DEVICE_H_
#define SRC_DISK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/base/logging.h"
#include "src/base/time_units.h"
#include "src/disk/geometry.h"
#include "src/disk/request.h"
#include "src/disk/seek_model.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"

namespace crdisk {

struct DeviceStats {
  std::int64_t requests = 0;
  std::int64_t sectors = 0;
  Duration busy_time = 0;
  Duration seek_time = 0;
  Duration rotation_time = 0;
  Duration transfer_time = 0;
  Duration command_time = 0;
};

class DiskDevice {
 public:
  struct Options {
    DiskGeometry geometry;
    PhysicalSeekModel seek_model;
    // Fixed per-command setup cost (SCSI command processing; Table 4's
    // T_cmd = 2 ms).
    Duration command_overhead = crbase::Milliseconds(2);
  };

  DiskDevice(crsim::Engine& engine, const Options& options);
  DiskDevice(const DiskDevice&) = delete;
  DiskDevice& operator=(const DiskDevice&) = delete;

  // Begins servicing `req`. The device must be idle. `done` fires (through
  // the engine) when the transfer completes; the driver dispatches the next
  // queued request from that callback.
  void StartIo(const DiskRequest& req, std::uint64_t request_id, crbase::Time enqueued_at);

  bool busy() const { return busy_; }
  std::int64_t current_cylinder() const { return current_cylinder_; }
  const DiskGeometry& geometry() const { return options_.geometry; }
  Duration command_overhead() const { return options_.command_overhead; }
  const DeviceStats& stats() const { return stats_; }
  // Zeroes stats(). Only while unattached: a counter series bound to a
  // count never moves backwards.
  void ResetStats() {
    CRAS_CHECK(obs_ == nullptr) << "ResetStats on an attached device";
    stats_ = DeviceStats{};
  }

  // Diagnostic used by the calibration micro-benchmarks (Figure 12): the
  // true seek time between two cylinders, without issuing I/O.
  Duration MeasureSeek(std::int64_t from_cylinder, std::int64_t to_cylinder) const;

  // Failure injection: the next `request_count` requests each take
  // `extra_latency` longer (a thermal-recalibration stall, a retried read).
  // Used to verify that deadline handling degrades and recovers gracefully.
  void InjectTransientFault(Duration extra_latency, int request_count);
  std::int64_t faults_applied() const { return faults_applied_; }

  // Failure injection: scales every transfer from now on by `factor` >= 1
  // (a drive limping along at reduced media rate — firmware in permanent
  // retry, a dying head). 1.0 restores nominal throughput.
  void SetThroughputDerating(double factor);
  double throughput_derating() const { return throughput_derating_; }

  // Invoked for every completion, after the request's own callback. The
  // driver installs itself here.
  void set_on_idle(std::function<void()> fn) { on_idle_ = std::move(fn); }

  // Registers this device's metrics and trace track under `name` ("disk0"):
  // request/sector counter series bound to stats(), and per request an
  // "io.rt"/"io.nr" span with nested command/seek/rotation/transfer phases
  // and a service-time histogram keyed {disk, queue}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  struct ObsState {
    crobs::Hub* hub = nullptr;
    std::uint32_t track = 0;
    std::uint32_t n_io_rt = 0;
    std::uint32_t n_io_nr = 0;
    std::uint32_t n_command = 0;
    std::uint32_t n_seek = 0;
    std::uint32_t n_rotation = 0;
    std::uint32_t n_transfer = 0;
    crobs::Histogram* service_ms_rt = nullptr;
    crobs::Histogram* service_ms_nr = nullptr;
  };

  // Platter angle in [0,1) revolutions at virtual time `t`.
  double AngleAt(crbase::Time t) const;

  crsim::Engine* engine_;
  Options options_;
  bool busy_ = false;
  std::int64_t current_cylinder_ = 0;
  DeviceStats stats_;
  crobs::Bindings bound_;
  std::function<void()> on_idle_;
  Duration fault_extra_latency_ = 0;
  int fault_requests_remaining_ = 0;
  std::int64_t faults_applied_ = 0;
  double throughput_derating_ = 1.0;
  std::unique_ptr<ObsState> obs_;
};

}  // namespace crdisk

#endif  // SRC_DISK_DEVICE_H_
