#include "src/disk/device.h"

#include <cmath>
#include <cstdlib>

#include "src/base/logging.h"

namespace crdisk {

DiskDevice::DiskDevice(crsim::Engine& engine, const Options& options)
    : engine_(&engine), options_(options) {
  CRAS_CHECK(options_.command_overhead >= 0);
}

double DiskDevice::AngleAt(crbase::Time t) const {
  const Duration rot = options_.geometry.rotation_time();
  return static_cast<double>(t % rot) / static_cast<double>(rot);
}

Duration DiskDevice::MeasureSeek(std::int64_t from_cylinder, std::int64_t to_cylinder) const {
  return options_.seek_model.SeekTime(std::abs(to_cylinder - from_cylinder));
}

void DiskDevice::AttachObs(crobs::Hub* hub, const std::string& name) {
  bound_.Release();
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Tracer& trace = hub->trace();
  obs->track = trace.InternTrack(name);
  obs->n_io_rt = trace.InternName("io.rt");
  obs->n_io_nr = trace.InternName("io.nr");
  obs->n_command = trace.InternName("command");
  obs->n_seek = trace.InternName("seek");
  obs->n_rotation = trace.InternName("rotation");
  obs->n_transfer = trace.InternName("transfer");
  crobs::Registry& metrics = hub->metrics();
  bound_.Counter(metrics, "disk.requests", {{"disk", name}}, stats_.requests);
  bound_.Counter(metrics, "disk.sectors", {{"disk", name}}, stats_.sectors);
  obs->service_ms_rt = metrics.GetHistogram("disk.service_ms", {{"disk", name}, {"queue", "rt"}},
                                            crobs::LatencyBucketsMs());
  obs->service_ms_nr = metrics.GetHistogram("disk.service_ms", {{"disk", name}, {"queue", "nr"}},
                                            crobs::LatencyBucketsMs());
  obs_ = std::move(obs);
}

void DiskDevice::InjectTransientFault(Duration extra_latency, int request_count) {
  CRAS_CHECK(extra_latency >= 0);
  CRAS_CHECK(request_count >= 0);
  fault_extra_latency_ = extra_latency;
  fault_requests_remaining_ = request_count;
}

void DiskDevice::SetThroughputDerating(double factor) {
  CRAS_CHECK(factor >= 1.0) << "derating only slows a disk down: " << factor;
  throughput_derating_ = factor;
}

void DiskDevice::StartIo(const DiskRequest& req, std::uint64_t request_id,
                         crbase::Time enqueued_at) {
  CRAS_CHECK(!busy_) << "device services one request at a time";
  CRAS_CHECK(req.sectors > 0);
  const DiskGeometry& geo = options_.geometry;
  CRAS_CHECK(req.lba >= 0 && req.lba + req.sectors <= geo.total_sectors())
      << "I/O beyond end of disk: lba=" << req.lba << " sectors=" << req.sectors;
  busy_ = true;

  const crbase::Time now = engine_->Now();
  const std::int64_t target_cylinder = geo.CylinderOf(req.lba);

  const Duration command = options_.command_overhead;
  const Duration seek = options_.seek_model.SeekTime(std::abs(target_cylinder - current_cylinder_));

  // Rotational latency: the platter keeps spinning during command processing
  // and the seek; we wait from the angle at seek completion to the angle of
  // the first requested sector.
  const crbase::Time head_settled = now + command + seek;
  const double angle_now = AngleAt(head_settled);
  const double angle_target = geo.AngleOf(req.lba);
  double delta = angle_target - angle_now;
  if (delta < 0) {
    delta += 1.0;
  }
  const Duration rotation =
      static_cast<Duration>(delta * static_cast<double>(geo.rotation_time()));

  // Media transfer: sequential sectors stream at one track per revolution.
  // Track and cylinder switches within a transfer are folded into the media
  // rate (head switch time on this class of drive is well under one sector
  // time). On a zoned disk the rate is the starting track's zone rate —
  // transfers rarely span zones (zones are hundreds of cylinders wide).
  const Duration per_sector = geo.rotation_time() / geo.SectorsPerTrackAt(target_cylinder);
  const Duration transfer = static_cast<Duration>(
      static_cast<double>(per_sector * req.sectors) * throughput_derating_);

  crbase::Time finish = head_settled + rotation + transfer;
  if (fault_requests_remaining_ > 0) {
    finish += fault_extra_latency_;
    --fault_requests_remaining_;
    ++faults_applied_;
  }

  DiskCompletion completion;
  completion.request_id = request_id;
  completion.kind = req.kind;
  completion.lba = req.lba;
  completion.sectors = req.sectors;
  completion.realtime = req.realtime;
  completion.enqueued_at = enqueued_at;
  completion.started_at = now;
  completion.finished_at = finish;
  completion.command_time = command;
  completion.seek_time = seek;
  completion.rotation_time = rotation;
  completion.transfer_time = transfer;

  current_cylinder_ = geo.CylinderOf(req.lba + req.sectors - 1);

  stats_.requests += 1;
  stats_.sectors += req.sectors;
  stats_.busy_time += finish - now;
  stats_.seek_time += seek;
  stats_.rotation_time += rotation;
  stats_.transfer_time += transfer;
  stats_.command_time += command;

  if (obs_ != nullptr) {
    (req.realtime ? obs_->service_ms_rt : obs_->service_ms_nr)
        ->Record(crobs::ToMillis(finish - now));
    crobs::Tracer& trace = obs_->hub->trace();
    if (trace.enabled()) {
      // The whole service span, with its mechanical phases nested inside.
      trace.Complete(obs_->track, req.realtime ? obs_->n_io_rt : obs_->n_io_nr, now, finish - now);
      trace.Complete(obs_->track, obs_->n_command, now, command);
      trace.Complete(obs_->track, obs_->n_seek, now + command, seek);
      trace.Complete(obs_->track, obs_->n_rotation, head_settled, rotation);
      trace.Complete(obs_->track, obs_->n_transfer, head_settled + rotation, transfer);
    }
  }

  auto on_complete = req.on_complete;
  engine_->ScheduleAt(
      finish,
      [this, completion, on_complete] {
        busy_ = false;
        if (on_complete) {
          on_complete(completion);
        }
        if (on_idle_) {
          on_idle_();
        }
      },
      req.parked);
}

}  // namespace crdisk
