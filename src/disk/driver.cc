#include "src/disk/driver.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/task.h"

namespace crdisk {

DiskDriver::DiskDriver(crsim::Engine& engine, DiskDevice& device)
    : DiskDriver(engine, device, Options{}) {}

DiskDriver::DiskDriver(crsim::Engine& engine, DiskDevice& device, const Options& options)
    : engine_(&engine), device_(&device), options_(options) {
  device_->set_on_idle([this] { MaybeDispatch(); });
}

DiskDriver::~DiskDriver() {
  device_->set_on_idle({});
  for (std::vector<Pending>* queue : {&rt_queue_, &normal_queue_}) {
    // A queued request dispatched to the device would also be reachable via
    // the completion event, but queued-and-undispatched ones only live here.
    std::vector<Pending> pending = std::move(*queue);
    for (const Pending& p : pending) {
      if (p.req.parked) {
        crsim::DestroyParkedChain(p.req.parked);
      }
    }
  }
}

void DiskDriver::AttachObs(crobs::Hub* hub, const std::string& name) {
  bound_.Release();
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Tracer& trace = hub->trace();
  obs->track = trace.InternTrack(name + ".queue");
  obs->cat_queue = trace.InternName("queue");
  obs->n_rt = trace.InternName("rt");
  obs->n_nr = trace.InternName("nr");
  obs->n_depth_rt = trace.InternName("depth.rt");
  obs->n_depth_nr = trace.InternName("depth.nr");
  crobs::Registry& metrics = hub->metrics();
  bound_.Counter(metrics, "driver.submitted", {{"disk", name}, {"queue", "rt"}},
                 rt_stats_.submitted);
  bound_.Counter(metrics, "driver.submitted", {{"disk", name}, {"queue", "nr"}},
                 normal_stats_.submitted);
  obs->queue_ms_rt = metrics.GetHistogram("driver.queue_ms", {{"disk", name}, {"queue", "rt"}},
                                          crobs::LatencyBucketsMs());
  obs->queue_ms_nr = metrics.GetHistogram("driver.queue_ms", {{"disk", name}, {"queue", "nr"}},
                                          crobs::LatencyBucketsMs());
  obs_ = std::move(obs);
}

std::uint64_t DiskDriver::Submit(DiskRequest req) {
  const std::uint64_t id = next_id_++;
  const bool realtime = req.realtime && !options_.unified_queue;
  Pending pending{std::move(req), id, engine_->Now(), 0, next_seq_++};
  pending.cylinder = device_->geometry().CylinderOf(pending.req.lba);

  std::vector<Pending>& queue = realtime ? rt_queue_ : normal_queue_;
  DriverQueueStats& stats = realtime ? rt_stats_ : normal_stats_;
  queue.push_back(std::move(pending));
  stats.submitted += 1;
  stats.max_depth = std::max(stats.max_depth, queue.size());

  if (obs_ != nullptr) {
    crobs::Tracer& trace = obs_->hub->trace();
    if (trace.enabled()) {
      trace.AsyncBegin(obs_->track, obs_->cat_queue, realtime ? obs_->n_rt : obs_->n_nr, id);
      trace.CounterSample(obs_->track, realtime ? obs_->n_depth_rt : obs_->n_depth_nr,
                          static_cast<double>(queue.size()));
    }
  }

  MaybeDispatch();
  return id;
}

DiskDriver::Pending DiskDriver::PopNext(std::vector<Pending>& queue) {
  CRAS_CHECK(!queue.empty());
  std::size_t best = 0;
  if (options_.discipline == QueueDiscipline::kFifo) {
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (queue[i].seq < queue[best].seq) {
        best = i;
      }
    }
  } else {
    // C-SCAN relative to the head's current cylinder: lowest cylinder at or
    // beyond the head wins; if the sweep is past every request, wrap to the
    // lowest cylinder overall. Ties break FIFO.
    const std::int64_t head = device_->current_cylinder();
    auto better = [&](const Pending& a, const Pending& b) {
      const bool a_ahead = a.cylinder >= head;
      const bool b_ahead = b.cylinder >= head;
      if (a_ahead != b_ahead) {
        return a_ahead;  // requests ahead of the sweep beat wrapped ones
      }
      if (a.cylinder != b.cylinder) {
        return a.cylinder < b.cylinder;
      }
      return a.seq < b.seq;
    };
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (better(queue[i], queue[best])) {
        best = i;
      }
    }
  }
  Pending chosen = std::move(queue[best]);
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
  return chosen;
}

void DiskDriver::MaybeDispatch() {
  if (device_->busy()) {
    return;
  }
  const bool from_rt = !rt_queue_.empty();
  if (!from_rt && normal_queue_.empty()) {
    return;
  }
  Pending next = PopNext(from_rt ? rt_queue_ : normal_queue_);
  DriverQueueStats& stats = from_rt ? rt_stats_ : normal_stats_;
  const Duration waited = engine_->Now() - next.enqueued_at;
  stats.completed += 1;
  stats.total_queue_time += waited;
  stats.max_queue_time = std::max(stats.max_queue_time, waited);

  if (obs_ != nullptr) {
    (from_rt ? obs_->queue_ms_rt : obs_->queue_ms_nr)->Record(crobs::ToMillis(waited));
    crobs::Tracer& trace = obs_->hub->trace();
    if (trace.enabled()) {
      trace.AsyncEnd(obs_->track, obs_->cat_queue, from_rt ? obs_->n_rt : obs_->n_nr, next.id);
      trace.CounterSample(obs_->track, from_rt ? obs_->n_depth_rt : obs_->n_depth_nr,
                          static_cast<double>((from_rt ? rt_queue_ : normal_queue_).size()));
    }
  }

  device_->StartIo(next.req, next.id, next.enqueued_at);
}

}  // namespace crdisk
