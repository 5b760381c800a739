#include "src/obs/slo.h"

#include <sstream>

#include "src/obs/flight_recorder.h"
#include "src/obs/obs.h"

namespace crobs {

namespace {

std::size_t Slot(std::int64_t epoch) {
  return static_cast<std::size_t>(epoch % SloMonitor::kBuckets);
}

}  // namespace

std::int64_t SloMonitor::Window::Frames() const {
  std::int64_t n = 0;
  for (const Bucket& b : ring) {
    n += b.frames;
  }
  return n;
}

std::int64_t SloMonitor::Window::Misses() const {
  std::int64_t n = 0;
  for (const Bucket& b : ring) {
    n += b.misses;
  }
  return n;
}

double SloMonitor::Window::MissBurn() const {
  const std::int64_t frames = Frames();
  if (frames == 0) {
    return 0;
  }
  return static_cast<double>(Misses()) / static_cast<double>(frames) / kMissBudget;
}

StageBucket SloMonitor::Window::Dominant() const {
  double sums[kStageBucketCount] = {};
  for (const Bucket& b : ring) {
    for (int i = 0; i < kStageBucketCount; ++i) {
      sums[i] += b.stage_ms[i];
    }
  }
  int best = 0;
  for (int i = 1; i < kStageBucketCount; ++i) {
    if (sums[i] > sums[best]) {
      best = i;
    }
  }
  return static_cast<StageBucket>(best);
}

SloMonitor::SloMonitor(const crsim::Engine& engine, Hub* hub, const Options& options)
    : engine_(&engine), hub_(hub), options_(options) {}

void SloMonitor::OnFrameResolved(std::int64_t session, bool missed,
                                 const crbase::Duration bucket_ns[kStageBucketCount]) {
  if (!options_.enabled) {
    return;
  }
  AdvanceTo(engine_->Now());
  for (Window* window : {&fleet_, &sessions_[session]}) {
    Bucket& bucket = window->ring[Slot(epoch_)];
    ++bucket.frames;
    if (missed) {
      ++bucket.misses;
    }
    for (int i = 0; i < kStageBucketCount; ++i) {
      bucket.stage_ms[i] += static_cast<double>(bucket_ns[i]) / 1e6;
    }
  }
}

void SloMonitor::AdvanceTo(crbase::Time now) {
  const std::int64_t target = now / kBucketWidth;
  if (target <= epoch_) {
    return;
  }
  if (target - epoch_ >= kBuckets) {
    // The run jumped a full window ahead (idle gap); nothing in the rings
    // is still in-window. Evaluate once on the way out, then start fresh.
    Evaluate(-1, fleet_);
    for (const auto& [id, window] : sessions_) {
      Evaluate(id, window);
    }
    fleet_ = Window{};
    sessions_.clear();
    epoch_ = target;
    return;
  }
  while (epoch_ < target) {
    // Each rotation is an evaluation boundary: judge the window as it
    // stands, then retire the bucket the new epoch will overwrite. A
    // session window left empty by that is erased.
    Evaluate(-1, fleet_);
    for (const auto& [id, window] : sessions_) {
      Evaluate(id, window);
    }
    ++epoch_;
    const std::size_t slot = Slot(epoch_);
    fleet_.ring[slot] = Bucket{};
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      it->second.ring[slot] = Bucket{};
      it = it->second.Frames() == 0 ? sessions_.erase(it) : std::next(it);
    }
  }
}

void SloMonitor::Evaluate(std::int64_t session, const Window& window) {
  if (window.Frames() < kMinFrames) {
    return;
  }
  const double burn = window.MissBurn();
  if (burn <= 1.0) {
    return;
  }
  ++burn_events_;
  const StageBucket dominant = window.Dominant();
  hub_->flight().Record(FlightEventKind::kSloBurn, session,
                        static_cast<std::int64_t>(dominant), burn,
                        StageBucketName(dominant));
  if (session >= 0 || burn < kFastBurn) {
    return;  // only fleet-wide fast burns freeze a dump
  }
  const crbase::Time now = engine_->Now();
  if (last_trigger_ >= 0 && now - last_trigger_ < kMinTriggerGap) {
    return;
  }
  last_trigger_ = now;
  ++fast_burns_;
  hub_->flight().Trigger(std::string("slo_fast_burn:") + StageBucketName(dominant));
}

std::int64_t SloMonitor::WindowFrames() const { return fleet_.Frames(); }
std::int64_t SloMonitor::WindowMisses() const { return fleet_.Misses(); }
StageBucket SloMonitor::DominantBucket() const { return fleet_.Dominant(); }

void SloMonitor::WriteJson(std::ostream& out) const {
  out << "{\"enabled\": " << (options_.enabled ? "true" : "false");
  if (!options_.enabled) {
    out << "}";
    return;
  }
  out << ", \"window_ns\": " << kBucketWidth * kBuckets << ", \"frames\": " << fleet_.Frames()
      << ", \"misses\": " << fleet_.Misses() << ", \"miss_burn\": " << fleet_.MissBurn()
      << ", \"dominant_stage\": \"" << StageBucketName(fleet_.Dominant()) << "\""
      << ", \"burn_events\": " << burn_events_ << ", \"fast_burns\": " << fast_burns_
      << ", \"sessions\": [";
  bool first = true;
  for (const auto& [id, window] : sessions_) {
    if (!first) {
      out << ", ";
    }
    first = false;
    out << "{\"id\": " << id << ", \"frames\": " << window.Frames()
        << ", \"misses\": " << window.Misses() << ", \"miss_burn\": " << window.MissBurn()
        << "}";
  }
  out << "]}";
}

std::string SloMonitor::StateJson() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

}  // namespace crobs
