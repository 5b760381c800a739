#include "src/volume/volume.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/task.h"

namespace crvol {

const char* MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kHealthy:
      return "healthy";
    case MemberState::kFailed:
      return "failed";
    case MemberState::kSlow:
      return "slow";
  }
  return "unknown";
}

Volume::~Volume() {
  for (const auto& [id, parked] : inflight_parked_) {
    crsim::DestroyParkedChain(parked);
  }
}

Volume::Volume(crsim::Engine& engine, const VolumeOptions& options) {
  CRAS_CHECK(options.disks >= 1) << "a volume needs at least one disk";
  sector_size_ = options.device.geometry.sector_size;
  CRAS_CHECK(options.stripe_unit_bytes > 0 &&
             options.stripe_unit_bytes % sector_size_ == 0)
      << "stripe unit must be a positive whole number of sectors";
  unit_sectors_ = options.stripe_unit_bytes / sector_size_;
  for (int d = 0; d < options.disks; ++d) {
    owned_devices_.push_back(std::make_unique<crdisk::DiskDevice>(engine, options.device));
    owned_drivers_.push_back(
        std::make_unique<crdisk::DiskDriver>(engine, *owned_devices_.back(), options.driver));
  }
  member_states_.assign(static_cast<std::size_t>(options.disks), MemberState::kHealthy);
  units_per_disk_ = options.device.geometry.total_sectors() / unit_sectors_;
  CRAS_CHECK(units_per_disk_ > 0) << "stripe unit larger than a member disk";
}

int Volume::failed_members() const {
  int failed = 0;
  for (MemberState state : member_states_) {
    if (state == MemberState::kFailed) {
      ++failed;
    }
  }
  return failed;
}

int Volume::failed_member() const {
  for (std::size_t d = 0; d < member_states_.size(); ++d) {
    if (member_states_[d] == MemberState::kFailed) {
      return static_cast<int>(d);
    }
  }
  return -1;
}

bool Volume::degraded() const {
  for (MemberState state : member_states_) {
    if (state != MemberState::kHealthy) {
      return true;
    }
  }
  return false;
}

void Volume::SetMemberState(int disk, MemberState state) {
  CRAS_CHECK(disk >= 0 && disk < disks()) << "no such disk: " << disk;
  MemberState& slot = member_states_[static_cast<std::size_t>(disk)];
  if (slot == state) {
    return;
  }
  slot = state;
  for (const auto& [token, listener] : member_listeners_) {
    listener(disk, state);
  }
}

int Volume::AddMemberStateListener(MemberStateListener listener) {
  const int token = next_listener_token_++;
  member_listeners_.emplace(token, std::move(listener));
  return token;
}

void Volume::AttachObs(crobs::Hub* hub, const std::string& prefix) {
  if (hub == nullptr) {
    obs_.reset();
    for (int d = 0; d < disks(); ++d) {
      driver(d).AttachObs(nullptr, "");
      device(d).AttachObs(nullptr, "");
    }
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  obs->requests = metrics.GetCounter("volume.requests", {{"volume", prefix}});
  obs->splits = metrics.GetCounter("volume.splits", {{"volume", prefix}});
  for (int d = 0; d < disks(); ++d) {
    const std::string disk_name = prefix + std::to_string(d);
    obs->pieces.push_back(
        metrics.GetCounter("volume.pieces", {{"volume", prefix}, {"disk", disk_name}}));
    obs->reconstructions.push_back(metrics.GetCounter(
        "volume.reconstruction_pieces", {{"volume", prefix}, {"disk", disk_name}}));
    driver(d).AttachObs(hub, disk_name);
    device(d).AttachObs(hub, disk_name);
  }
  obs_ = std::move(obs);
}

std::uint64_t Volume::Submit(crdisk::DiskRequest req) {
  const std::uint64_t id = next_id_++;
  ++stats_.requests_submitted;
  std::vector<Segment> segments = MapRange(req.lba, req.sectors, req.kind);
  if (segments.size() > 1) {
    ++stats_.requests_split;
  }
  if (obs_ != nullptr) {
    obs_->requests->Add();
    if (segments.size() > 1) {
      obs_->splits->Add();
    }
  }
  for (const Segment& segment : segments) {
    NotePiece(segment);
  }

  // Shared fan-out state: the merged completion reports the caller's
  // logical view — logical LBA, total sectors, component times summed over
  // the pieces, queue/service span from first enqueue to last finish.
  struct FanOut {
    int outstanding = 0;
    bool first = true;
    crdisk::DiskCompletion merged;
    std::function<void(const crdisk::DiskCompletion&)> on_complete;
  };
  auto state = std::make_shared<FanOut>();
  state->outstanding = static_cast<int>(segments.size());
  state->on_complete = std::move(req.on_complete);
  if (req.parked) {
    // The awaiting frame is reclaimable through this table until the merged
    // completion fires; the per-disk pieces deliberately carry no handle.
    inflight_parked_.emplace(id, req.parked);
  }
  state->merged.request_id = id;
  state->merged.kind = req.kind;
  state->merged.lba = req.lba;
  state->merged.sectors = req.sectors;
  state->merged.realtime = req.realtime;

  for (const Segment& segment : segments) {
    crdisk::DiskRequest piece;
    piece.kind = req.kind;
    piece.lba = segment.lba;
    piece.sectors = segment.sectors;
    piece.realtime = req.realtime;
    piece.on_complete = [this, state, id](const crdisk::DiskCompletion& c) {
      crdisk::DiskCompletion& merged = state->merged;
      if (state->first) {
        state->first = false;
        merged.enqueued_at = c.enqueued_at;
        merged.started_at = c.started_at;
        merged.finished_at = c.finished_at;
      } else {
        merged.enqueued_at = std::min(merged.enqueued_at, c.enqueued_at);
        merged.started_at = std::min(merged.started_at, c.started_at);
        merged.finished_at = std::max(merged.finished_at, c.finished_at);
      }
      merged.command_time += c.command_time;
      merged.seek_time += c.seek_time;
      merged.rotation_time += c.rotation_time;
      merged.transfer_time += c.transfer_time;
      if (--state->outstanding == 0) {
        inflight_parked_.erase(id);
        if (state->on_complete) {
          state->on_complete(merged);
        }
      }
    };
    driver(segment.disk).Submit(std::move(piece));
  }
  return id;
}

}  // namespace crvol
