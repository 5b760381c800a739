// The multi-disk volume abstraction shared by the striped (data-only) and
// parity (RAID-4/5-style) layouts: N member disks, each with its own
// DiskDevice and dual-queue DiskDriver, presented as one flat logical
// sector space, striped in 256 KiB units (the CRAS maximum coalesced read).
//
// A volume is an IoTarget — Submit() maps a logical request through the
// layout's MapRange(), fans the physical pieces out to the owning disks'
// queues, and fires the caller's completion once with a merged timing
// record. The CRAS scheduler does NOT go through Submit(): it calls
// MapRange() itself so it can sort each disk's requests in cylinder order
// before submission, then counts the issued pieces back through NotePiece().
//
// Member health. Every member carries a MemberState (healthy / failed /
// slow). The fault-injection layer (crfault) flips states at scripted
// simulation timestamps; a layout reacts by rerouting — a ParityVolume
// reconstructs a failed member's data from the surviving disks — and the
// subscribed state listeners let each CRAS server's degradation controller
// re-run admission against the changed array. A fail-stop takes effect at
// the routing layer: requests already queued on the member drain normally
// (detection is modelled as instantaneous at the plan timestamp), but no
// new piece is ever routed there.

#ifndef SRC_VOLUME_VOLUME_H_
#define SRC_VOLUME_VOLUME_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/bytes.h"
#include "src/disk/device.h"
#include "src/disk/driver.h"
#include "src/disk/io_target.h"
#include "src/sim/engine.h"

namespace crvol {

struct VolumeOptions {
  int disks = 1;
  // Parity layout: one stripe unit per row holds the XOR of the row's data
  // units, rotating across members (RAID-5). Requires disks >= 2; logical
  // capacity drops to (disks-1)/disks, and a single member failure degrades
  // service instead of losing it. Consumed by MakeVolume().
  bool parity = false;
  // The stripe unit is 256 KiB, the CRAS maximum coalesced read (a constant
  // in volume.cc; stripe_unit_bytes() reports it).
  // Per-disk hardware; every spindle is identical (the homogeneous-array
  // configuration the admission model assumes).
  crdisk::DiskDevice::Options device;
  crdisk::DiskDriver::Options driver;
};

struct VolumeStats {
  std::int64_t requests_submitted = 0;  // through Submit(); fan-out pieces not counted
  std::int64_t requests_split = 0;      // requests that fanned out to more than one piece
  // One entry per member disk: the pieces issued to it, and those of them
  // that exist only for redundancy (degraded-read and parity-update pieces).
  std::vector<std::int64_t> pieces;
  std::vector<std::int64_t> reconstruction_pieces;

  std::int64_t total_reconstruction_pieces() const {
    return std::accumulate(reconstruction_pieces.begin(), reconstruction_pieces.end(),
                           std::int64_t{0});
  }
};

enum class MemberState {
  kHealthy,
  kFailed,  // fail-stop: the member serves nothing from now on
  kSlow,    // serving, but derated (DiskDevice::SetThroughputDerating)
};

const char* MemberStateName(MemberState state);

class Volume : public crdisk::IoTarget {
 public:
  // One physically contiguous piece of a logical range on one disk.
  struct Segment {
    int disk = 0;
    crdisk::Lba lba = 0;  // physical, on that disk
    std::int64_t sectors = 0;
    // True for pieces that exist only because of redundancy: degraded-mode
    // reads that rebuild a failed member's data from the survivors, and
    // parity-update writes. Counted separately in stats().
    bool reconstruction = false;
  };

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;
  // Reclaims frames awaiting fan-out completions still in flight. The frame
  // handle lives here (not on the per-disk pieces), so member-driver
  // destruction afterwards cannot double-free it.
  ~Volume() override;

  int disks() const { return static_cast<int>(owned_drivers_.size()); }
  // Members carrying data in one stripe row (equals disks() for a data-only
  // layout; disks()-1 under rotating parity).
  virtual int data_disks() const { return disks(); }
  // Whether the layout stores redundancy (and so tolerates one failure).
  virtual bool parity() const { return false; }
  std::int64_t stripe_unit_bytes() const { return unit_sectors_ * sector_size_; }
  std::int64_t stripe_unit_sectors() const { return unit_sectors_; }
  // Logical (data) capacity.
  std::int64_t total_sectors() const { return total_sectors_; }

  crdisk::DiskDriver& driver(int disk) { return *owned_drivers_[static_cast<std::size_t>(disk)]; }
  crdisk::DiskDevice& device(int disk) { return *owned_devices_[static_cast<std::size_t>(disk)]; }
  // Per-disk geometry (identical across the array).
  const crdisk::DiskGeometry& geometry() const { return owned_devices_.front()->geometry(); }

  // Logical sector -> (disk, physical sector), healthy-array data mapping.
  virtual Segment Map(crdisk::Lba logical) const = 0;
  // Inverse of Map.
  virtual crdisk::Lba ToLogical(int disk, crdisk::Lba physical) const = 0;
  // Splits [logical, logical+sectors) into the physical per-disk pieces the
  // array must perform for `kind` I/O given the current member states, in
  // logical order, adjacent same-disk contiguous pieces merged. On a healthy
  // array this is the pure layout mapping; a degraded parity array
  // substitutes reconstruction reads for pieces of the failed member.
  virtual std::vector<Segment> MapRange(crdisk::Lba logical, std::int64_t sectors,
                                        crdisk::IoKind kind) const = 0;
  std::vector<Segment> MapRange(crdisk::Lba logical, std::int64_t sectors) const {
    return MapRange(logical, sectors, crdisk::IoKind::kRead);
  }

  // ---- member health ----
  MemberState member_state(int disk) const {
    return member_states_[static_cast<std::size_t>(disk)];
  }
  int failed_members() const;
  // The lowest-numbered failed member, or -1 when none.
  int failed_member() const;
  bool degraded() const;  // any member not healthy
  // Flips a member's state (no-op when unchanged) and notifies every
  // listener, in subscription order.
  void SetMemberState(int disk, MemberState state);
  // Subscribes a listener (each CRAS server sharing the volume subscribes
  // its own degradation controller). Returns the token that unsubscribes it.
  using MemberStateListener = std::function<void(int disk, MemberState state)>;
  int AddMemberStateListener(MemberStateListener listener);
  void RemoveMemberStateListener(int token) { member_listeners_.erase(token); }

  // IoTarget: maps via MapRange(kind), fans out, merges. The merged
  // completion carries the *logical* LBA, the summed component times, and
  // the wall-clock span from first start to last finish.
  std::uint64_t Submit(crdisk::DiskRequest req) override;

  const VolumeStats& stats() const { return stats_; }

  // Registers the whole array: each member device and driver under
  // "<prefix><i>" ("disk0", "disk1", ...), plus volume-level counter series
  // bound to stats() — logical requests and fan-out splits, and per member
  // disk the pieces and reconstruction pieces keyed {volume, disk}.
  void AttachObs(crobs::Hub* hub, const std::string& prefix);

  // Counts one issued piece against the segment's member disk. Submit()
  // calls it; so do schedulers that fan out via MapRange() +
  // driver().Submit() directly, bypassing Submit().
  void NotePiece(const Segment& segment) {
    const auto disk = static_cast<std::size_t>(segment.disk);
    ++stats_.pieces[disk];
    if (segment.reconstruction) {
      ++stats_.reconstruction_pieces[disk];
    }
  }

 protected:
  // Builds `options.disks` device+driver pairs. The derived layout must
  // then call set_total_sectors() with its logical capacity.
  Volume(crsim::Engine& engine, const VolumeOptions& options);

  void set_total_sectors(std::int64_t sectors) { total_sectors_ = sectors; }
  std::int64_t sector_size() const { return sector_size_; }
  std::int64_t unit_sectors() const { return unit_sectors_; }
  // Whole stripe units a member disk holds (0 in the degenerate
  // identity-mapped single-disk configuration).
  std::int64_t units_per_disk() const { return units_per_disk_; }
  void set_units_per_disk(std::int64_t units) { units_per_disk_ = units; }

 private:
  std::vector<std::unique_ptr<crdisk::DiskDevice>> owned_devices_;
  std::vector<std::unique_ptr<crdisk::DiskDriver>> owned_drivers_;
  std::vector<MemberState> member_states_;
  // Keyed by subscription token, so iteration follows subscription order.
  std::map<int, MemberStateListener> member_listeners_;
  int next_listener_token_ = 0;
  std::int64_t sector_size_ = 512;
  std::int64_t unit_sectors_ = 0;
  std::int64_t units_per_disk_ = 0;
  std::int64_t total_sectors_ = 0;
  std::uint64_t next_id_ = 1;
  VolumeStats stats_;
  crobs::Bindings bound_;
  // Frames parked in Execute() on a fan-out not yet fully completed.
  std::unordered_map<std::uint64_t, std::coroutine_handle<>> inflight_parked_;
};

// Builds the layout `options` asks for: a ParityVolume when options.parity,
// a StripedVolume otherwise.
std::unique_ptr<Volume> MakeVolume(crsim::Engine& engine, const VolumeOptions& options);

}  // namespace crvol

#endif  // SRC_VOLUME_VOLUME_H_
