// A striped multi-disk volume (the §2.6 "multiple servers" direction taken
// to its storage conclusion): data-only striping, no redundancy — a member
// failure loses every stream whose file touches that disk (ParityVolume is
// the layout that survives one).
//
// Logical space is striped round-robin in fixed *stripe units* (default
// 256 KiB — the server's maximum coalesced read, so one admission-sized
// request never spans more than two disks). Stripe unit u of the logical
// space lives on disk u % N at physical unit u / N; consecutive units of
// one disk are therefore physically contiguous, which keeps per-disk reads
// coalescible and cylinder-sortable.
//
// One member disk is the paper's configuration: the mapping is the identity
// and the whole disk is addressable, so a one-disk volume is exactly the
// single-disk system the paper measured.

#ifndef SRC_VOLUME_STRIPED_VOLUME_H_
#define SRC_VOLUME_STRIPED_VOLUME_H_

#include <cstdint>
#include <vector>

#include "src/volume/volume.h"

namespace crvol {

class StripedVolume : public Volume {
 public:
  // Builds `options.disks` device+driver pairs.
  StripedVolume(crsim::Engine& engine, const VolumeOptions& options);

  // Logical sector -> (disk, physical sector).
  Segment Map(crdisk::Lba logical) const override;
  // Inverse of Map.
  crdisk::Lba ToLogical(int disk, crdisk::Lba physical) const override;
  // Splits [logical, logical+sectors) at stripe-unit boundaries into
  // per-disk physically contiguous segments, in logical order. Adjacent
  // pieces that land contiguously on the same disk are merged, so a
  // single-disk volume always yields exactly one segment. The kind is
  // irrelevant — with no redundancy, reads and writes map identically.
  std::vector<Segment> MapRange(crdisk::Lba logical, std::int64_t sectors,
                                crdisk::IoKind kind) const override;
  using Volume::MapRange;
};

}  // namespace crvol

#endif  // SRC_VOLUME_STRIPED_VOLUME_H_
