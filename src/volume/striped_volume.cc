#include "src/volume/striped_volume.h"

#include <algorithm>

#include "src/base/logging.h"

namespace crvol {

StripedVolume::StripedVolume(crsim::Engine& engine, const VolumeOptions& options)
    : Volume(engine, options) {
  const std::int64_t disk_sectors = options.device.geometry.total_sectors();
  if (options.disks == 1) {
    // Degenerate volume: identity mapping, full capacity (exactly the
    // single-disk system the paper measured).
    set_units_per_disk(0);
    set_total_sectors(disk_sectors);
  } else {
    set_total_sectors(static_cast<std::int64_t>(options.disks) * units_per_disk() *
                      unit_sectors());
  }
}

StripedVolume::Segment StripedVolume::Map(crdisk::Lba logical) const {
  CRAS_CHECK(logical >= 0 && logical < total_sectors())
      << "logical LBA out of range: " << logical;
  if (disks() == 1) {
    return Segment{0, logical, 1};
  }
  const std::int64_t unit = logical / unit_sectors();
  const std::int64_t offset = logical % unit_sectors();
  const int disk = static_cast<int>(unit % disks());
  const std::int64_t physical_unit = unit / disks();
  return Segment{disk, physical_unit * unit_sectors() + offset, 1};
}

crdisk::Lba StripedVolume::ToLogical(int disk, crdisk::Lba physical) const {
  CRAS_CHECK(disk >= 0 && disk < disks()) << "no such disk: " << disk;
  if (disks() == 1) {
    return physical;
  }
  const std::int64_t physical_unit = physical / unit_sectors();
  const std::int64_t offset = physical % unit_sectors();
  CRAS_CHECK(physical_unit < units_per_disk()) << "physical LBA beyond the striped area";
  const std::int64_t unit = physical_unit * disks() + disk;
  return unit * unit_sectors() + offset;
}

std::vector<StripedVolume::Segment> StripedVolume::MapRange(crdisk::Lba logical,
                                                            std::int64_t sectors,
                                                            crdisk::IoKind /*kind*/) const {
  CRAS_CHECK(sectors > 0) << "empty range";
  CRAS_CHECK(logical >= 0 && logical + sectors <= total_sectors())
      << "range [" << logical << ", " << logical + sectors << ") beyond the volume";
  std::vector<Segment> segments;
  crdisk::Lba pos = logical;
  const crdisk::Lba end = logical + sectors;
  while (pos < end) {
    // The piece of the current stripe unit covered by the range.
    const crdisk::Lba unit_end = (pos / unit_sectors() + 1) * unit_sectors();
    const std::int64_t piece = std::min(end, unit_end) - pos;
    Segment mapped = Map(pos);
    mapped.sectors = piece;
    if (!segments.empty() && segments.back().disk == mapped.disk &&
        segments.back().lba + segments.back().sectors == mapped.lba) {
      segments.back().sectors += piece;
    } else {
      segments.push_back(mapped);
    }
    pos += piece;
  }
  return segments;
}

}  // namespace crvol
