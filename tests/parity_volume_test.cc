// Parity volume: rotating-parity mapping properties, degraded-mode
// reconstruction fan-out (with an XOR check over a seeded image), write
// parity updates, and the degraded admission formulas.

#include "src/volume/parity_volume.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/random.h"
#include "src/volume/volume_admission.h"

namespace crvol {
namespace {

using crbase::kKiB;
using crbase::kMiB;
using crbase::Milliseconds;

constexpr std::int64_t kStripeUnit = 256 * kKiB;

std::int64_t Uniform(crbase::Rng& rng, std::int64_t bound) {
  return static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(bound)));
}

VolumeOptions ParityOptions(int disks) {
  VolumeOptions options;
  options.disks = disks;
  options.parity = true;
  return options;
}

// ---------------------------------------------------------------------------
// Healthy mapping.

class ParityMapping : public ::testing::TestWithParam<int> {};

TEST_P(ParityMapping, CapacityIsDataDisksOverDisks) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(GetParam()));
  const std::int64_t unit = volume.stripe_unit_sectors();
  const std::int64_t per_disk_units = volume.geometry().total_sectors() / unit;
  EXPECT_EQ(volume.data_disks(), volume.disks() - 1);
  EXPECT_TRUE(volume.parity());
  EXPECT_EQ(volume.total_sectors(), per_disk_units * volume.data_disks() * unit);
}

TEST_P(ParityMapping, MapRoundTripsAndAvoidsParityUnits) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(GetParam()));
  crbase::Rng rng(20260806);
  for (int i = 0; i < 10000; ++i) {
    const crdisk::Lba logical = Uniform(rng, volume.total_sectors());
    const ParityVolume::Segment s = volume.Map(logical);
    ASSERT_GE(s.disk, 0);
    ASSERT_LT(s.disk, volume.disks());
    ASSERT_FALSE(volume.IsParityUnit(s.disk, s.lba));
    ASSERT_EQ(volume.ToLogical(s.disk, s.lba), logical);
  }
}

TEST_P(ParityMapping, ParityRotatesAcrossMembersRowByRow) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(GetParam()));
  const int n = volume.disks();
  const std::int64_t unit = volume.stripe_unit_sectors();
  for (std::int64_t row = 0; row < 4 * n; ++row) {
    EXPECT_EQ(volume.ParityDiskOf(row), static_cast<int>(row % n));
    // Exactly one member of the row holds parity; the others hold the row's
    // n-1 data units in ascending logical order.
    int parity_members = 0;
    std::int64_t expect_logical = row * (n - 1) * unit;
    for (int d = 0; d < n; ++d) {
      if (volume.IsParityUnit(d, row * unit)) {
        ++parity_members;
      } else {
        EXPECT_EQ(volume.ToLogical(d, row * unit), expect_logical);
        expect_logical += unit;
      }
    }
    EXPECT_EQ(parity_members, 1);
  }
}

TEST_P(ParityMapping, HealthyMapRangeTilesTheRangeInLogicalOrder) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(GetParam()));
  crbase::Rng rng(414243);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t sectors = 1 + Uniform(rng, 3 * volume.stripe_unit_sectors());
    const crdisk::Lba start = Uniform(rng, volume.total_sectors() - sectors);
    const std::vector<ParityVolume::Segment> segments = volume.MapRange(start, sectors);
    ASSERT_FALSE(segments.empty());
    crdisk::Lba cursor = start;
    for (const ParityVolume::Segment& s : segments) {
      ASSERT_GT(s.sectors, 0);
      ASSERT_FALSE(s.reconstruction) << "healthy reads carry no redundancy pieces";
      ASSERT_EQ(volume.ToLogical(s.disk, s.lba), cursor);
      ASSERT_EQ(volume.ToLogical(s.disk, s.lba + s.sectors - 1), cursor + s.sectors - 1);
      cursor += s.sectors;
    }
    ASSERT_EQ(cursor, start + sectors);
  }
}

TEST_P(ParityMapping, WritesAddARotatingParityUpdatePerRow) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(GetParam()));
  const std::int64_t unit = volume.stripe_unit_sectors();
  crbase::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t sectors = 1 + Uniform(rng, 2 * unit);
    const crdisk::Lba start = Uniform(rng, volume.total_sectors() - sectors);
    std::int64_t data_sectors = 0;
    for (const ParityVolume::Segment& s :
         volume.MapRange(start, sectors, crdisk::IoKind::kWrite)) {
      if (s.reconstruction) {
        // A parity update: on the row's parity member, covering the written
        // span of that row.
        ASSERT_TRUE(volume.IsParityUnit(s.disk, s.lba));
        ASSERT_EQ(volume.ParityDiskOf(s.lba / unit), s.disk);
      } else {
        ASSERT_FALSE(volume.IsParityUnit(s.disk, s.lba));
        data_sectors += s.sectors;
      }
    }
    ASSERT_EQ(data_sectors, sectors);
  }
}

INSTANTIATE_TEST_SUITE_P(Disks, ParityMapping, ::testing::Values(2, 3, 4, 8));

// ---------------------------------------------------------------------------
// Degraded mapping + reconstruction.

// One byte per sector over the first `rows` rows of every member: data
// sectors get a hash of their logical address, parity sectors the XOR of
// the row's data. This is the invariant a real array maintains; the tests
// below recover lost bytes through it.
std::uint8_t HashByte(crdisk::Lba logical) {
  return static_cast<std::uint8_t>((logical * 131) ^ (logical >> 7));
}

std::vector<std::vector<std::uint8_t>> SeededImage(const ParityVolume& volume,
                                                   std::int64_t rows) {
  const int n = volume.disks();
  const std::int64_t unit = volume.stripe_unit_sectors();
  const std::int64_t depth = rows * unit;
  std::vector<std::vector<std::uint8_t>> image(
      static_cast<std::size_t>(n), std::vector<std::uint8_t>(static_cast<std::size_t>(depth)));
  for (int d = 0; d < n; ++d) {
    for (std::int64_t p = 0; p < depth; ++p) {
      if (!volume.IsParityUnit(d, p)) {
        image[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)] =
            HashByte(volume.ToLogical(d, p));
      }
    }
  }
  for (std::int64_t p = 0; p < depth; ++p) {
    const int pd = volume.ParityDiskOf(p / unit);
    std::uint8_t parity = 0;
    for (int d = 0; d < n; ++d) {
      if (d != pd) {
        parity ^= image[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)];
      }
    }
    image[static_cast<std::size_t>(pd)][static_cast<std::size_t>(p)] = parity;
  }
  return image;
}

TEST(ParityDegraded, SurvivorXorReconstructsEveryLostSector) {
  constexpr std::int64_t kRows = 8;
  for (int disks : {3, 4, 5}) {
    crsim::Engine engine;
    ParityVolume volume(engine, ParityOptions(disks));
    const auto image = SeededImage(volume, kRows);
    const std::int64_t span = kRows * volume.data_disks() * volume.stripe_unit_sectors();
    for (int failed = 0; failed < disks; ++failed) {
      for (crdisk::Lba logical = 0; logical < span; ++logical) {
        const ParityVolume::Segment s = volume.Map(logical);
        if (s.disk != failed) {
          continue;
        }
        std::uint8_t rebuilt = 0;
        for (int d = 0; d < disks; ++d) {
          if (d != failed) {
            rebuilt ^= image[static_cast<std::size_t>(d)][static_cast<std::size_t>(s.lba)];
          }
        }
        ASSERT_EQ(rebuilt, HashByte(logical)) << "disks=" << disks << " lba=" << logical;
      }
    }
  }
}

TEST(ParityDegraded, DegradedReadFansOutToAllSurvivors) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(4));
  const int failed = 2;
  volume.SetMemberState(failed, MemberState::kFailed);
  ASSERT_TRUE(volume.degraded());
  ASSERT_EQ(volume.failed_member(), failed);

  // A second, healthy array gives the reference split to compare piece by
  // piece.
  crsim::Engine engine2;
  ParityVolume reference(engine2, ParityOptions(4));

  const std::int64_t unit = volume.stripe_unit_sectors();
  crbase::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t sectors = 1 + Uniform(rng, 3 * unit);
    const crdisk::Lba start = Uniform(rng, volume.total_sectors() - sectors);
    crdisk::Lba cursor = start;
    const std::vector<ParityVolume::Segment> healthy_map =
        reference.MapRange(start, sectors);
    std::size_t h = 0;
    const std::vector<ParityVolume::Segment> segments = volume.MapRange(start, sectors);
    std::size_t j = 0;
    while (j < segments.size()) {
      ASSERT_LT(h, healthy_map.size());
      const ParityVolume::Segment& want = healthy_map[h++];
      if (want.disk != failed) {
        // Surviving data piece: passed through untouched.
        ASSERT_EQ(segments[j].disk, want.disk);
        ASSERT_EQ(segments[j].lba, want.lba);
        ASSERT_EQ(segments[j].sectors, want.sectors);
        ASSERT_FALSE(segments[j].reconstruction);
        cursor += want.sectors;
        ++j;
        continue;
      }
      // Lost piece: the same physical range on every survivor, flagged as
      // reconstruction I/O.
      std::vector<bool> seen(4, false);
      for (int k = 0; k < 3; ++k) {
        ASSERT_LT(j, segments.size());
        const ParityVolume::Segment& s = segments[j++];
        ASSERT_TRUE(s.reconstruction);
        ASSERT_NE(s.disk, failed);
        ASSERT_FALSE(seen[static_cast<std::size_t>(s.disk)]);
        seen[static_cast<std::size_t>(s.disk)] = true;
        ASSERT_EQ(s.lba, want.lba);
        ASSERT_EQ(s.sectors, want.sectors);
      }
      cursor += want.sectors;
    }
    ASSERT_EQ(h, healthy_map.size());
    ASSERT_EQ(cursor, start + sectors);
  }
}

TEST(ParityDegraded, RecoveryRestoresTheHealthyMapping) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(4));
  const auto before = volume.MapRange(1000, 2000);
  volume.SetMemberState(1, MemberState::kFailed);
  volume.SetMemberState(1, MemberState::kHealthy);
  EXPECT_FALSE(volume.degraded());
  const auto after = volume.MapRange(1000, 2000);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].disk, before[i].disk);
    EXPECT_EQ(after[i].lba, before[i].lba);
    EXPECT_EQ(after[i].sectors, before[i].sectors);
  }
}

TEST(ParityDegraded, MemberStateListenerFiresOnEveryChange) {
  crsim::Engine engine;
  ParityVolume volume(engine, ParityOptions(3));
  std::vector<std::pair<int, MemberState>> changes;
  int other_changes = 0;
  volume.AddMemberStateListener(
      [&](int disk, MemberState state) { changes.emplace_back(disk, state); });
  const int other = volume.AddMemberStateListener([&](int, MemberState) { ++other_changes; });
  volume.SetMemberState(1, MemberState::kFailed);
  volume.SetMemberState(1, MemberState::kFailed);  // no-op: unchanged
  volume.RemoveMemberStateListener(other);         // the first stays subscribed
  volume.SetMemberState(1, MemberState::kHealthy);
  volume.SetMemberState(2, MemberState::kSlow);
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0], std::make_pair(1, MemberState::kFailed));
  EXPECT_EQ(changes[1], std::make_pair(1, MemberState::kHealthy));
  EXPECT_EQ(changes[2], std::make_pair(2, MemberState::kSlow));
  EXPECT_EQ(other_changes, 1);
}

// ---------------------------------------------------------------------------
// Degraded admission (the doubled-share variant of formulas (1)-(15)).

std::vector<cras::StreamDemand> Mpeg1Streams(int count) {
  return std::vector<cras::StreamDemand>(static_cast<std::size_t>(count),
                                         cras::StreamDemand{187500.0, 6250});
}

VolumeAdmissionModel ParityModel(int disks) {
  VolumeAdmissionModel model(cras::MeasuredSt32550nParams(), disks, Milliseconds(500),
                             256 * kKiB, kStripeUnit);
  model.set_parity(true);
  return model;
}

TEST(DegradedAdmission, OneFailureDoublesEachSurvivorsShare) {
  VolumeAdmissionModel model = ParityModel(4);
  const std::vector<cras::StreamDemand> streams = Mpeg1Streams(8);
  const VolumeAdmissionModel::Estimate healthy = model.Evaluate(streams);
  model.SetMemberFailed(1, true);
  EXPECT_EQ(model.failed_members(), 1);
  const VolumeAdmissionModel::Estimate degraded = model.Evaluate(streams);
  ASSERT_EQ(degraded.per_disk.size(), 4u);
  // The dead member is charged nothing; every survivor's byte and request
  // share doubles (its own 1/N plus 1/N of reconstruction reads).
  EXPECT_EQ(degraded.per_disk[1].bytes, 0);
  EXPECT_EQ(degraded.per_disk[1].requests, 0);
  for (int d : {0, 2, 3}) {
    EXPECT_EQ(degraded.per_disk[static_cast<std::size_t>(d)].bytes,
              2 * healthy.per_disk[static_cast<std::size_t>(d)].bytes);
    EXPECT_EQ(degraded.per_disk[static_cast<std::size_t>(d)].requests,
              2 * healthy.per_disk[static_cast<std::size_t>(d)].requests);
  }
  // Aggregate demand is a property of the streams, not the array state.
  EXPECT_EQ(degraded.bytes, healthy.bytes);
  EXPECT_EQ(degraded.buffer_bytes, healthy.buffer_bytes);
}

TEST(DegradedAdmission, DegradedCapacityLandsBetweenHalfAndHealthy) {
  auto max_admitted = [](const VolumeAdmissionModel& model) {
    int n = 0;
    while (model.Admissible(Mpeg1Streams(n + 1), std::int64_t{1} << 30)) {
      ++n;
    }
    return n;
  };
  VolumeAdmissionModel model = ParityModel(4);
  const int healthy = max_admitted(model);
  model.SetMemberFailed(0, true);
  const int degraded = max_admitted(model);
  EXPECT_LE(degraded, healthy / 2 + 1);  // doubled byte share
  // Somewhat under half: the doubled request count also doubles the seek
  // and command overhead charged against the interval.
  EXPECT_GE(degraded, 2 * healthy / 5);
  model.SetMemberFailed(0, false);
  EXPECT_EQ(max_admitted(model), healthy);
}

TEST(DegradedAdmission, UnprotectedOrDoubleFailureAdmitsNothing) {
  // A failed member of a non-parity array loses data: nothing is admissible.
  VolumeAdmissionModel striped(cras::MeasuredSt32550nParams(), 4, Milliseconds(500),
                               256 * kKiB, kStripeUnit);
  striped.SetMemberFailed(2, true);
  EXPECT_FALSE(striped.Admissible(Mpeg1Streams(1), std::int64_t{1} << 30));
  EXPECT_TRUE(striped.Admissible({}, std::int64_t{1} << 30));

  // So does a second failure of a parity array.
  VolumeAdmissionModel parity = ParityModel(4);
  parity.SetMemberFailed(0, true);
  EXPECT_TRUE(parity.Admissible(Mpeg1Streams(1), std::int64_t{1} << 30));
  parity.SetMemberFailed(3, true);
  EXPECT_FALSE(parity.Admissible(Mpeg1Streams(1), std::int64_t{1} << 30));
  EXPECT_TRUE(parity.Admissible({}, std::int64_t{1} << 30));
}

TEST(DegradedAdmission, SlowMemberParamsMakeItTheBottleneck) {
  VolumeAdmissionModel model = ParityModel(4);
  cras::DiskParams derated = cras::MeasuredSt32550nParams();
  derated.transfer_rate /= 4.0;
  model.SetMemberParams(2, derated);
  const VolumeAdmissionModel::Estimate estimate = model.Evaluate(Mpeg1Streams(10));
  EXPECT_EQ(estimate.BottleneckDisk(), 2);
  EXPECT_GT(estimate.per_disk[2].transfer, estimate.per_disk[0].transfer);
}

}  // namespace
}  // namespace crvol
