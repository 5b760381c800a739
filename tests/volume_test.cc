// Striped volume: stripe-mapping properties, per-disk admission, multi-disk
// scaling, and single-disk regression parity with the classic rig's results.

#include "src/volume/striped_volume.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/random.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/obs/ledger.h"
#include "src/volume/volume_admission.h"

namespace crvol {
namespace {

using crbase::kKiB;
using crbase::kMiB;
using crbase::Milliseconds;
using crbase::Seconds;

constexpr std::int64_t kStripeUnit = 256 * kKiB;

std::int64_t Uniform(crbase::Rng& rng, std::int64_t bound) {
  return static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(bound)));
}

VolumeOptions SmallVolume(int disks) {
  VolumeOptions options;
  options.disks = disks;
  return options;
}

// ---------------------------------------------------------------------------
// Stripe mapping.

class StripeMapping : public ::testing::TestWithParam<int> {};

TEST_P(StripeMapping, MapRoundTripsThroughToLogical) {
  crsim::Engine engine;
  StripedVolume volume(engine, SmallVolume(GetParam()));
  const int n = volume.disks();
  const std::int64_t per_disk = volume.geometry().total_sectors();
  crbase::Rng rng(20260806);
  for (int i = 0; i < 10000; ++i) {
    const crdisk::Lba logical = Uniform(rng, volume.total_sectors());
    const StripedVolume::Segment s = volume.Map(logical);
    ASSERT_GE(s.disk, 0);
    ASSERT_LT(s.disk, n);
    ASSERT_GE(s.lba, 0);
    ASSERT_LT(s.lba, per_disk);
    ASSERT_EQ(volume.ToLogical(s.disk, s.lba), logical);
  }
}

TEST_P(StripeMapping, ConsecutiveUnitsRotateRoundRobin) {
  crsim::Engine engine;
  StripedVolume volume(engine, SmallVolume(GetParam()));
  const std::int64_t unit = volume.stripe_unit_sectors();
  for (std::int64_t u = 0; u + 1 < volume.total_sectors() / unit && u < 64; ++u) {
    const StripedVolume::Segment a = volume.Map(u * unit);
    EXPECT_EQ(a.disk, static_cast<int>(u % volume.disks()));
    // Unit-aligned physical address: units land back-to-back on their disk.
    EXPECT_EQ(a.lba, (u / volume.disks()) * unit);
  }
}

TEST_P(StripeMapping, MapRangeTilesTheRangeInLogicalOrder) {
  crsim::Engine engine;
  StripedVolume volume(engine, SmallVolume(GetParam()));
  crbase::Rng rng(414243);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t sectors = 1 + Uniform(rng, 3 * volume.stripe_unit_sectors());
    const crdisk::Lba start = Uniform(rng, volume.total_sectors() - sectors);
    const std::vector<StripedVolume::Segment> segments = volume.MapRange(start, sectors);
    ASSERT_FALSE(segments.empty());
    crdisk::Lba cursor = start;
    for (const StripedVolume::Segment& s : segments) {
      ASSERT_GT(s.sectors, 0);
      // Each segment is the image of the next run of logical sectors, and is
      // physically contiguous on its disk (ToLogical is affine inside it).
      ASSERT_EQ(volume.ToLogical(s.disk, s.lba), cursor);
      ASSERT_EQ(volume.ToLogical(s.disk, s.lba + s.sectors - 1), cursor + s.sectors - 1);
      cursor += s.sectors;
    }
    ASSERT_EQ(cursor, start + sectors);
  }
}

TEST_P(StripeMapping, MaxReadSpansAtMostTwoSegments) {
  // The design invariant behind the 256 KiB stripe unit: one coalesced CRAS
  // read (<= 256 KiB) touches at most two disks, and a stripe-aligned one
  // touches exactly one.
  crsim::Engine engine;
  StripedVolume volume(engine, SmallVolume(GetParam()));
  const std::int64_t unit = volume.stripe_unit_sectors();
  crbase::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t sectors = 1 + Uniform(rng, unit);
    const crdisk::Lba start = Uniform(rng, volume.total_sectors() - sectors);
    EXPECT_LE(volume.MapRange(start, sectors).size(), 2u);
    EXPECT_EQ(volume.MapRange((start / unit) * unit, sectors).size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Disks, StripeMapping, ::testing::Values(1, 2, 4, 8));

TEST(StripeMapping, SingleDiskIsTheIdentity) {
  crsim::Engine engine;
  StripedVolume volume(engine, SmallVolume(1));
  EXPECT_EQ(volume.total_sectors(), volume.geometry().total_sectors());
  crbase::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const crdisk::Lba logical = Uniform(rng, volume.total_sectors());
    const StripedVolume::Segment s = volume.Map(logical);
    EXPECT_EQ(s.disk, 0);
    EXPECT_EQ(s.lba, logical);
  }
  // Any range maps to exactly one segment, however many stripe units long.
  const auto segments = volume.MapRange(12345, 10 * volume.stripe_unit_sectors());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments.front().lba, 12345);
}

// ---------------------------------------------------------------------------
// Per-disk admission.

std::vector<cras::StreamDemand> Mpeg1Streams(int count) {
  return std::vector<cras::StreamDemand>(
      static_cast<std::size_t>(count),
      cras::StreamDemand{crmedia::kMpeg1BytesPerSec, 6250});
}

TEST(VolumeAdmission, SingleDiskReproducesThePaperModelExactly) {
  const cras::DiskParams params = cras::MeasuredSt32550nParams();
  const cras::AdmissionModel single(params, Milliseconds(500), 256 * kKiB);
  const VolumeAdmissionModel volume(params, 1, Milliseconds(500), 256 * kKiB, kStripeUnit);
  crbase::Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<cras::StreamDemand> streams;
    const int count = static_cast<int>(Uniform(rng, 20));
    for (int i = 0; i < count; ++i) {
      streams.push_back(cras::StreamDemand{1000.0 + static_cast<double>(Uniform(rng, 400000)),
                                           Uniform(rng, 200 * 1024)});
    }
    const cras::AdmissionEstimate expected = single.Evaluate(streams);
    const VolumeAdmissionModel::Estimate got = volume.Evaluate(streams);
    ASSERT_EQ(got.per_disk.size(), 1u);
    EXPECT_EQ(got.bytes, expected.bytes);
    EXPECT_EQ(got.buffer_bytes, expected.buffer_bytes);
    EXPECT_EQ(got.per_disk[0].requests, expected.requests);
    EXPECT_EQ(got.per_disk[0].bytes, expected.bytes);
    EXPECT_EQ(got.per_disk[0].overhead, expected.overhead);
    EXPECT_EQ(got.per_disk[0].transfer, expected.transfer);
    EXPECT_EQ(got.per_disk[0].terms.command, expected.terms.command);
    EXPECT_EQ(got.per_disk[0].terms.seek, expected.terms.seek);
    EXPECT_EQ(got.per_disk[0].terms.rotation, expected.terms.rotation);
    EXPECT_EQ(got.per_disk[0].terms.other, expected.terms.other);
    EXPECT_EQ(got.WorstIoTime(), expected.io_time());
    for (const std::int64_t budget : {std::int64_t{1} * kMiB, std::int64_t{12} * kMiB}) {
      EXPECT_EQ(volume.Admissible(streams, budget), single.Admissible(streams, budget));
    }
  }
}

TEST(VolumeAdmission, EveryDiskMustMeetItsDeadline) {
  // A mixed shelf: one healthy member and one modelled with a tenth of the
  // transfer rate (a degraded disk). The set below fits two healthy disks
  // comfortably but overruns the slow member's interval, so the volume as a
  // whole must reject it — admission is per disk, not aggregate.
  cras::DiskParams fast = cras::MeasuredSt32550nParams();
  cras::DiskParams slow = fast;
  slow.transfer_rate = fast.transfer_rate / 10.0;

  const std::vector<cras::StreamDemand> streams = Mpeg1Streams(10);
  const std::int64_t budget = 64 * kMiB;

  const VolumeAdmissionModel healthy(fast, 2, Milliseconds(500), 256 * kKiB, kStripeUnit);
  EXPECT_TRUE(healthy.Admissible(streams, budget));

  const VolumeAdmissionModel degraded({fast, slow}, Milliseconds(500), 256 * kKiB,
                                      kStripeUnit);
  EXPECT_FALSE(degraded.Admissible(streams, budget));
  const VolumeAdmissionModel::Estimate estimate = degraded.Evaluate(streams);
  EXPECT_EQ(estimate.BottleneckDisk(), 1);
  EXPECT_GT(estimate.per_disk[1].io_time(), Milliseconds(500));
  EXPECT_LT(estimate.per_disk[0].io_time(), Milliseconds(500));
}

int MaxAdmitted(const VolumeAdmissionModel& model) {
  int n = 0;
  while (model.Admissible(Mpeg1Streams(n + 1), std::int64_t{1} << 30)) {
    ++n;
  }
  return n;
}

TEST(VolumeAdmission, CapacityScalesWithDisks) {
  const cras::DiskParams params = cras::MeasuredSt32550nParams();
  auto model = [&](int disks) {
    return VolumeAdmissionModel(params, disks, Milliseconds(500), 256 * kKiB, kStripeUnit);
  };
  const int n1 = MaxAdmitted(model(1));
  const int n2 = MaxAdmitted(model(2));
  const int n4 = MaxAdmitted(model(4));
  EXPECT_EQ(n1, 14);  // the paper's single-disk capacity at T = 0.5 s
  EXPECT_GE(n2, static_cast<int>(1.8 * n1));
  EXPECT_GE(n4, 3 * n1);
  // Still sublinear: the skew allowance charges each disk more than 1/N.
  EXPECT_LE(n2, 2 * n1);
  EXPECT_LE(n4, 4 * n1);
}

// ---------------------------------------------------------------------------
// Integration: the full rig over a striped volume.

crmedia::MediaFile MakeMpeg1(crufs::Ufs& fs, const std::string& name,
                             crbase::Duration length) {
  auto file = crmedia::WriteMpeg1File(fs, name, length);
  CRAS_CHECK(file.ok()) << file.status().ToString();
  return *file;
}

// Opens `count` streams, returning how many the server admitted.
int CountAdmitted(cras::VolumeTestbed& bed, int count) {
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < count; ++i) {
    files.push_back(MakeMpeg1(bed.fs, "movie" + std::to_string(i), Seconds(4)));
  }
  int accepted = 0;
  crsim::Task t = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (const auto& file : files) {
          cras::OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          if (opened.ok()) {
            ++accepted;
          }
        }
      });
  bed.engine().RunFor(Seconds(2));
  return accepted;
}

TEST(VolumeIntegration, TwoDiskVolumeAdmitsNearlyTwiceTheStreams) {
  cras::VolumeTestbed single;
  single.StartServers();
  const int n1 = CountAdmitted(single, 40);
  EXPECT_EQ(n1, 14);

  cras::VolumeTestbedOptions options;
  options.volume.disks = 2;
  cras::VolumeTestbed striped(options);
  striped.StartServers();
  const int n2 = CountAdmitted(striped, 40);
  EXPECT_GE(n2, static_cast<int>(1.8 * n1));
  EXPECT_LE(n2, 2 * n1);
}

TEST(VolumeIntegration, TwoDiskVolumeStreamsTheDoubledLoadOnDeadline) {
  // 26 concurrent MPEG-1 streams — 1.86x the single-disk capacity of 14 —
  // all meeting every frame deadline on a 2-disk volume.
  constexpr int kStreams = 26;
  cras::VolumeTestbedOptions options;
  options.volume.disks = 2;
  cras::VolumeTestbed bed(options);
  bed.StartServers();

  std::vector<crmedia::MediaFile> files;
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  for (int i = 0; i < kStreams; ++i) {
    files.push_back(MakeMpeg1(bed.fs, "movie" + std::to_string(i), Seconds(8)));
  }
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(6);
  for (int i = 0; i < kStreams; ++i) {
    player_options.start_delay = Milliseconds(37) * i;
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)],
                                            player_options, stats.back().get()));
  }
  bed.engine().RunFor(Seconds(12));
  for (const auto& s : stats) {
    ASSERT_FALSE(s->open_rejected);
    EXPECT_EQ(s->frames_missed, 0);
    // Client-side lateness stays within the jitter the buffers absorb. (At
    // 26 players the simulated CPU's client mob adds a few ms of wakeup
    // queueing on top of the single-disk tests' ~1 ms; that is client
    // contention, not retrieval lateness.)
    EXPECT_LE(s->max_delay(), Milliseconds(20));
  }
  // The server-side guarantee: every interval's fanned-out I/O landed
  // before the next boundary on both disks...
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
  ASSERT_EQ(bed.hub.flight().dropped(), 0u);
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    EXPECT_TRUE(event.kind != crobs::FlightEventKind::kDeadlineMiss) << "slot " << event.b;
  }
  // ...and no disk spent more than T on one interval's I/O.
  const crobs::BudgetLedger* ledger = bed.hub.ledger();
  ASSERT_NE(ledger, nullptr);
  int disk_rows = 0;
  for (const crobs::BudgetLedger::IntervalRow& row : ledger->rows()) {
    for (const crobs::BudgetLedger::DiskRow& disk : row.disks) {
      ++disk_rows;
      EXPECT_LE(disk.actual.total_ms(), crobs::ToMillis(options.cras.interval))
          << "slot " << row.slot << " disk " << disk.disk;
    }
  }
  EXPECT_GT(disk_rows, 0);
  // The interval scheduler actually fanned out: both disks did real-time
  // work, and neither served everything.
  const std::int64_t disk0 = bed.volume.device(0).stats().sectors;
  const std::int64_t disk1 = bed.volume.device(1).stats().sectors;
  EXPECT_GT(disk0, 0);
  EXPECT_GT(disk1, 0);
}

TEST(VolumeIntegration, SingleDiskVolumeMatchesTheClassicRig) {
  // The N = 1 regression anchor: the one-disk rig reproduces, exactly, the
  // server-visible results the classic single-disk rig (one driver, no
  // volume layer) produced for this workload.
  constexpr std::int64_t kClassicBytesRead = 6'193'152;
  constexpr std::int64_t kClassicReadRequests = 61;
  constexpr std::int64_t kClassicDeadlineMisses = 0;
  constexpr std::int64_t kClassicFramesPlayed = 726;
  auto run = [](cras::VolumeTestbed& bed) {
    bed.StartServers();
    std::vector<crmedia::MediaFile> files;
    std::vector<std::unique_ptr<cras::PlayerStats>> stats;
    std::vector<crsim::Task> players;
    for (int i = 0; i < 6; ++i) {
      files.push_back(MakeMpeg1(bed.fs, "movie" + std::to_string(i), Seconds(6)));
    }
    cras::PlayerOptions options;
    options.play_length = Seconds(4);
    for (int i = 0; i < 6; ++i) {
      options.start_delay = Milliseconds(73) * i;
      stats.push_back(std::make_unique<cras::PlayerStats>());
      players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                              files[static_cast<std::size_t>(i)],
                                              options, stats.back().get()));
    }
    bed.engine().RunFor(Seconds(10));
    std::int64_t frames = 0;
    for (const auto& s : stats) {
      frames += s->frames_played;
      EXPECT_EQ(s->frames_missed, 0);
    }
    return std::tuple(bed.cras_server.stats().bytes_read,
                      bed.cras_server.stats().read_requests,
                      bed.cras_server.stats().deadline_misses, frames);
  };
  cras::VolumeTestbed bed;  // defaults: one disk
  EXPECT_EQ(run(bed), std::tuple(kClassicBytesRead, kClassicReadRequests,
                                 kClassicDeadlineMisses, kClassicFramesPlayed));
}

}  // namespace
}  // namespace crvol
