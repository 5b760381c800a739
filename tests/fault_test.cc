// Fault subsystem: plan parsing, scripted injection against a volume, and
// the CRAS degradation controller end to end — a member dies mid-playback,
// the parity array reconstructs, and the server sheds exactly the streams
// the degraded admission model says it must.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/volume/parity_volume.h"
#include "src/volume/striped_volume.h"
#include "src/volume/volume_admission.h"

namespace crfault {
namespace {

using crbase::kMiB;
using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Plans.

TEST(FaultPlan, FluentBuildersRecordEvents) {
  FaultPlan plan;
  plan.FailStop(Seconds(2), 1)
      .Transient(Seconds(3), 0, Milliseconds(15), 4)
      .SlowDisk(Seconds(4), 2, 2.5)
      .Recover(Seconds(5), 2);
  ASSERT_EQ(plan.events().size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kFailStop);
  EXPECT_EQ(plan.events()[0].disk, 1);
  EXPECT_EQ(plan.events()[1].extra_latency, Milliseconds(15));
  EXPECT_EQ(plan.events()[1].request_count, 4);
  EXPECT_EQ(plan.events()[2].throughput_derating, 2.5);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kRecover);
}

// The bench flag form "<disk>@<t_ms>" (scale_striping --fail-disk) is a
// fail-stop of that member.
TEST(FaultPlan, ParseFailStopSpecAcceptsDiskAtMillis) {
  const auto event = FaultPlan::ParseSpec("1@2000");
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->disk, 1);
  EXPECT_EQ(event->at, Seconds(2));
  EXPECT_EQ(event->kind, FaultKind::kFailStop);
}

TEST(FaultPlan, ParseFailStopSpecRejectsMalformedSpecs) {
  for (const char* bad : {"", "3", "@2000", "1@", "1@abc", "x@5", "1@5x", "-1@5"}) {
    EXPECT_FALSE(FaultPlan::ParseSpec(bad).ok()) << "spec: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Injection against a bare volume.

TEST(FaultInjector, AppliesEachEventAtItsTimestamp) {
  crsim::Engine engine;
  crvol::VolumeOptions options;
  options.disks = 4;
  options.parity = true;
  crvol::ParityVolume volume(engine, options);

  FaultPlan plan;
  plan.SlowDisk(Milliseconds(10), 2, 2.0)
      .FailStop(Milliseconds(20), 1)
      .Recover(Milliseconds(30), 2);
  FaultInjector injector(engine, volume, plan);
  injector.Arm();
  EXPECT_TRUE(injector.armed());

  engine.RunUntil(Milliseconds(15));
  EXPECT_EQ(volume.member_state(2), crvol::MemberState::kSlow);
  EXPECT_EQ(volume.device(2).throughput_derating(), 2.0);
  EXPECT_EQ(injector.events_fired(), 1);

  engine.RunUntil(Milliseconds(25));
  EXPECT_EQ(volume.member_state(1), crvol::MemberState::kFailed);
  EXPECT_EQ(volume.failed_member(), 1);

  engine.RunUntil(Milliseconds(35));
  EXPECT_EQ(volume.member_state(2), crvol::MemberState::kHealthy);
  EXPECT_EQ(volume.device(2).throughput_derating(), 1.0);
  EXPECT_EQ(injector.events_fired(), 3);
  // Disk 1 stays fail-stopped: recovery was scripted only for disk 2.
  EXPECT_TRUE(volume.degraded());
}

TEST(FaultInjector, DestructionCancelsPendingEvents) {
  crsim::Engine engine;
  crvol::VolumeOptions options;
  options.disks = 2;
  crvol::StripedVolume volume(engine, options);
  {
    FaultPlan plan;
    plan.FailStop(Milliseconds(50), 0);
    FaultInjector injector(engine, volume, plan);
    injector.Arm();
  }
  engine.RunUntil(Milliseconds(100));
  EXPECT_FALSE(volume.degraded());
}

// ---------------------------------------------------------------------------
// End to end: the degradation controller on the full rig.

crmedia::MediaFile MakeMpeg1(crufs::Ufs& fs, const std::string& name,
                             crbase::Duration length) {
  auto file = crmedia::WriteMpeg1File(fs, name, length);
  CRAS_CHECK(file.ok()) << file.status().ToString();
  return *file;
}

struct Playback {
  cras::VolumeTestbedOptions options;
  std::unique_ptr<cras::VolumeTestbed> bed;
  std::vector<crmedia::MediaFile> files;
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;

  explicit Playback(int streams) {
    options.volume.disks = 4;
    options.volume.parity = true;
    bed = std::make_unique<cras::VolumeTestbed>(options);
    bed->StartServers();
    for (int i = 0; i < streams; ++i) {
      files.push_back(MakeMpeg1(bed->fs, "movie" + std::to_string(i), Seconds(8)));
    }
    cras::PlayerOptions player_options;
    player_options.play_length = Seconds(6);
    for (int i = 0; i < streams; ++i) {
      player_options.start_delay = Milliseconds(37) * i;
      stats.push_back(std::make_unique<cras::PlayerStats>());
      players.push_back(cras::SpawnCrasPlayer(bed->kernel, bed->cras_server,
                                              files[static_cast<std::size_t>(i)],
                                              player_options, stats.back().get()));
    }
  }

  // The degraded admission model's verdict for this rig (one member down),
  // mirroring the demand CrasServer derives at crs_open.
  int DegradedCapacity() const {
    crvol::VolumeAdmissionModel model(
        options.cras.disk_params, 4, options.cras.interval, options.cras.max_read_bytes,
        bed->volume.stripe_unit_bytes());
    model.set_parity(true);
    model.SetMemberFailed(1, true);
    cras::StreamDemand demand;
    demand.rate_bytes_per_sec = files.front().index.WorstRate(options.cras.interval);
    demand.chunk_bytes = files.front().index.max_chunk_bytes();
    int n = 0;
    while (model.Admissible(
        std::vector<cras::StreamDemand>(static_cast<std::size_t>(n + 1), demand),
        options.cras.memory_budget_bytes)) {
      ++n;
    }
    return n;
  }
};

TEST(Degradation, KeptStreamsRideOutAMidPlaybackFailure) {
  // Well under the degraded capacity: losing a member must cost nothing but
  // reconstruction I/O — no shed stream, no missed frame, no blown deadline.
  Playback rig(12);
  ASSERT_LT(12, rig.DegradedCapacity());
  FaultPlan plan;
  plan.FailStop(Seconds(2), 1);
  FaultInjector injector(rig.bed->engine(), rig.bed->volume, plan);
  injector.Arm();

  rig.bed->engine().RunFor(Seconds(12));

  EXPECT_EQ(injector.events_fired(), 1);
  EXPECT_TRUE(rig.bed->volume.degraded());
  EXPECT_EQ(rig.bed->cras_server.stats().member_changes, 1);
  EXPECT_EQ(rig.bed->cras_server.stats().streams_shed, 0);
  for (const auto& s : rig.stats) {
    ASSERT_FALSE(s->open_rejected);
    EXPECT_FALSE(s->shed);
    EXPECT_EQ(s->frames_missed, 0);
    EXPECT_GT(s->frames_played, 0);
  }
  EXPECT_EQ(rig.bed->cras_server.stats().deadline_misses, 0);
  ASSERT_EQ(rig.bed->hub.flight().dropped(), 0u);
  for (const crobs::FlightEvent& event : rig.bed->hub.flight().events()) {
    EXPECT_TRUE(event.kind != crobs::FlightEventKind::kDeadlineMiss) << "slot " << event.b;
  }
  // The failure actually bit: the survivors served reconstruction reads.
  EXPECT_GT(rig.bed->volume.stats().reconstruction_pieces, 0);
  // The dead member served nothing new after the drain; the survivors kept
  // going.
  const std::int64_t failed_sectors = rig.bed->volume.device(1).stats().sectors;
  rig.bed->engine().RunFor(Seconds(1));
  EXPECT_EQ(rig.bed->volume.device(1).stats().sectors, failed_sectors);
}

TEST(Degradation, OverloadedArrayShedsExactlyToTheDegradedCapacity) {
  // More streams than a 3-survivor array can carry: the controller must
  // shed the overload — and nothing more — and the kept streams must keep
  // every guarantee.
  constexpr int kStreams = 30;
  Playback rig(kStreams);
  const int capacity = rig.DegradedCapacity();
  ASSERT_GT(kStreams, capacity);
  FaultPlan plan;
  plan.FailStop(Seconds(2), 1);
  FaultInjector injector(rig.bed->engine(), rig.bed->volume, plan);
  injector.Arm();

  rig.bed->engine().RunFor(Seconds(14));

  const cras::ServerStats& stats = rig.bed->cras_server.stats();
  EXPECT_EQ(stats.streams_shed, kStreams - capacity);
  int shed = 0;
  for (const auto& s : rig.stats) {
    ASSERT_FALSE(s->open_rejected);
    if (s->shed) {
      ++shed;
      continue;
    }
    EXPECT_EQ(s->frames_missed, 0);
  }
  EXPECT_EQ(shed, kStreams - capacity);
  EXPECT_EQ(stats.deadline_misses, 0);

  // The shed/kept split is visible through the hub, and a "cras." prefix
  // query carries it without dragging the per-disk families along.
  const std::string json = rig.bed->hub.MetricsJson("cras.");
  EXPECT_NE(json.find("cras.streams_shed"), std::string::npos);
  EXPECT_NE(json.find("cras.streams_kept"), std::string::npos);
  EXPECT_EQ(json.find("disk.requests"), std::string::npos);
}

}  // namespace
}  // namespace crfault
