// Robustness: failure injection (transient disk stalls), the §2.6
// multiple-servers configuration, and overlapping cross-layer faults (a
// member fail-stop landing inside a network burst-loss window).

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

TEST(FaultInjection, TransientDiskStallDegradesThenRecovers) {
  VolumeTestbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(20));
  ASSERT_TRUE(file.ok());
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(16);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);

  // Let the stream reach steady state, then stall the drive: the next 3
  // requests each take an extra 800 ms (a long recalibration).
  bed.engine().RunFor(Seconds(5));
  bed.volume.device(0).InjectTransientFault(Milliseconds(800), 3);
  bed.engine().RunFor(Seconds(17));

  EXPECT_EQ(bed.volume.device(0).faults_applied(), 3);
  // The stall must be *visible*: deadline notifications fired and some
  // frames were late or lost...
  EXPECT_GT(bed.cras_server.stats().deadline_misses, 0);
  const std::int64_t disturbed =
      stats.frames_missed +
      static_cast<std::int64_t>(std::count_if(stats.frames.begin(), stats.frames.end(),
                                              [](const FrameRecord& f) {
                                                return f.delay() > Milliseconds(10);
                                              }));
  EXPECT_GT(disturbed, 0);
  // ...but bounded: the server recovers instead of collapsing. The stall
  // window is ~2.4 s of a 16 s playback; everything outside it plays.
  EXPECT_LT(disturbed, 150);
  EXPECT_GT(stats.frames_played, 330);

  // Frames in the final 4 seconds are all clean again.
  for (const FrameRecord& f : stats.frames) {
    if (f.due_at > stats.frames.front().due_at + Seconds(12)) {
      EXPECT_LE(f.delay(), Milliseconds(5)) << "frame " << f.frame << " still late after recovery";
    }
  }
}

TEST(FaultInjection, UnfaultedRunHasNoMisses) {
  // Control run for the test above: identical except no fault.
  VolumeTestbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(20));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(16);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(22));
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
  EXPECT_EQ(stats.frames_missed, 0);
}

TEST(MultipleServers, TwoCrasServersShareOneDisk) {
  // §2.6: "allows the system to execute multiple CRAS's simultaneously."
  // Two independent servers share the one-disk volume's real-time queue.
  // Each admits against its own budget, so the combination is only safe if
  // their total load fits — here each runs well under half the disk.
  VolumeTestbed bed;
  bed.StartServers();
  CrasServer second(bed.kernel, bed.volume, bed.fs);
  second.Start();

  auto file_a = crmedia::WriteMpeg1File(bed.fs, "a", Seconds(10));
  auto file_b = crmedia::WriteMpeg1File(bed.fs, "b", Seconds(10));
  PlayerStats stats_a;
  PlayerStats stats_b;
  PlayerOptions options;
  options.play_length = Seconds(8);
  crsim::Task player_a = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file_a, options, &stats_a);
  options.start_delay = Milliseconds(137);
  crsim::Task player_b = SpawnCrasPlayer(bed.kernel, second, *file_b, options, &stats_b);
  bed.engine().RunFor(Seconds(13));

  EXPECT_FALSE(stats_a.open_rejected);
  EXPECT_FALSE(stats_b.open_rejected);
  EXPECT_EQ(stats_a.frames_missed, 0);
  EXPECT_EQ(stats_b.frames_missed, 0);
  EXPECT_LE(stats_a.max_delay(), Milliseconds(2));
  EXPECT_LE(stats_b.max_delay(), Milliseconds(2));
  EXPECT_GT(bed.cras_server.stats().bytes_read, 0);
  EXPECT_GT(second.stats().bytes_read, 0);
  // Both wired their own base memory.
  EXPECT_GE(bed.kernel.wired_bytes(), 2 * 250 * 1024);
}

TEST(MultipleServers, UncoordinatedAdmissionCanOversubscribe) {
  // The flip side the paper leaves implicit: per-server admission tests do
  // not know about each other. Two servers each admitting a near-capacity
  // load oversubscribe the disk and both degrade — a real limitation of
  // the multiple-servers configuration, demonstrated rather than hidden.
  VolumeTestbed bed;
  bed.StartServers();
  CrasServer second(bed.kernel, bed.volume, bed.fs);
  second.Start();

  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < 20; ++i) {
    files.push_back(*crmedia::WriteMpeg1File(bed.fs, "m" + std::to_string(i), Seconds(8)));
  }
  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  PlayerOptions options;
  options.play_length = Seconds(6);
  for (int i = 0; i < 20; ++i) {
    options.start_delay = Milliseconds(73) * i;
    stats.push_back(std::make_unique<PlayerStats>());
    CrasServer& server = (i % 2 == 0) ? bed.cras_server : second;
    players.push_back(SpawnCrasPlayer(bed.kernel, server, files[static_cast<std::size_t>(i)],
                                      options, stats.back().get()));
  }
  bed.engine().RunFor(Seconds(12));

  int admitted = 0;
  std::int64_t missed = 0;
  for (const auto& s : stats) {
    if (!s->open_rejected) {
      ++admitted;
      missed += s->frames_missed;
    }
  }
  // Each server alone would admit 14; together they admit 20 (10 each) and
  // the disk cannot carry it.
  EXPECT_EQ(admitted, 20);
  EXPECT_GT(missed + bed.cras_server.stats().deadline_misses + second.stats().deadline_misses,
            0)
      << "oversubscription should be observable";
}

TEST(MultipleServers, EveryServerOnTheVolumeHearsAMemberFailure) {
  // Each server subscribes its own degradation controller to the shared
  // volume, and a server's destructor unsubscribes only its own: when the
  // one disk fails, both running servers re-run admission, shed the stream
  // the dead disk can no longer carry, and stop admitting.
  VolumeTestbed bed;
  bed.StartServers();
  CrasServer second(bed.kernel, bed.volume, bed.fs);
  second.Start();
  { CrasServer transient(bed.kernel, bed.volume, bed.fs); }

  auto file_a = crmedia::WriteMpeg1File(bed.fs, "a", Seconds(10));
  auto file_b = crmedia::WriteMpeg1File(bed.fs, "b", Seconds(10));
  PlayerStats stats_a;
  PlayerStats stats_b;
  PlayerOptions options;
  options.play_length = Seconds(8);
  crsim::Task player_a = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file_a, options, &stats_a);
  options.start_delay = Milliseconds(137);
  crsim::Task player_b = SpawnCrasPlayer(bed.kernel, second, *file_b, options, &stats_b);
  bed.engine().RunFor(Seconds(2));
  ASSERT_EQ(bed.cras_server.open_sessions(), 1u);
  ASSERT_EQ(second.open_sessions(), 1u);

  bed.volume.SetMemberState(0, crvol::MemberState::kFailed);
  bool reopened = true;
  crsim::Task opener = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        co_await ctx.Sleep(Milliseconds(100));
        OpenParams params;
        params.inode = file_a->inode;
        params.index = file_a->index;
        reopened = (co_await bed.cras_server.Open(std::move(params))).ok();
      });
  bed.engine().RunFor(Seconds(1));

  for (const CrasServer* server : {&bed.cras_server, &second}) {
    EXPECT_EQ(server->stats().member_changes, 1);
    EXPECT_EQ(server->stats().streams_shed, 1);
    EXPECT_EQ(server->open_sessions(), 0u);
  }
  EXPECT_FALSE(reopened) << "a server admitted a stream onto the failed disk";
}

TEST(OverlappingFaults, FailStopDuringBurstLossServesOrShedsNeverWedges) {
  // Two layers fail at once: the wire enters a Gilbert-Elliott burst-loss
  // regime at 3 s, and while the bursts are still running a parity member
  // fail-stops at 4 s. The NAK repair path and the degraded-read
  // reconstruction path are both on the same clock; the stream must either
  // keep playing (repair + reconstruction) or be shed — never wedge, never
  // miss silently after both faults clear.
  VolumeTestbedOptions options;
  options.volume.disks = 4;
  options.volume.parity = true;
  VolumeTestbed bed(options);
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(10));

  crrt::Kernel client_host(bed.engine(), crrt::Kernel::Options{});
  crnet::Link forward(bed.engine());
  crnet::Link reverse(bed.engine());
  crnet::NpsReceiver receiver(client_host);
  crnet::NpsSender sender(bed.kernel, bed.cras_server, forward, receiver);
  receiver.ConnectReverse(reverse, sender);

  crfault::FaultPlan plan;
  plan.LinkBurstLoss(Seconds(3), /*p_enter_bad=*/0.05, /*p_exit_bad=*/0.3,
                     /*loss_bad=*/0.9)
      .FailStop(Seconds(4), 1)
      .Recover(Seconds(6), 1)
      .LinkRecover(Seconds(7));
  crfault::FaultInjector injector(bed.engine(), &bed.volume, {&forward}, plan);
  injector.AttachObs(&bed.hub);
  injector.Arm();

  cras::SessionId session = cras::kInvalidSession;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missing = 0;
  crsim::Task opener = bed.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
        (void)co_await bed.cras_server.StartStream(
            session, bed.cras_server.SuggestedInitialDelay());
      });
  bed.engine().RunFor(Milliseconds(50));
  ASSERT_NE(session, kInvalidSession);
  crsim::Task sender_task = sender.Start(session, &movie.index);
  crsim::Task player = client_host.Spawn(
      "qtclient", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        const crbase::Duration delay =
            bed.cras_server.SuggestedInitialDelay() + Milliseconds(200);
        receiver.clock().Start(delay);
        co_await ctx.Sleep(delay);
        for (const crmedia::Chunk& chunk : movie.index.chunks()) {
          while (receiver.clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (receiver.Get(chunk.timestamp).has_value()) {
            ++frames_ok;
          } else {
            ++frames_missing;
          }
        }
      });
  bed.engine().RunFor(Seconds(16));

  ASSERT_EQ(injector.events_fired(), 4);
  // The faults genuinely overlapped: the member went down while the burst
  // regime was active (3 s..7 s vs 4 s..6 s).
  EXPECT_EQ(bed.volume.member_state(1), crvol::MemberState::kHealthy)
      << "recovery landed";
  if (bed.cras_server.WasShed(session)) {
    // Admission decided the degraded volume could not carry the stream:
    // a legitimate terminal state, visible, never silent.
    EXPECT_GT(bed.cras_server.stats().streams_shed, 0);
  } else {
    // Carried through both faults: every frame accounted for, and losses
    // confined to the disturbance — the tail after recovery plays clean.
    EXPECT_EQ(frames_ok + frames_missing,
              static_cast<std::int64_t>(movie.index.count()));
    EXPECT_GT(frames_ok, static_cast<std::int64_t>(movie.index.count()) / 2);
    EXPECT_LT(frames_missing, static_cast<std::int64_t>(movie.index.count()) / 4);
  }
  // The repair machinery really ran against the burst.
  EXPECT_GT(forward.stats().wire_drops, 0);
  EXPECT_GT(receiver.stats().naks_sent, 0);
  // Both injected faults are on the record for the autopsy.
  bool saw_burst = false;
  bool saw_fail_stop = false;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    if (event.kind == crobs::FlightEventKind::kFaultInjected) {
      saw_burst |= event.detail == "link_burst_loss";
      saw_fail_stop |= event.detail == "fail_stop";
    }
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_TRUE(saw_fail_stop);
}

}  // namespace
}  // namespace cras
