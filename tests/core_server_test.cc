// CRAS server integration tests: session lifecycle, constant-rate
// retrieval, admission enforcement, dynamic QoS, and robustness.

#include "src/core/cras.h"

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace cras {
namespace {

using crbase::kMiB;
using crbase::Milliseconds;
using crbase::Seconds;

crmedia::MediaFile MakeMpeg1(VolumeTestbed& bed, const std::string& name, crbase::Duration length) {
  auto file = crmedia::WriteMpeg1File(bed.fs, name, length);
  CRAS_CHECK(file.ok()) << file.status().ToString();
  return *file;
}

// Opens and starts a stream directly (without a player), returning its id.
crsim::Task OpenAndStart(VolumeTestbed& bed, const crmedia::MediaFile& file, SessionId* out,
                         crbase::Status* status) {
  return bed.kernel.Spawn("opener", crrt::kPriorityClient,
                          [&bed, &file, out, status](crrt::ThreadContext&) -> crsim::Task {
                            OpenParams params;
                            params.inode = file.inode;
                            params.index = file.index;
                            auto opened = co_await bed.cras_server.Open(std::move(params));
                            if (!opened.ok()) {
                              *status = opened.status();
                              co_return;
                            }
                            *out = *opened;
                            *status = co_await bed.cras_server.StartStream(
                                *out, bed.cras_server.SuggestedInitialDelay());
                          });
}

TEST(CrasServer, SingleStreamPlaysWithZeroDelay) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(12));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(10);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, file, options, &stats);
  bed.engine().RunFor(Seconds(15));
  EXPECT_FALSE(stats.open_rejected);
  EXPECT_EQ(stats.frames_missed, 0);
  // 30 fps for 10 s (inclusive of frame at t=10).
  EXPECT_GE(stats.frames_played, 300);
  // Constant-rate retrieval: every frame ready by its deadline.
  EXPECT_LE(stats.max_delay(), Milliseconds(1));
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

TEST(CrasServer, SessionLifecycleAndAccounting) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(5));
  SessionId id = kInvalidSession;
  crbase::Status status = crbase::InternalError("not run");
  crsim::Task t = OpenAndStart(bed, file, &id, &status);
  bed.engine().RunFor(Seconds(3));
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(id, kInvalidSession);
  EXPECT_EQ(bed.cras_server.open_sessions(), 1u);
  // Buffer reservation: B_i = 2*(T*R + C) = 2*(0.5*187500 + 6250) = 200000
  // (frame timestamps are boundary-exact, so a 0.5 s window holds exactly
  // 15 frame starts and the derived worst rate equals the nominal rate).
  EXPECT_EQ(bed.cras_server.buffer_bytes_reserved(), 200000);
  // Wired: 250 KB server + buffers.
  EXPECT_EQ(bed.kernel.wired_bytes(), 250 * 1024 + 200000);

  crbase::Status close_status;
  crsim::Task closer = bed.kernel.Spawn(
      "closer", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        close_status = co_await bed.cras_server.Close(id);
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_TRUE(close_status.ok());
  EXPECT_EQ(bed.cras_server.open_sessions(), 0u);
  EXPECT_EQ(bed.cras_server.buffer_bytes_reserved(), 0);
  EXPECT_EQ(bed.kernel.wired_bytes(), 250 * 1024);
}

TEST(CrasServer, AdmissionRejectsFifteenthMpeg1Stream) {
  VolumeTestbed bed;
  bed.StartServers();
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < 16; ++i) {
    files.push_back(MakeMpeg1(bed, "movie" + std::to_string(i), Seconds(4)));
  }
  int accepted = 0;
  int rejected = 0;
  crsim::Task t = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (const auto& file : files) {
          OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          if (opened.ok()) {
            ++accepted;
          } else {
            EXPECT_EQ(opened.status().code(), crbase::StatusCode::kResourceExhausted);
            ++rejected;
          }
        }
      });
  bed.engine().RunFor(Seconds(1));
  // T=0.5 s admits 14 MPEG1 streams (see core_admission_test).
  EXPECT_EQ(accepted, 14);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(bed.cras_server.stats().sessions_rejected, 2);
}

TEST(CrasServer, FourteenConcurrentStreamsAllMeetDeadlines) {
  VolumeTestbed bed;
  bed.StartServers();
  std::vector<crmedia::MediaFile> files;
  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  for (int i = 0; i < 14; ++i) {
    files.push_back(MakeMpeg1(bed, "movie" + std::to_string(i), Seconds(8)));
  }
  PlayerOptions options;
  options.play_length = Seconds(6);
  for (int i = 0; i < 14; ++i) {
    // Staggered starts: lock-step clients would contend for the CPU at
    // every frame boundary, which measures the client mob, not the server.
    options.start_delay = Milliseconds(73) * i;
    stats.push_back(std::make_unique<PlayerStats>());
    players.push_back(
        SpawnCrasPlayer(bed.kernel, bed.cras_server, files[static_cast<std::size_t>(i)],
                        options, stats.back().get()));
  }
  bed.engine().RunFor(Seconds(12));
  for (const auto& s : stats) {
    EXPECT_FALSE(s->open_rejected);
    EXPECT_EQ(s->frames_missed, 0);
    EXPECT_LE(s->max_delay(), Milliseconds(2));
  }
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

TEST(CrasServer, StopPausesPrefetching) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(30));
  SessionId id = kInvalidSession;
  crbase::Status status;
  crsim::Task t = OpenAndStart(bed, file, &id, &status);
  bed.engine().RunFor(Seconds(2));
  ASSERT_TRUE(status.ok());

  crsim::Task stopper = bed.kernel.Spawn(
      "stopper", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        (void)co_await bed.cras_server.StopStream(id);
      });
  bed.engine().RunFor(Seconds(1));
  const std::int64_t bytes_after_stop = bed.cras_server.stats().bytes_read;
  bed.engine().RunFor(Seconds(5));
  // No new prefetches while stopped.
  EXPECT_EQ(bed.cras_server.stats().bytes_read, bytes_after_stop);

  // The logical clock froze too.
  const crbase::Time frozen = bed.cras_server.LogicalNow(id);
  bed.engine().RunFor(Seconds(2));
  EXPECT_EQ(bed.cras_server.LogicalNow(id), frozen);
}

TEST(CrasServer, SeekRepositionsStream) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(30));
  bool seek_worked = false;
  crsim::Task t = bed.kernel.Spawn(
      "seeker", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = file.inode;
        params.index = file.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        const SessionId id = *opened;
        // Seek to 20 s *before* starting, then start: prefetch begins there.
        (void)co_await bed.cras_server.Seek(id, Seconds(20));
        (void)co_await bed.cras_server.StartStream(id,
                                                   bed.cras_server.SuggestedInitialDelay());
        // Logical clock reads 20s - initial_delay and advances from there.
        co_await ctx.Sleep(bed.cras_server.SuggestedInitialDelay() + Milliseconds(200));
        std::optional<BufferedChunk> chunk =
            bed.cras_server.Get(id, bed.cras_server.LogicalNow(id));
        seek_worked = chunk.has_value() && chunk->timestamp >= Seconds(20);
      });
  bed.engine().RunFor(Seconds(5));
  EXPECT_TRUE(seek_worked);
}

TEST(CrasServer, DynamicQosClientAtThirdRateSkipsFramesWithoutFeedback) {
  // §2.4's example: a 30 fps stream consumed at 10 fps. CRAS retrieves all
  // frames; the client fetches every third; skipped frames age out; no
  // overflow and no server interaction about the rate change.
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(12));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(9);
  options.frame_step = 3;
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, file, options, &stats);

  SessionId probe = kInvalidSession;
  // Snoop the session id via the server's table (single session).
  bed.engine().RunFor(Seconds(2));
  ASSERT_EQ(bed.cras_server.open_sessions(), 1u);
  (void)probe;
  bed.engine().RunFor(Seconds(12));

  EXPECT_EQ(stats.frames_missed, 0);
  EXPECT_LE(stats.max_delay(), Milliseconds(1));
  // Played one third of the frames in 9 s: ~90 of ~270.
  EXPECT_NEAR(static_cast<double>(stats.frames_played), 90.0, 3.0);
  // The server still retrieved everything (constant-rate retrieval is
  // independent of consumption): published ~270+ chunks.
  EXPECT_GT(bed.cras_server.stats().bytes_read, 250 * 6250);
}

TEST(CrasServer, RejectsOpenWithBadIndex) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(2));
  crbase::Status got;
  crsim::Task t = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        OpenParams params;
        params.inode = file.inode;  // index missing
        auto opened = co_await bed.cras_server.Open(std::move(params));
        got = opened.status();
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_EQ(got.code(), crbase::StatusCode::kInvalidArgument);
}

TEST(CrasServer, ControlOpsOnUnknownSessionFail) {
  VolumeTestbed bed;
  bed.StartServers();
  crbase::Status start_st;
  crbase::Status stop_st;
  crbase::Status seek_st;
  crbase::Status close_st;
  crsim::Task t = bed.kernel.Spawn(
      "ops", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        start_st = co_await bed.cras_server.StartStream(99, 0);
        stop_st = co_await bed.cras_server.StopStream(99);
        seek_st = co_await bed.cras_server.Seek(99, 0);
        close_st = co_await bed.cras_server.Close(99);
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_EQ(start_st.code(), crbase::StatusCode::kNotFound);
  EXPECT_EQ(stop_st.code(), crbase::StatusCode::kNotFound);
  EXPECT_EQ(seek_st.code(), crbase::StatusCode::kNotFound);
  EXPECT_EQ(close_st.code(), crbase::StatusCode::kNotFound);
}

TEST(CrasServer, GetBeforeStartMisses) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(2));
  std::optional<BufferedChunk> got;
  crsim::Task t = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = file.inode;
        params.index = file.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        co_await ctx.Sleep(Seconds(2));  // no crs_start: nothing prefetched
        got = bed.cras_server.Get(*opened, 0);
      });
  bed.engine().RunFor(Seconds(3));
  EXPECT_FALSE(got.has_value());
}

TEST(CrasServer, LyingClientDegradesOnlyItself) {
  // A client declares a tenth of its true rate. Admission passes, but its
  // per-interval demand exceeds the declared reservation, so the shared
  // buffer (sized from the declaration) thrashes: the stream cannot play
  // cleanly. The server keeps running and other invariants hold.
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(8));
  PlayerStats honest;
  crmedia::MediaFile file2 = MakeMpeg1(bed, "movie2", Seconds(8));
  PlayerStats liar;
  PlayerOptions options;
  options.play_length = Seconds(6);

  // The liar declares 18750 B/s for a 187500 B/s stream.
  crsim::Task liar_task = bed.kernel.Spawn(
      "liar", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = file2.inode;
        params.index = file2.index;
        params.declared_rate = 18750.0;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        (void)co_await bed.cras_server.StartStream(*opened,
                                                   bed.cras_server.SuggestedInitialDelay());
        co_await ctx.Sleep(Seconds(6));
        liar.bytes_consumed = 0;  // measured via buffer stats below
      });
  crsim::Task honest_task =
      SpawnCrasPlayer(bed.kernel, bed.cras_server, file, options, &honest);
  bed.engine().RunFor(Seconds(12));

  // The honest stream is unaffected.
  EXPECT_EQ(honest.frames_missed, 0);
  EXPECT_LE(honest.max_delay(), Milliseconds(1));
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

TEST(CrasServer, FastForwardDoublesRetrievalRate) {
  // §2.2: 60 fps playback of a 30 fps stream retrieves all frames at twice
  // the rate; admission charges 2*R.
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(10));
  SessionId id = kInvalidSession;
  crsim::Task t = bed.kernel.Spawn(
      "ff", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = file.inode;
        params.index = file.index;
        params.rate_factor = 2.0;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        id = *opened;
        (void)co_await bed.cras_server.StartStream(id,
                                                   bed.cras_server.SuggestedInitialDelay());
        co_await ctx.Sleep(Seconds(4));
      });
  bed.engine().RunFor(Seconds(5));
  // Double-rate reservation: B_i = 2*(0.5*375000 + 6250) = 387500.
  EXPECT_EQ(bed.cras_server.buffer_bytes_reserved(), 387500);
  // ~4 s of wall time at 2x consumed ~8 s of stream (~1.5 MB read).
  EXPECT_GT(bed.cras_server.stats().bytes_read, static_cast<std::int64_t>(5.5 * 187500));
}

TEST(CrasServer, ShutdownStopsThreads) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::MediaFile file = MakeMpeg1(bed, "movie", Seconds(4));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(2);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, file, options, &stats);
  bed.engine().RunFor(Seconds(6));
  bed.cras_server.SignalShutdown();
  bed.engine().RunFor(Seconds(2));
  const std::int64_t bytes = bed.cras_server.stats().bytes_read;
  bed.engine().RunFor(Seconds(5));
  EXPECT_EQ(bed.cras_server.stats().bytes_read, bytes);  // scheduler is down
}

}  // namespace
}  // namespace cras
