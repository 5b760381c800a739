// Frame tracing: the telescoping stage decomposition and its conservation
// property (buckets sum exactly to end-to-end time), the bounded per-session
// ring, the SLO watchdog's burn-rate windows, and end-to-end attribution
// through the real server — disk path, cache path, and a lossy NPS link
// whose NAK machinery gives up on frames.

#include "src/obs/frame_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"

namespace crobs {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Decompose: the telescoping decomposition of a single record.
// ---------------------------------------------------------------------------

TEST(Decompose, FullPathBucketsSumToEndToEnd) {
  FrameRecord record;
  // Every stage stamped, 10 ns apart: each delta folds into its own bucket,
  // except kPublished and kSent which share kBufferWait.
  for (int i = 0; i < kFrameStageCount; ++i) {
    record.stage[i] = 10 * i;
  }
  const FrameDecomposition d = Decompose(record);
  EXPECT_TRUE(d.monotone);
  EXPECT_EQ(d.end_to_end_ns, 70);
  EXPECT_EQ(d.unattributed_ns, 0);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kDiskQueue)], 10);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kDiskService)], 10);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kBufferWait)], 20);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kWire)], 10);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kRepair)], 10);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kPlayoutSlack)], 10);
  crbase::Duration sum = 0;
  for (const crbase::Duration b : d.bucket_ns) {
    sum += b;
  }
  EXPECT_EQ(sum, d.end_to_end_ns);
}

TEST(Decompose, SkippedStagesAttributeZeroTime) {
  // A cache hit: no disk service, no wire — only scheduled, published,
  // playout. The unstamped stages must contribute exactly nothing.
  FrameRecord record;
  record.stage[static_cast<int>(FrameStage::kScheduled)] = 100;
  record.stage[static_cast<int>(FrameStage::kPublished)] = 150;
  record.stage[static_cast<int>(FrameStage::kPlayout)] = 250;
  const FrameDecomposition d = Decompose(record);
  EXPECT_TRUE(d.monotone);
  EXPECT_EQ(d.end_to_end_ns, 150);
  EXPECT_EQ(d.unattributed_ns, 0);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kBufferWait)], 50);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kPlayoutSlack)], 100);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kDiskQueue)], 0);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kDiskService)], 0);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kWire)], 0);
  EXPECT_EQ(d.bucket_ns[static_cast<int>(StageBucket::kRepair)], 0);
}

TEST(Decompose, BackwardsStampSequenceIsNotMonotone) {
  FrameRecord record;
  record.stage[static_cast<int>(FrameStage::kScheduled)] = 100;
  record.stage[static_cast<int>(FrameStage::kDiskStart)] = 40;  // runs backwards
  const FrameDecomposition d = Decompose(record);
  EXPECT_FALSE(d.monotone);
}

// ---------------------------------------------------------------------------
// FrameTracer: registration, ring eviction, stamp accounting.
// ---------------------------------------------------------------------------

TEST(FrameTracer, DisabledTracerRegistersNothing) {
  crsim::Engine engine;
  Hub hub(engine);  // frames disabled by default
  EXPECT_FALSE(hub.frames().enabled());
  EXPECT_EQ(hub.frames().Register(1, "s1"), nullptr);
  EXPECT_EQ(hub.frames().stamps(), 0u);
}

TEST(FrameTracer, RingCollisionEvictsUnresolvedRecord) {
  crsim::Engine engine;
  Hub::Options options;
  options.frames.enabled = true;
  options.frames.ring_capacity = 8;
  Hub hub(engine, options);
  SessionTrace* trace = hub.frames().Register(1, "s1");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(hub.frames().Register(1, "s1"), trace) << "find-or-create";

  trace->Stamp(0, FrameStage::kScheduled);  // never resolved
  trace->Stamp(8, FrameStage::kScheduled);  // same slot: evicts chunk 0
  EXPECT_EQ(hub.frames().Totals().frames_evicted, 1);
  EXPECT_EQ(trace->Find(0), nullptr);
  ASSERT_NE(trace->Find(8), nullptr);

  // A resolved record overwritten in place is not an eviction.
  trace->Deliver(8);
  trace->Stamp(16, FrameStage::kScheduled);
  EXPECT_EQ(hub.frames().Totals().frames_evicted, 1);
  EXPECT_EQ(hub.frames().Totals().frames_delivered, 1);
  EXPECT_GE(hub.frames().stamps(), 3u);
}

TEST(FrameTracer, FirstResolutionWins) {
  crsim::Engine engine;
  Hub::Options options;
  options.frames.enabled = true;
  Hub hub(engine, options);
  SessionTrace* trace = hub.frames().Register(7, "s7");
  ASSERT_NE(trace, nullptr);
  trace->Stamp(3, FrameStage::kPublished);
  trace->Deliver(3);
  trace->Miss(3, FrameStage::kPlayout);  // too late: already delivered
  trace->Deliver(3);                     // double delivery: no double count
  const StageAttribution& totals = hub.frames().Totals();
  EXPECT_EQ(totals.frames_delivered, 1);
  EXPECT_EQ(totals.frames_missed, 0);
  EXPECT_EQ(totals.unattributed_ns, 0);
}

// ---------------------------------------------------------------------------
// SloMonitor: burn-rate windows, slo_burn events, fast-burn flight dumps,
// and the erasure of idle session windows.
// ---------------------------------------------------------------------------

TEST(SloMonitor, SustainedMissesBurnTheBudgetAndFreezeADump) {
  crsim::Engine engine;
  Hub::Options options;
  options.frames.enabled = true;
  options.slo.enabled = true;
  Hub hub(engine, options);

  const crbase::Duration buckets[kStageBucketCount] = {0, 0, 0, 5 * 1000 * 1000, 0, 0};
  engine.ScheduleAt(Milliseconds(500), [&] {
    for (int i = 0; i < 40; ++i) {
      hub.slo().OnFrameResolved(/*session=*/1, /*missed=*/true, buckets);
    }
  });
  // The next resolution lands in a later bucket: the rotation evaluates the
  // 100%-miss window against the 1% budget — burn 100x, far past kFastBurn.
  engine.ScheduleAt(Milliseconds(1500), [&] {
    hub.slo().OnFrameResolved(1, false, buckets);
  });
  engine.RunUntil(Seconds(2));

  EXPECT_GT(hub.slo().burn_events(), 0);
  EXPECT_GE(hub.slo().fast_burns(), 1);
  EXPECT_FALSE(hub.flight().dumps().empty()) << "fast burn must freeze a dump";
  bool saw_burn_event = false;
  for (const FlightEvent& event : hub.flight().events()) {
    saw_burn_event |= event.kind == FlightEventKind::kSloBurn;
  }
  EXPECT_TRUE(saw_burn_event);
  // The dominant stage the window accumulated is the wire bucket.
  EXPECT_EQ(hub.slo().DominantBucket(), StageBucket::kWire);
  const std::string state = hub.slo().StateJson();
  EXPECT_NE(state.find("\"burn_events\""), std::string::npos);
  EXPECT_NE(state.find("\"dominant_stage\": \"wire\""), std::string::npos);
  // Frame misses are the one budget: no latency field is reported.
  EXPECT_EQ(state.find("latency"), std::string::npos) << state;
}

TEST(SloMonitor, CleanTrafficBurnsNothing) {
  crsim::Engine engine;
  Hub::Options options;
  options.frames.enabled = true;
  options.slo.enabled = true;
  Hub hub(engine, options);
  const crbase::Duration buckets[kStageBucketCount] = {};
  for (crbase::Time at : {Milliseconds(200), Milliseconds(1200), Milliseconds(2200)}) {
    engine.ScheduleAt(at, [&] {
      for (int i = 0; i < 20; ++i) {
        hub.slo().OnFrameResolved(1, false, buckets);
      }
    });
  }
  engine.RunUntil(Seconds(3));
  EXPECT_EQ(hub.slo().burn_events(), 0);
  EXPECT_EQ(hub.slo().fast_burns(), 0);
  EXPECT_EQ(hub.slo().WindowMisses(), 0);
  EXPECT_GT(hub.slo().WindowFrames(), 0);
}

TEST(SloMonitor, IdleSessionWindowIsErasedOneWindowLater) {
  crsim::Engine engine;
  Hub::Options options;
  options.frames.enabled = true;
  options.slo.enabled = true;
  Hub hub(engine, options);
  const crbase::Duration buckets[kStageBucketCount] = {};
  // Session 1 resolves frames only in the first bucket; session 2 resolves
  // one frame a second until 11.6 s, then a third session opens after an
  // idle gap longer than the window.
  engine.ScheduleAt(Milliseconds(500), [&] {
    for (int i = 0; i < 10; ++i) {
      hub.slo().OnFrameResolved(1, false, buckets);
    }
  });
  for (int second = 0; second < 12; ++second) {
    engine.ScheduleAt(Milliseconds(600) + Seconds(second),
                      [&] { hub.slo().OnFrameResolved(2, false, buckets); });
  }
  engine.ScheduleAt(Seconds(30), [&] { hub.slo().OnFrameResolved(3, false, buckets); });
  std::string before, after, resumed;
  engine.ScheduleAt(Milliseconds(9700), [&] { before = hub.slo().StateJson(); });
  engine.ScheduleAt(Milliseconds(10700), [&] { after = hub.slo().StateJson(); });
  engine.ScheduleAt(Milliseconds(30100), [&] { resumed = hub.slo().StateJson(); });
  engine.RunUntil(Seconds(31));

  // Session 1's bucket is still in the 10 s window at 9.7 s and rotated out
  // by 10.7 s; the session still resolving frames keeps its window.
  EXPECT_NE(before.find("{\"id\": 1,"), std::string::npos) << before;
  EXPECT_EQ(after.find("{\"id\": 1,"), std::string::npos) << after;
  EXPECT_NE(after.find("{\"id\": 2,"), std::string::npos) << after;
  // The idle jump clears every window; only the new session is listed.
  EXPECT_EQ(resumed.find("{\"id\": 2,"), std::string::npos) << resumed;
  EXPECT_NE(resumed.find("{\"id\": 3,"), std::string::npos) << resumed;
}

// ---------------------------------------------------------------------------
// Integration: the real server, disk path. Every frame a player consumes
// decomposes with zero unattributed time.
// ---------------------------------------------------------------------------

TEST(FrameTraceIntegration, PlayerRunConservesAttribution) {
  cras::VolumeTestbedOptions options;
  options.obs.frames.enabled = true;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(8));
  cras::PlayerStats stats;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(6);
  crsim::Task player =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, file, player_options, &stats);
  bed.engine().RunFor(Seconds(12));

  ASSERT_GT(stats.frames_played, 0);
  const StageAttribution& totals = bed.hub.frames().Totals();
  EXPECT_EQ(totals.frames_delivered, stats.frames_played);
  EXPECT_EQ(totals.conservation_violations, 0);
  EXPECT_EQ(totals.unattributed_ns, 0);
  EXPECT_GT(totals.end_to_end_ns, 0);
  // The local disk path never touches the wire: all time sits in the disk,
  // buffer, and playout buckets.
  EXPECT_EQ(totals.bucket_ns[static_cast<int>(StageBucket::kWire)], 0);
  EXPECT_EQ(totals.bucket_ns[static_cast<int>(StageBucket::kRepair)], 0);
  EXPECT_GT(totals.bucket_ns[static_cast<int>(StageBucket::kPlayoutSlack)], 0);
  ASSERT_EQ(bed.hub.frames().Sessions().size(), 1u);
  EXPECT_EQ(bed.hub.frames().Sessions()[0]->totals().frames_delivered,
            stats.frames_played);
}

// A healthy run burns no SLO budget. Most of a frame's end-to-end time is
// playout slack and the wait for its interval boundary, both by design, so
// a run that misses no frame must raise no slo_burn event and freeze no
// dump, however long its frames take end to end.
TEST(FrameTraceIntegration, HealthyPlaybackBurnsNoSloBudget) {
  cras::VolumeTestbedOptions options;
  options.obs.frames.enabled = true;
  options.obs.slo.enabled = true;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(14));
  cras::PlayerStats stats;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(12);
  crsim::Task player =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, file, player_options, &stats);
  bed.engine().RunFor(Seconds(16));

  ASSERT_GT(stats.frames_played, SloMonitor::kMinFrames);
  ASSERT_EQ(stats.frames_missed, 0);
  EXPECT_GT(bed.hub.frames().Totals().MeanEndToEndMs(), 500.0);
  EXPECT_EQ(bed.hub.slo().burn_events(), 0);
  const std::deque<FlightEvent>& events = bed.hub.flight().events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const FlightEvent& e) { return e.kind == FlightEventKind::kSloBurn; }),
            0);
  EXPECT_TRUE(bed.hub.flight().dumps().empty());
}

// ---------------------------------------------------------------------------
// Integration: cache path. A follower served from memory still decomposes
// with zero unattributed time, and its records show no disk read.
// ---------------------------------------------------------------------------

TEST(FrameTraceIntegration, CacheHitFramesConserveAttribution) {
  cras::VolumeTestbedOptions options;
  options.obs.frames.enabled = true;
  options.cras.cache.enabled = true;
  options.cras.cache.prefix_length = Seconds(6);
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(16));
  cras::PlayerStats a_stats, b_stats;
  cras::PlayerOptions a_options;
  a_options.play_length = Seconds(12);
  cras::PlayerOptions b_options;
  b_options.start_delay = Seconds(4);
  b_options.play_length = Seconds(8);
  crsim::Task a = cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, file, a_options,
                                        &a_stats);
  crsim::Task b = cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, file, b_options,
                                        &b_stats);
  bed.engine().RunFor(Seconds(20));

  ASSERT_GT(a_stats.frames_played, 0);
  ASSERT_GT(b_stats.frames_played, 0);
  const StageAttribution& totals = bed.hub.frames().Totals();
  EXPECT_EQ(totals.conservation_violations, 0);
  EXPECT_EQ(totals.unattributed_ns, 0);
  EXPECT_EQ(totals.frames_delivered, a_stats.frames_played + b_stats.frames_played);

  // The premise holds (the follower actually hit the cache), and at least
  // one surviving delivered record was scheduled but never read from disk.
  const crobs::RegistrySnapshot snapshot = bed.hub.metrics().Snapshot();
  const crobs::SeriesSnapshot* hits =
      snapshot.Find("cache.hit_chunks", {{"kind", "interval"}});
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->counter, 0);
  std::int64_t cache_served_frames = 0;
  for (const SessionTrace* session : bed.hub.frames().Sessions()) {
    for (std::int64_t chunk = 0; chunk < 1024; ++chunk) {
      const FrameRecord* record = session->Find(chunk);
      if (record != nullptr && record->outcome == FrameOutcome::kDelivered &&
          record->stage[static_cast<int>(FrameStage::kScheduled)] >= 0 &&
          record->stage[static_cast<int>(FrameStage::kDiskStart)] < 0) {
        ++cache_served_frames;
      }
    }
  }
  EXPECT_GT(cache_served_frames, 0);
}

// ---------------------------------------------------------------------------
// Integration: lossy NPS link. Frames the NAK machinery abandons resolve as
// misses that still decompose with zero unattributed time.
// ---------------------------------------------------------------------------

TEST(FrameTraceIntegration, NakGiveUpFramesConserveAttribution) {
  cras::VolumeTestbedOptions bed_options;
  bed_options.obs.frames.enabled = true;
  cras::VolumeTestbed bed(bed_options);
  crrt::Kernel client_host(bed.engine(), crrt::Kernel::Options{});
  crnet::Link::Options forward_options;
  forward_options.impairments.loss_probability = 0.3;  // repair often futile
  crnet::Link forward(bed.engine(), forward_options);
  crnet::Link reverse(bed.engine());
  crnet::NpsReceiver receiver(client_host);
  crnet::NpsSender sender(bed.kernel, bed.cras_server, forward, receiver);
  receiver.ConnectReverse(reverse, sender);
  sender.AttachObs(&bed.hub, "nps");
  receiver.AttachObs(&bed.hub, "nps");
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(10));

  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = bed.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
        (void)co_await bed.cras_server.StartStream(
            session, bed.cras_server.SuggestedInitialDelay());
      });
  bed.engine().RunFor(Milliseconds(50));
  ASSERT_NE(session, cras::kInvalidSession);
  crsim::Task sender_task = sender.Start(session, &movie.index);

  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
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
            ++frames_missed;
          }
        }
      });
  bed.engine().RunFor(Seconds(10) + Seconds(8));

  // 30% loss defeats some repairs: the receiver abandoned chunks, and every
  // abandoned frame resolved as a miss whose buckets still sum exactly.
  ASSERT_GT(receiver.stats().chunks_abandoned, 0);
  ASSERT_GT(frames_missed, 0);
  const StageAttribution& totals = bed.hub.frames().Totals();
  // Total resolution: no frame may linger in-flight forever — even a chunk
  // whose every fragment was wire-lost during a sender stall resolves
  // through the sender's durable send log.
  EXPECT_EQ(totals.frames_delivered + totals.frames_missed,
            static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(totals.frames_delivered, frames_ok);
  EXPECT_EQ(totals.frames_missed, frames_missed);
  EXPECT_GT(totals.frames_missed, 0);
  EXPECT_EQ(totals.conservation_violations, 0);
  EXPECT_EQ(totals.unattributed_ns, 0);
  std::int64_t missed_total = 0;
  for (const std::int64_t at : totals.missed_at) {
    missed_total += at;
  }
  EXPECT_EQ(missed_total, totals.frames_missed);
  EXPECT_GT(totals.missed_at[static_cast<int>(FrameStage::kArrived)] +
                totals.missed_at[static_cast<int>(FrameStage::kCompleted)],
            0)
      << "give-ups must record the stage the frame provably reached";
  bool saw_give_up = false;
  for (const FlightEvent& event : bed.hub.flight().events()) {
    saw_give_up |= event.kind == FlightEventKind::kNakGiveUp;
  }
  EXPECT_TRUE(saw_give_up);
}

}  // namespace
}  // namespace crobs
