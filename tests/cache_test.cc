// Stream buffer cache: interval + prefix caching, cache-aware admission,
// and the fallback paths (predecessor close / reap / seek) that demote a
// follower to disk service. The degradation invariant under test throughout:
// a stream whose cache feed dies is either re-admitted on the fallback
// reserve or shed — it never silently misses deadlines.

#include <gtest/gtest.h>

#include <vector>

#include "src/base/random.h"
#include "src/cache/stream_cache.h"
#include "src/core/admission_controller.h"
#include "src/core/cras.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/rtmach/kernel.h"
#include "src/volume/volume_admission.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

VolumeTestbedOptions CachedRigOptions() {
  VolumeTestbedOptions options;
  options.cras.cache.enabled = true;
  // A short prefix so a two-player run exercises both hit kinds: chunks
  // before 6 s ride the pinned prefix, later ones the interval pool.
  options.cras.cache.prefix_length = Seconds(6);
  return options;
}

// ---------------------------------------------------------------------------
// Unit: popularity tracking and prefix pinning.

TEST(StreamCache, PopularityPinsHotTitlesAndEvictsCold) {
  VolumeTestbed bed;  // only used to author chunk indexes
  const auto a = *crmedia::WriteMpeg1File(bed.fs, "a", Seconds(30));
  const auto b = *crmedia::WriteMpeg1File(bed.fs, "b", Seconds(30));

  crcache::CacheOptions options;
  options.enabled = true;
  options.prefix_length = Seconds(2);
  options.popularity_halflife = Seconds(10);
  // Room for one ~375 KB MPEG1 prefix, not two: pinning b must evict a.
  options.prefix_pool_bytes = 512 * crbase::kKiB;
  crcache::StreamCache cache(options);

  cache.NoteOpen(a.inode, a.index, 0);
  EXPECT_FALSE(cache.prefix_pinned(a.inode)) << "one open is below pin_min_score";
  cache.NoteOpen(a.inode, a.index, Milliseconds(100));
  EXPECT_TRUE(cache.prefix_pinned(a.inode));
  EXPECT_EQ(cache.pinned_titles(), 1);
  EXPECT_GT(cache.prefix_pool_used(), 0);

  // EWMA decay: two half-lives later the score is a quarter of ~2.
  const double decayed = cache.popularity(a.inode, Milliseconds(100) + Seconds(20));
  EXPECT_GT(decayed, 0.4);
  EXPECT_LT(decayed, 0.6);

  // A hotter title arrives; the pool only holds one prefix, and `a` has no
  // registered readers inside its prefix, so it is evicted.
  const crbase::Time later = Milliseconds(100) + Seconds(20);
  cache.NoteOpen(b.inode, b.index, later);
  cache.NoteOpen(b.inode, b.index, later + Milliseconds(10));
  cache.NoteOpen(b.inode, b.index, later + Milliseconds(20));
  EXPECT_TRUE(cache.prefix_pinned(b.inode));
  EXPECT_FALSE(cache.prefix_pinned(a.inode));
  EXPECT_EQ(cache.pinned_titles(), 1);
  EXPECT_GE(cache.counters().titles_unpinned, 1);
}

// ---------------------------------------------------------------------------
// Unit: the cache-aware admission estimate.

TEST(CachedAdmission, ChargesDiskStreamsPlusOneFallbackReserve) {
  const DiskParams params;
  crvol::VolumeAdmissionModel model(params, /*disks=*/1, Milliseconds(500),
                                    256 * crbase::kKiB, 256 * crbase::kKiB);
  StreamDemand d;
  d.rate_bytes_per_sec = 187500;  // MPEG1
  d.chunk_bytes = 64 * crbase::kKiB;

  const auto base2 = model.Evaluate({d, d});
  const auto base4 = model.Evaluate({d, d, d, d});

  // One disk-served stream plus three cache-served: disk time is charged for
  // the disk stream plus a single reserve window, buffers for all four.
  crrt::Kernel kernel;
  AdmissionController mixed(kernel, model, 64 * crbase::kMiB);
  for (SessionId id = 1; id <= 4; ++id) {
    mixed.Commit(id, d, /*memory_only=*/id > 1);
  }
  const auto cached = mixed.Evaluate();
  ASSERT_EQ(cached.per_disk.size(), 1u);
  EXPECT_EQ(cached.per_disk[0].requests, base2.per_disk[0].requests);
  EXPECT_EQ(cached.per_disk[0].bytes, base2.per_disk[0].bytes);
  EXPECT_EQ(cached.buffer_bytes, base4.buffer_bytes);

  // With no cache-served member the estimate and the verdict equal the
  // plain per-disk test, field for field, on any array: the server runs
  // only the cache-aware test, so rigs without a cache cannot drift. Each
  // set is committed as far as the memory budget allows; the next stream is
  // tried against it.
  crbase::Rng rng(77);
  const auto expect_same = [](const crvol::VolumeAdmissionModel::Estimate& got,
                              const crvol::VolumeAdmissionModel::Estimate& want) {
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.buffer_bytes, want.buffer_bytes);
    ASSERT_EQ(got.per_disk.size(), want.per_disk.size());
    for (std::size_t k = 0; k < got.per_disk.size(); ++k) {
      const auto& g = got.per_disk[k];
      const auto& w = want.per_disk[k];
      EXPECT_EQ(g.requests, w.requests) << "disk " << k;
      EXPECT_EQ(g.bytes, w.bytes) << "disk " << k;
      EXPECT_EQ(g.overhead, w.overhead) << "disk " << k;
      EXPECT_EQ(g.transfer, w.transfer) << "disk " << k;
      EXPECT_EQ(g.terms.command, w.terms.command) << "disk " << k;
      EXPECT_EQ(g.terms.seek, w.terms.seek) << "disk " << k;
      EXPECT_EQ(g.terms.rotation, w.terms.rotation) << "disk " << k;
      EXPECT_EQ(g.terms.other, w.terms.other) << "disk " << k;
    }
  };
  auto expect_plain_equivalence = [&](const crvol::VolumeAdmissionModel& array) {
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<StreamDemand> streams;
      const int count = static_cast<int>(rng.NextBelow(40));
      for (int i = 0; i < count; ++i) {
        streams.push_back({1000.0 + static_cast<double>(rng.NextBelow(400000)),
                           static_cast<std::int64_t>(rng.NextBelow(200 * 1024))});
      }
      for (const std::int64_t budget : {1 * crbase::kMiB, 12 * crbase::kMiB, 64 * crbase::kMiB}) {
        AdmissionController controller(kernel, array, budget);
        std::vector<StreamDemand> committed;
        std::size_t next = 0;
        while (next < streams.size() &&
               controller.reserved_bytes() + array.BufferBytes(streams[next]) <= budget) {
          controller.Commit(static_cast<SessionId>(next), streams[next], false);
          committed.push_back(streams[next++]);
        }
        expect_same(controller.Evaluate(), array.Evaluate(committed));
        EXPECT_EQ(controller.Admissible(), array.Admissible(committed, budget));
        if (next < streams.size()) {
          committed.push_back(streams[next]);
          const AdmissionController::Verdict tried =
              controller.Try(static_cast<SessionId>(next), streams[next], false);
          expect_same(tried.estimate, array.Evaluate(committed));
          EXPECT_EQ(tried.admit, array.Admissible(committed, budget));
        }
        for (SessionId id = 0; id < static_cast<SessionId>(next); ++id) {
          controller.Release(id);
        }
      }
    }
  };
  for (const int disks : {1, 2, 4, 8}) {
    SCOPED_TRACE(disks);
    expect_plain_equivalence(crvol::VolumeAdmissionModel(
        params, disks, Milliseconds(500), 256 * crbase::kKiB, 256 * crbase::kKiB));
  }
  crvol::VolumeAdmissionModel degraded(params, 4, Milliseconds(500), 256 * crbase::kKiB,
                                       256 * crbase::kKiB);
  degraded.set_parity(true);
  degraded.SetMemberFailed(1, true);
  SCOPED_TRACE("parity, one member failed");
  expect_plain_equivalence(degraded);
  EXPECT_EQ(kernel.wired_bytes(), mixed.reserved_bytes());
}

// ---------------------------------------------------------------------------
// Integration: a follower of a hot title plays entirely from memory.

struct TwoPlayerRun {
  PlayerStats a_stats, b_stats;
  crcache::CacheCounters counters;
  ServerStats server_stats;
  bool saw_pair_formed = false;
  bool saw_fallback = false;
  std::int64_t interval_hit_metric = 0;
  std::string metrics_json;
};

// Player A leads; player B opens the same title `b_delay` later.
TwoPlayerRun RunTwoPlayers(crbase::Duration a_play, crbase::Duration b_delay,
                           crbase::Duration b_play) {
  TwoPlayerRun run;
  VolumeTestbed bed(CachedRigOptions());
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(24));
  PlayerOptions a_options;
  a_options.play_length = a_play;
  PlayerOptions b_options;
  b_options.start_delay = b_delay;
  b_options.play_length = b_play;
  crsim::Task a = SpawnCrasPlayer(bed.kernel, bed.cras_server, file, a_options, &run.a_stats);
  crsim::Task b = SpawnCrasPlayer(bed.kernel, bed.cras_server, file, b_options, &run.b_stats);
  bed.engine().RunFor(b_delay + b_play + Seconds(4));

  const crcache::StreamCache* cache = bed.cras_server.cache();
  CRAS_CHECK(cache != nullptr);
  run.counters = cache->counters();
  run.server_stats = bed.cras_server.stats();
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    run.saw_pair_formed |= event.kind == crobs::FlightEventKind::kCachePairFormed;
    run.saw_fallback |= event.kind == crobs::FlightEventKind::kCacheFallback;
  }
  const crobs::RegistrySnapshot snap = bed.hub.metrics().Snapshot();
  if (const crobs::SeriesSnapshot* hits =
          snap.Find("cache.hit_chunks", {{"kind", "interval"}})) {
    run.interval_hit_metric = hits->counter;
  }
  run.metrics_json = bed.hub.MetricsJson();
  return run;
}

TEST(StreamCacheIntegration, FollowerIsServedFromPrefixThenIntervalPool) {
  // A plays the whole window; B trails 4 s behind, inside A's wake.
  const TwoPlayerRun run = RunTwoPlayers(Seconds(20), Seconds(4), Seconds(14));
  EXPECT_GE(run.counters.pairs_formed, 1);
  EXPECT_GT(run.counters.prefix_hit_chunks, 0);
  EXPECT_GT(run.counters.interval_hit_chunks, 0);
  EXPECT_EQ(run.interval_hit_metric, run.counters.interval_hit_chunks);
  EXPECT_GT(run.server_stats.bytes_from_cache, 0);
  EXPECT_TRUE(run.saw_pair_formed);
  // The shared-window service must be invisible to the clients.
  EXPECT_EQ(run.a_stats.frames_missed, 0);
  EXPECT_EQ(run.b_stats.frames_missed, 0);
  EXPECT_EQ(run.server_stats.deadline_misses, 0);
  EXPECT_EQ(run.server_stats.streams_shed, 0);
}

TEST(StreamCacheIntegration, PredecessorCloseFallsFollowerBackToDisk) {
  // A closes at 8 s while B still has 11 s to play: B's feed dies, B is
  // demoted to disk service and — one stream on an idle disk — re-admitted.
  const TwoPlayerRun run = RunTwoPlayers(Seconds(8), Seconds(3), Seconds(16));
  EXPECT_GE(run.counters.pairs_formed, 1);
  EXPECT_GE(run.counters.fallbacks, 1);
  EXPECT_GE(run.counters.pairs_broken, 1);
  EXPECT_TRUE(run.saw_fallback);
  // The fallback is covered by the reserve: B never misses a frame and the
  // degradation controller sheds nothing.
  EXPECT_FALSE(run.b_stats.shed);
  EXPECT_EQ(run.b_stats.frames_missed, 0);
  EXPECT_EQ(run.server_stats.streams_shed, 0);
  EXPECT_EQ(run.server_stats.deadline_misses, 0);
}

TEST(StreamCacheIntegration, MetricsAreByteDeterministic) {
  const TwoPlayerRun first = RunTwoPlayers(Seconds(12), Seconds(3), Seconds(8));
  const TwoPlayerRun second = RunTwoPlayers(Seconds(12), Seconds(3), Seconds(8));
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// ---------------------------------------------------------------------------
// Integration: capacity beyond the disk-only admission ceiling.

// Opens up to `candidates` streams of one title back to back; returns the
// admitted count.
int OpenSameTitle(bool cache_enabled, int candidates) {
  VolumeTestbedOptions options;
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  options.cras.cache.enabled = cache_enabled;
  VolumeTestbed bed(options);
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(30));
  int accepted = 0;
  crsim::Task opener = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (int i = 0; i < candidates; ++i) {
          OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          if (!opened.ok()) {
            co_return;
          }
          ++accepted;
        }
      });
  bed.engine().RunFor(Seconds(2));
  return accepted;
}

TEST(StreamCacheIntegration, CacheAdmitsWellBeyondDiskOnlyCapacity) {
  const int disk_only = OpenSameTitle(false, 48);
  const int cached = OpenSameTitle(true, 48);
  EXPECT_LE(disk_only, 20) << "disk-only ceiling should be the formulas' ~14";
  EXPECT_GE(cached, 2 * disk_only)
      << "a chained hot title costs one stream of disk time";
}

// ---------------------------------------------------------------------------
// Integration: chain merge and the shed path.

TEST(StreamCacheIntegration, InteriorChainDeathMergesNeighbours) {
  VolumeTestbed bed(CachedRigOptions());
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(30));
  std::vector<SessionId> ids;
  crsim::Task client = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (int i = 0; i < 3; ++i) {
          OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          ids.push_back(*opened);
        }
        CRAS_CHECK_OK(co_await bed.cras_server.Close(ids[1]));
      });
  bed.engine().RunFor(Seconds(1));

  const crcache::StreamCache* cache = bed.cras_server.cache();
  ASSERT_NE(cache, nullptr);
  // a -> b -> c collapsed to a -> c: c keeps its memory service, the dead
  // interior stream's retained window transferred, not released.
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(bed.cras_server.open_sessions(), 2u);
  EXPECT_EQ(cache->pairs_active(), 1);
  EXPECT_TRUE(cache->cache_served(ids[2]));
  EXPECT_FALSE(cache->cache_served(ids[0]));
  EXPECT_GE(cache->counters().pairs_formed, 3);  // a-b, b-c, then a-c
  EXPECT_GE(cache->counters().pairs_broken, 1);
  EXPECT_EQ(cache->counters().fallbacks, 0) << "a merge is not a fallback";
}

TEST(StreamCacheIntegration, FallbackBeyondReserveShedsInsteadOfMissing) {
  // Fill the disk to its admission ceiling with 11 cold fillers plus two
  // hot-title pairs: 13 disk-charged streams + 1 reserve = the 14-stream
  // single-disk capacity, with two followers riding the cache. Seeking
  // predecessor X away demotes its follower; now 14 disk-charged streams
  // plus follower Y's reserve no longer fit, and the controller must shed
  // exactly one stream rather than let the set run past the proof.
  VolumeTestbedOptions options = CachedRigOptions();
  VolumeTestbed bed(options);
  bed.StartServers();
  std::vector<crmedia::MediaFile> fillers;
  for (int i = 0; i < 11; ++i) {
    fillers.push_back(
        *crmedia::WriteMpeg1File(bed.fs, "cold" + std::to_string(i), Seconds(30)));
  }
  const auto hot_x = *crmedia::WriteMpeg1File(bed.fs, "hotx", Seconds(30));
  const auto hot_y = *crmedia::WriteMpeg1File(bed.fs, "hoty", Seconds(30));

  // Open order: 11 fillers, pred_x, pred_y, follower_x, follower_y.
  std::vector<const crmedia::MediaFile*> order;
  for (const auto& filler : fillers) {
    order.push_back(&filler);
  }
  order.insert(order.end(), {&hot_x, &hot_y, &hot_x, &hot_y});
  std::vector<SessionId> ids;
  crsim::Task client = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (const crmedia::MediaFile* file : order) {
          OpenParams params;
          params.inode = file->inode;
          params.index = file->index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          ids.push_back(*opened);
        }
        const SessionId pred_x = ids[11];
        CRAS_CHECK_OK(co_await bed.cras_server.Seek(pred_x, Seconds(20)));
      });
  bed.engine().RunFor(Seconds(2));

  const crcache::StreamCache* cache = bed.cras_server.cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(ids.size(), 15u) << "the cached pairs must fit the full rig";
  EXPECT_GE(cache->counters().fallbacks, 1);
  EXPECT_GE(bed.cras_server.stats().streams_shed, 1);
  EXPECT_EQ(bed.cras_server.open_sessions(), 14u);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

// ---------------------------------------------------------------------------
// Integration: a reaped predecessor (lease lapse) demotes its follower.

TEST(StreamCacheIntegration, ReapedPredecessorFallsFollowerBack) {
  VolumeTestbedOptions options = CachedRigOptions();
  options.cras.lease_period = Milliseconds(500);
  VolumeTestbed bed(options);
  bed.StartServers();
  const auto file = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(30));

  SessionId follower = kInvalidSession;
  crsim::Task client = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = file.inode;
        params.index = file.index;
        auto pred = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(pred.ok());
        OpenParams again;
        again.inode = file.inode;
        again.index = file.index;
        auto second = co_await bed.cras_server.Open(std::move(again));
        CRAS_CHECK(second.ok());
        follower = *second;
        // Only the follower heartbeats; the predecessor's lease lapses and
        // the reaper closes it mid-pair.
        for (int i = 0; i < 15; ++i) {
          co_await ctx.Sleep(Milliseconds(200));
          bed.cras_server.RenewLease(follower);
        }
      });
  bed.engine().RunFor(Seconds(3));

  const crcache::StreamCache* cache = bed.cras_server.cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(bed.cras_server.stats().sessions_reaped, 1);
  EXPECT_GE(cache->counters().fallbacks, 1);
  EXPECT_FALSE(cache->cache_served(follower));
  // The orphan rides the fallback reserve on an otherwise idle disk.
  EXPECT_EQ(bed.cras_server.open_sessions(), 1u);
  EXPECT_EQ(bed.cras_server.stats().streams_shed, 0);
}

}  // namespace
}  // namespace cras
