// Network link and NPS stream-transmission tests.

#include "src/net/link.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/net/nps.h"
#include "src/net/stats_query.h"

namespace crnet {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

Link::Options FastLink() {
  Link::Options options;
  options.bandwidth_bytes_per_sec = 10e6 / 8.0;
  options.propagation_delay = Milliseconds(1);
  options.per_packet_overhead = 0;  // simplifies arithmetic in unit tests
  return options;
}

TEST(Link, SinglePacketLatencyIsWirePlusPropagation) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  crbase::Time delivered_at = -1;
  // 1250 bytes at 1.25 MB/s = 1 ms wire time, +1 ms propagation.
  ASSERT_TRUE(link.Send(1250, [&] { delivered_at = engine.Now(); }));
  engine.Run();
  EXPECT_EQ(delivered_at, Milliseconds(2));
  EXPECT_EQ(link.stats().packets_delivered, 1);
  EXPECT_EQ(link.stats().bytes_delivered, 1250);
}

TEST(Link, PacketsSerializeFifo) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  std::vector<int> order;
  std::vector<crbase::Time> times;
  for (int i = 0; i < 3; ++i) {
    link.Send(1250, [&, i] {
      order.push_back(i);
      times.push_back(engine.Now());
    });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Serialization back to back: deliveries at 2, 3, 4 ms.
  EXPECT_EQ(times[0], Milliseconds(2));
  EXPECT_EQ(times[1], Milliseconds(3));
  EXPECT_EQ(times[2], Milliseconds(4));
}

TEST(Link, ThroughputMatchesBandwidth) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  std::int64_t delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    link.Send(1250, [&] { delivered += 1250; });
  }
  engine.RunUntil(Seconds(1) + Milliseconds(1));
  // 1.25 MB/s for 1 second.
  EXPECT_NEAR(static_cast<double>(delivered), 1.25e6, 2500.0);
}

TEST(Link, OverheadReducesGoodput) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.per_packet_overhead = 1250;  // 50% efficiency for 1250-byte packets
  Link link(engine, options);
  std::int64_t delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    link.Send(1250, [&] { delivered += 1250; });
  }
  engine.RunUntil(Seconds(1) + Milliseconds(1));
  EXPECT_NEAR(static_cast<double>(delivered), 0.625e6, 2500.0);
}

TEST(Link, QueueLimitDrops) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.queue_limit = 2;
  Link link(engine, options);
  int delivered = 0;
  // First enters service immediately; next two queue; the rest drop.
  for (int i = 0; i < 6; ++i) {
    link.Send(1250, [&] { ++delivered; });
  }
  engine.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().packets_dropped, 3);
}

TEST(Link, UtilizationTracksBusyTime) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  link.Send(12500, nullptr);  // 10 ms of wire time
  engine.RunUntil(Milliseconds(100));
  EXPECT_NEAR(link.Utilization(), 0.1, 0.001);
}

// ---------------------------------------------------------------------------
// End-to-end: CRAS -> NPS -> link -> remote buffer, two hosts on one
// timeline.
// ---------------------------------------------------------------------------

struct QtPlayRig {
  cras::VolumeTestbed server_host;        // qtserver: CRAS + NPS sender
  crrt::Kernel client_host;         // qtclient: own CPU, shared timeline
  Link ethernet;
  NpsReceiver receiver;
  NpsSender sender;

  explicit QtPlayRig(const NpsSender::Options& sender_options = {})
      : client_host(server_host.engine(), crrt::Kernel::Options{}),
        ethernet(server_host.engine()),
        receiver(client_host),
        sender(server_host.kernel, server_host.cras_server, ethernet, receiver, sender_options) {
    server_host.StartServers();
  }
};

// Opens `movie` on the rig's server and starts its clock; returns the
// session.
cras::SessionId OpenAndStart(QtPlayRig& rig, const crmedia::MediaFile& movie) {
  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = rig.server_host.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await rig.server_host.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
        (void)co_await rig.server_host.cras_server.StartStream(
            session, rig.server_host.cras_server.SuggestedInitialDelay());
      });
  rig.server_host.engine().RunFor(Milliseconds(50));
  CRAS_CHECK(session != cras::kInvalidSession);
  return session;
}

TEST(Nps, StreamsAMovieAcrossTheLink) {
  QtPlayRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const cras::SessionId session = OpenAndStart(rig, *movie);
  crsim::Task sender_task = rig.sender.Start(session, &movie->index);

  // Remote consumption: start the receiver clock with enough delay for the
  // server pipeline plus network, then fetch every frame by logical time.
  std::int64_t frames_ok = 0;
  std::int64_t frames_missing = 0;
  crsim::Task player = rig.client_host.Spawn(
      "qtclient", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        const crbase::Duration delay =
            rig.server_host.cras_server.SuggestedInitialDelay() + Milliseconds(200);
        rig.receiver.clock().Start(delay);
        co_await ctx.Sleep(delay);
        for (const crmedia::Chunk& chunk : movie->index.chunks()) {
          const crbase::Time due = ctx.Now();
          (void)due;
          while (rig.receiver.clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (rig.receiver.Get(chunk.timestamp).has_value()) {
            ++frames_ok;
          } else {
            ++frames_missing;
          }
        }
      });
  rig.server_host.engine().RunFor(Seconds(12));

  EXPECT_EQ(frames_missing, 0);
  EXPECT_EQ(frames_ok, static_cast<std::int64_t>(movie->index.count()));
  EXPECT_EQ(rig.sender.stats().chunks_sent, static_cast<std::int64_t>(movie->index.count()));
  EXPECT_EQ(rig.sender.stats().chunks_skipped, 0);
  EXPECT_EQ(rig.receiver.stats().chunks_received,
            static_cast<std::int64_t>(movie->index.count()));
  // A 1.5 Mb/s stream fits a 10 Mb/s link with plenty of headroom.
  EXPECT_LT(rig.ethernet.Utilization(), 0.35);
  EXPECT_LT(rig.receiver.stats().max_network_latency, Milliseconds(60));
}

TEST(Nps, SenderExitsWhenItsSessionCloses) {
  QtPlayRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const cras::SessionId session = OpenAndStart(rig, *movie);
  crsim::Task sender_task = rig.sender.Start(session, &movie->index);
  rig.server_host.engine().RunFor(Seconds(2));
  ASSERT_FALSE(sender_task.done());

  crsim::Task closer = rig.server_host.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        EXPECT_TRUE((co_await rig.server_host.cras_server.Close(session)).ok());
      });
  rig.server_host.engine().RunFor(Milliseconds(100));
  // The sender noticed on its next wake and returned, instead of polling a
  // clock that no longer exists for the rest of the run.
  EXPECT_TRUE(sender_task.done());
  const std::int64_t sent = rig.sender.stats().chunks_sent;
  EXPECT_GT(sent, 0);
  EXPECT_LT(sent, static_cast<std::int64_t>(movie->index.count()));
  rig.server_host.engine().RunFor(Seconds(2));
  EXPECT_EQ(rig.sender.stats().chunks_sent, sent);
}

TEST(Nps, SenderResumesWithinOnePollOfARestart) {
  // With no lookahead a chunk falls due when CRAS guarantees its data is in
  // the shared buffer, so the send times show the wake rule alone. The
  // stream resumes with no initial delay (the stopped stream kept its
  // buffered data), so the next chunk falls due right after the restart.
  NpsSender::Options options;
  options.lookahead = 0;
  QtPlayRig rig(options);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(5));
  ASSERT_TRUE(movie.ok());
  const cras::SessionId session = OpenAndStart(rig, *movie);
  crsim::Task sender_task = rig.sender.Start(session, &movie->index);
  crsim::Engine& engine = rig.server_host.engine();
  engine.RunFor(Seconds(2));

  auto control = [&](bool start) {
    return rig.server_host.kernel.Spawn(
        "qtserver", crrt::kPriorityClient, [&, start](crrt::ThreadContext&) -> crsim::Task {
          cras::CrasServer& server = rig.server_host.cras_server;
          if (start) {
            EXPECT_TRUE((co_await server.StartStream(session, 0)).ok());
          } else {
            EXPECT_TRUE((co_await server.StopStream(session)).ok());
          }
        });
  };
  crsim::Task stopper = control(false);
  engine.RunFor(Milliseconds(100));
  const std::int64_t sent_before = rig.sender.stats().chunks_sent;
  engine.RunFor(Seconds(1));
  EXPECT_EQ(rig.sender.stats().chunks_sent, sent_before) << "shipped on a stopped clock";

  crsim::Task starter = control(true);
  const cras::LogicalClock* clock = rig.server_host.cras_server.SessionClock(session);
  ASSERT_NE(clock, nullptr);
  while (!clock->running()) {
    ASSERT_TRUE(engine.Step());
  }
  // From here the clock runs at rate 1: chunk c's send time, timestamp -
  // lookahead, falls due at this real time.
  auto due_at = [&](std::size_t c) {
    return engine.Now() + (movie->index.at(c).timestamp - options.lookahead) - clock->Now();
  };
  std::vector<crbase::Time> due;
  for (std::size_t c = static_cast<std::size_t>(sent_before); c < movie->index.count(); ++c) {
    due.push_back(due_at(c));
  }
  // Each chunk goes out on the first poll tick at or after its send time,
  // plus its compute on the server CPU.
  std::size_t next = 0;
  std::int64_t sent = sent_before;
  while (!sender_task.done() && engine.Step()) {
    for (; sent < rig.sender.stats().chunks_sent; ++sent, ++next) {
      ASSERT_LT(next, due.size());
      EXPECT_GE(engine.Now(), due[next]) << "chunk " << sent << " shipped early";
      EXPECT_LE(engine.Now() - due[next], options.poll + Milliseconds(1))
          << "chunk " << sent << " shipped late";
    }
  }
  EXPECT_EQ(rig.sender.stats().chunks_sent, static_cast<std::int64_t>(movie->index.count()));
  EXPECT_EQ(rig.sender.stats().chunks_skipped, 0);
}

TEST(Nps, FragmentsLargeChunks) {
  QtPlayRig rig;
  // 6 Mb/s stream: 25000-byte frames fragment into 4 packets at 8 KiB.
  auto movie = crmedia::WriteMpeg2File(rig.server_host.fs, "hd", Seconds(2));
  ASSERT_TRUE(movie.ok());
  const cras::SessionId session = OpenAndStart(rig, *movie);
  crsim::Task sender_task = rig.sender.Start(session, &movie->index);
  rig.server_host.engine().RunFor(Seconds(6));
  EXPECT_EQ(rig.sender.stats().chunks_sent, static_cast<std::int64_t>(movie->index.count()));
  EXPECT_EQ(rig.sender.stats().packets_sent, 4 * rig.sender.stats().chunks_sent);
  EXPECT_EQ(rig.receiver.stats().chunks_received, rig.sender.stats().chunks_sent);
}

// ---------------------------------------------------------------------------
// StatsQuery: pulling the server's metrics registry across the link.
// ---------------------------------------------------------------------------

// Pulls the integer "value" of the first series of a counter family out of
// the hub's metrics JSON. Returns -1 if the family is absent.
std::int64_t ExtractCounter(const std::string& json, const std::string& name) {
  std::size_t pos = json.find("\"" + name + "\"");
  if (pos == std::string::npos) {
    return -1;
  }
  pos = json.find("\"value\": ", pos);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::strtoll(json.c_str() + pos + 9, nullptr, 10);
}

TEST(StatsQuery, SnapshotOverLinkMatchesServerStats) {
  QtPlayRig rig;
  StatsQueryService stats(rig.server_host.kernel, rig.server_host.hub, &rig.ethernet);
  stats.Start();
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(4));
  ASSERT_TRUE(movie.ok());
  const cras::SessionId session = OpenAndStart(rig, *movie);
  crsim::Task sender_task = rig.sender.Start(session, &movie->index);
  // Let the whole stream drain so the server's counters are quiescent, then
  // query: the snapshot must agree exactly with the server's own ledger.
  rig.server_host.engine().RunFor(Seconds(8));

  std::string json;
  crbase::Time asked = 0;
  crbase::Time answered = 0;
  crsim::Task query = rig.client_host.Spawn(
      "qtclient-stats", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        asked = ctx.Now();
        json = co_await stats.Query();
        answered = ctx.Now();
      });
  rig.server_host.engine().RunFor(Seconds(1));

  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"sim_time_ns\""), std::string::npos);
  const cras::ServerStats& server = rig.server_host.cras_server.stats();
  EXPECT_EQ(ExtractCounter(json, "cras.deadline_misses"), server.deadline_misses);
  EXPECT_EQ(ExtractCounter(json, "cras.sessions_opened"), server.sessions_opened);
  EXPECT_EQ(ExtractCounter(json, "cras.bytes_read"), server.bytes_read);
  EXPECT_EQ(ExtractCounter(json, "cras.sessions_opened"), 1);
  EXPECT_GT(ExtractCounter(json, "cras.bytes_read"), 0);
  // The reply is real traffic: at minimum it pays the propagation delay and
  // its own wire time on the 10 Mb/s segment.
  EXPECT_EQ(stats.stats().queries, 1);
  EXPECT_EQ(stats.stats().reply_bytes, static_cast<std::int64_t>(json.size()));
  const Link::Options wire;  // QtPlayRig's ethernet uses default options
  const crbase::Duration min_latency =
      wire.propagation_delay +
      crbase::Time(static_cast<std::int64_t>(1e9 * static_cast<double>(json.size()) /
                                             wire.bandwidth_bytes_per_sec));
  EXPECT_GE(answered - asked, min_latency);
}

TEST(StatsQuery, NullLinkAnswersWithoutNetworkDelay) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  StatsQueryService stats(bed.kernel, bed.hub, nullptr);
  stats.Start();

  std::string json;
  crbase::Time asked = 0;
  crbase::Time answered = 0;
  crsim::Task query = bed.kernel.Spawn(
      "local-stats", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        asked = ctx.Now();
        json = co_await stats.Query();
        answered = ctx.Now();
      });
  bed.engine().RunFor(Milliseconds(100));

  ASSERT_FALSE(json.empty());
  EXPECT_EQ(ExtractCounter(json, "cras.sessions_opened"), 0);
  // Same-host path: only the snapshot-rendering CPU charge, no wire time.
  EXPECT_GE(answered - asked, StatsQueryService::Options{}.cpu_per_query);
  EXPECT_LT(answered - asked, Milliseconds(10));
}

// Pulls the integer value of a top-level `"key": N` field out of a reply.
std::int64_t ExtractField(const std::string& json, const std::string& key) {
  const std::size_t pos = json.find("\"" + key + "\": ");
  if (pos == std::string::npos) {
    return -1;
  }
  return std::strtoll(json.c_str() + pos + key.size() + 4, nullptr, 10);
}

TEST(StatsQuery, DeltaQueryShipsWindowedActivity) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  StatsQueryService stats(bed.kernel, bed.hub, nullptr);
  stats.Start();
  crobs::Counter* ticks = bed.hub.metrics().GetCounter("test.ticks");
  ticks->Add(5);

  std::string first, second, bogus;
  crsim::Task query = bed.kernel.Spawn(
      "delta-scraper", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        // Cursor 0 = "no baseline": the reply is a full snapshot that also
        // establishes the baseline the next query subtracts against.
        first = co_await stats.DeltaQuery(0);
        ticks->Add(3);
        const std::uint64_t cursor =
            static_cast<std::uint64_t>(ExtractField(first, "cursor"));
        second = co_await stats.DeltaQuery(cursor);
        // An unknown (expired or fabricated) cursor degrades to a full
        // snapshot rather than failing the scrape.
        bogus = co_await stats.DeltaQuery(cursor + 9999);
        (void)ctx;
      });
  bed.engine().RunFor(Milliseconds(100));

  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("\"baseline_missing\": true"), std::string::npos);
  EXPECT_EQ(ExtractCounter(first, "test.ticks"), 5);
  EXPECT_GT(ExtractField(first, "cursor"), 0);

  ASSERT_FALSE(second.empty());
  // The windowed delta carries only the activity since the cursor — the
  // 3 new ticks, not the lifetime total of 8.
  EXPECT_NE(second.find("\"baseline_missing\": false"), std::string::npos);
  EXPECT_EQ(ExtractField(second, "since"), ExtractField(first, "cursor"));
  EXPECT_EQ(ExtractCounter(second, "test.ticks"), 3);
  EXPECT_GT(ExtractField(second, "window_ns"), -1);

  ASSERT_FALSE(bogus.empty());
  EXPECT_NE(bogus.find("\"baseline_missing\": true"), std::string::npos);
  EXPECT_EQ(ExtractCounter(bogus, "test.ticks"), 8);
}

}  // namespace
}  // namespace crnet
