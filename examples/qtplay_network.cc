// qtplay_network: the paper's distributed QuickTime player (Figure 11).
//
// Two hosts on one timeline: a *qtserver* machine running CRAS retrieves a
// movie's video and audio tracks from its local disk and transmits them
// with NPS over 10 Mb/s Ethernet; a *qtclient* machine reassembles the
// streams into local time-driven buffers and hands frames to its display
// and audio sinks by logical time. The client can change its consumption
// rate at any moment without telling anyone — the same dynamic-QoS property
// as local playback, now end to end.
//
//   $ ./qtplay_network

#include <cstdio>

#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/net/nps.h"

using crbase::Milliseconds;
using crbase::Seconds;

namespace {

struct SinkStats {
  std::int64_t frames = 0;
  std::int64_t missing = 0;
  crbase::Duration worst_lateness = 0;
};

// A sink (X11 display or audio server) on the client host: consumes a
// stream from an NPS receiver at its own rate.
crsim::Task SpawnSink(crrt::Kernel& host, crnet::NpsReceiver& receiver,
                      const crmedia::ChunkIndex* index, std::string name,
                      crbase::Duration startup_delay, std::int64_t frame_step,
                      SinkStats* stats) {
  return host.Spawn(name, crrt::kPriorityClient,
                    [&receiver, index, startup_delay, frame_step,
                     stats](crrt::ThreadContext& ctx) -> crsim::Task {
    receiver.clock().Start(startup_delay);
    co_await ctx.Sleep(startup_delay);
    for (std::size_t i = 0; i < index->count(); i += static_cast<std::size_t>(frame_step)) {
      const crmedia::Chunk& chunk = index->at(i);
      while (receiver.clock().Now() < chunk.timestamp) {
        co_await ctx.Sleep(Milliseconds(2));
      }
      const crbase::Time due = ctx.Now();
      std::optional<cras::BufferedChunk> frame = receiver.Get(chunk.timestamp);
      if (frame.has_value()) {
        ++stats->frames;
        stats->worst_lateness = std::max(stats->worst_lateness, ctx.Now() - due);
      } else {
        ++stats->missing;
      }
    }
  });
}

}  // namespace

int main() {
  // qtserver host: the full testbed (CRAS + UFS + disk).
  cras::VolumeTestbed qtserver;
  qtserver.StartServers();
  // qtclient host: its own processor on the shared timeline.
  crrt::Kernel qtclient(qtserver.engine(), crrt::Kernel::Options{});
  // The 10 Mb/s Ethernet between them.
  crnet::Link ethernet(qtserver.engine());

  // The movie: a 1.5 Mb/s video track and a 256 kb/s audio track, stored as
  // separate files on the server's disk (QuickTime-style flattened tracks).
  auto video = crmedia::WriteMpeg1File(qtserver.fs, "movie.video", Seconds(20));
  auto audio = crmedia::WriteMediaFile(
      qtserver.fs, "movie.audio",
      crmedia::BuildCbrIndex(256e3 / 8.0, 50.0, Seconds(20)));  // 20 ms audio chunks
  CRAS_CHECK(video.ok() && audio.ok());

  crnet::NpsReceiver video_rx(qtclient);
  crnet::NpsReceiver audio_rx(qtclient);
  crnet::NpsSender video_tx(qtserver.kernel, qtserver.cras_server, ethernet, video_rx);
  crnet::NpsSender audio_tx(qtserver.kernel, qtserver.cras_server, ethernet, audio_rx);

  // qtserver opens both tracks and begins constant-rate retrieval.
  std::vector<crsim::Task> tasks;
  tasks.push_back(qtserver.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (auto* track : {&*video, &*audio}) {
          cras::OpenParams params;
          params.inode = track->inode;
          params.index = track->index;
          auto session = co_await qtserver.cras_server.Open(std::move(params));
          CRAS_CHECK(session.ok()) << session.status().ToString();
          (void)co_await qtserver.cras_server.StartStream(
              *session, qtserver.cras_server.SuggestedInitialDelay());
          if (track == &*video) {
            tasks.push_back(video_tx.Start(*session, &track->index));
          } else {
            tasks.push_back(audio_tx.Start(*session, &track->index));
          }
        }
      }));

  // qtclient sinks: the display renders at full rate for 8 s, then the user
  // shrinks the window — the video sink silently drops to every 3rd frame —
  // while audio continues untouched.
  const crbase::Duration startup =
      qtserver.cras_server.SuggestedInitialDelay() + Milliseconds(300);
  SinkStats display_full;
  SinkStats audio_stats;
  crsim::Task x11 = qtclient.Spawn(
      "x11-sink", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        video_rx.clock().Start(startup);
        co_await ctx.Sleep(startup);
        const auto& chunks = video->index.chunks();
        for (std::size_t i = 0; i < chunks.size();) {
          const int step = chunks[i].timestamp >= Seconds(8) ? 3 : 1;
          while (video_rx.clock().Now() < chunks[i].timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (video_rx.Get(chunks[i].timestamp).has_value()) {
            ++display_full.frames;
          } else {
            ++display_full.missing;
          }
          i += static_cast<std::size_t>(step);
        }
      });
  crsim::Task speaker =
      SpawnSink(qtclient, audio_rx, &audio->index, "audio-sink", startup, 1, &audio_stats);

  qtserver.engine().RunFor(Seconds(26));

  std::printf("qtplay session over 10 Mb/s Ethernet:\n");
  std::printf("  video: %lld frames rendered, %lld missing; sender shipped %lld chunks "
              "(%lld packets)\n",
              static_cast<long long>(display_full.frames),
              static_cast<long long>(display_full.missing),
              static_cast<long long>(video_tx.stats().chunks_sent),
              static_cast<long long>(video_tx.stats().packets_sent));
  std::printf("  audio: %lld chunks rendered, %lld missing (untouched by the video QoS drop)\n",
              static_cast<long long>(audio_stats.frames),
              static_cast<long long>(audio_stats.missing));
  std::printf("  link: utilization %.1f%%, worst chunk latency video=%s audio=%s\n",
              ethernet.Utilization() * 100.0,
              crbase::FormatDuration(video_rx.stats().max_network_latency).c_str(),
              crbase::FormatDuration(audio_rx.stats().max_network_latency).c_str());
  std::printf("  CRAS deadline misses: %lld\n",
              static_cast<long long>(qtserver.cras_server.stats().deadline_misses));
  return 0;
}
