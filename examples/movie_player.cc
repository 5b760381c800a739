// movie_player: a QtPlay-style player with dynamic QoS control (§2.4, §3.2).
//
// Plays a movie at full rate, then — mid-playback, without telling the
// server anything — drops to a third of the frame rate, then returns to
// full rate. The time-driven shared buffer absorbs the changes: skipped
// frames age out by timestamp; no feedback protocol, no buffer overflow.
//
//   $ ./movie_player

#include <cstdio>

#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

using crbase::Milliseconds;
using crbase::Seconds;

namespace {

crsim::Task Player(cras::VolumeTestbed& bed, const crmedia::MediaFile& movie) {
  return bed.kernel.Spawn("movie-player", crrt::kPriorityClient,
                          [&](crrt::ThreadContext& ctx) -> crsim::Task {
    cras::CrasServer& server = bed.cras_server;
    cras::OpenParams params;
    params.inode = movie.inode;
    params.index = movie.index;
    auto session = co_await server.Open(std::move(params));
    CRAS_CHECK(session.ok()) << session.status().ToString();
    const cras::SessionId id = *session;
    const crbase::Duration delay = server.SuggestedInitialDelay();
    (void)co_await server.StartStream(id, delay);
    const crbase::Time zero_at = ctx.Now() + delay;

    const auto& chunks = movie.index.chunks();
    std::int64_t rendered = 0;
    std::int64_t skipped_by_qos = 0;
    // Phase plan: full rate for 4 s, third rate for 4 s, full rate to 12 s.
    auto step_at = [](crbase::Time t) {
      return (t >= Seconds(4) && t < Seconds(8)) ? 3 : 1;
    };
    int step = 1;
    for (std::size_t i = 0; i < chunks.size();) {
      const crmedia::Chunk& chunk = chunks[i];
      if (chunk.timestamp > Seconds(12)) {
        break;
      }
      const int new_step = step_at(chunk.timestamp);
      if (new_step != step) {
        step = new_step;
        std::printf("[%6.3fs] QoS change: rendering every %d%s frame "
                    "(no server interaction; buffer=%lld bytes resident)\n",
                    crbase::ToSeconds(ctx.Now()), step, step == 1 ? "st" : "rd",
                    static_cast<long long>(
                        server.GetBufferStats(id) != nullptr
                            ? server.GetSessionStats(id)->bytes_published
                            : 0));
      }
      const crbase::Time due = zero_at + chunk.timestamp;
      if (due > ctx.Now()) {
        co_await ctx.Sleep(due - ctx.Now());
      }
      std::optional<cras::BufferedChunk> frame = server.Get(id, chunk.timestamp);
      if (frame.has_value()) {
        ++rendered;
      }
      skipped_by_qos += step - 1;
      i += static_cast<std::size_t>(step);
    }

    const cras::TimeDrivenBufferStats* buffer_stats = server.GetBufferStats(id);
    std::printf("\nrendered %lld frames, skipped %lld by QoS\n",
                static_cast<long long>(rendered), static_cast<long long>(skipped_by_qos));
    if (buffer_stats != nullptr) {
      std::printf("time-driven buffer: puts=%lld aged_out=%lld overflow=%lld "
                  "(skipped frames discarded by timestamp, never by pressure)\n",
                  static_cast<long long>(buffer_stats->puts),
                  static_cast<long long>(buffer_stats->discarded_obsolete),
                  static_cast<long long>(buffer_stats->overflow_evictions));
    }
    std::printf("server retrieved %s at the constant recorded rate throughout\n",
                crbase::FormatBytes(server.stats().bytes_read).c_str());
    (void)co_await server.Close(id);
  });
}

}  // namespace

int main() {
  cras::VolumeTestbed bed;
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "feature.mpg", Seconds(14));
  CRAS_CHECK(movie.ok());
  crsim::Task player = Player(bed, *movie);
  bed.engine().RunFor(Seconds(16));
  return 0;
}
