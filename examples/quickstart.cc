// Quickstart: the smallest complete CRAS program.
//
// Builds the simulated machine, creates a 10-second MPEG1 movie on the
// shared UFS layout, opens a constant-rate session (crs_open), starts it
// (crs_start), fetches a few frames by logical time (crs_get), and closes.
//
//   $ ./quickstart

#include <cstdio>

#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

using crbase::Milliseconds;
using crbase::Seconds;

namespace {

crsim::Task Client(cras::VolumeTestbed& bed, const crmedia::MediaFile& movie) {
  return bed.kernel.Spawn("quickstart", crrt::kPriorityClient,
                          [&](crrt::ThreadContext& ctx) -> crsim::Task {
    cras::CrasServer& server = bed.cras_server;

    // crs_open: hand CRAS the control-file contents (per-chunk timestamps,
    // durations, sizes). The admission test runs here.
    cras::OpenParams params;
    params.inode = movie.inode;
    params.index = movie.index;
    auto session = co_await server.Open(std::move(params));
    if (!session.ok()) {
      std::printf("open failed: %s\n", session.status().ToString().c_str());
      co_return;
    }
    std::printf("[%6.3fs] session %lld admitted (buffer reservation: %lld bytes)\n",
                crbase::ToSeconds(ctx.Now()), static_cast<long long>(*session),
                static_cast<long long>(server.buffer_bytes_reserved()));

    // crs_start: begin prefetching; allow the suggested initial delay
    // (two interval times) before logical time zero.
    const crbase::Duration delay = server.SuggestedInitialDelay();
    (void)co_await server.StartStream(*session, delay);
    std::printf("[%6.3fs] stream started, initial delay %s\n", crbase::ToSeconds(ctx.Now()),
                crbase::FormatDuration(delay).c_str());

    // Render the first second of video: one crs_get per frame, by logical
    // time. crs_get is a shared-memory access — no server round trip.
    co_await ctx.Sleep(delay);
    for (int frame = 0; frame < 30; ++frame) {
      const crbase::Time t = frame * crbase::SecondsF(1.0 / 30.0);
      while (server.LogicalNow(*session) < t) {
        co_await ctx.Sleep(Milliseconds(1));
      }
      std::optional<cras::BufferedChunk> chunk = server.Get(*session, t);
      if (frame % 10 == 0) {
        std::printf("[%6.3fs] frame %2d: %s (%lld bytes, logical %s)\n",
                    crbase::ToSeconds(ctx.Now()), frame, chunk ? "ok" : "MISSING",
                    chunk ? static_cast<long long>(chunk->size) : 0,
                    crbase::FormatDuration(t).c_str());
      }
    }

    (void)co_await server.StopStream(*session);
    (void)co_await server.Close(*session);
    std::printf("[%6.3fs] closed; server read %s from disk, %lld deadline misses\n",
                crbase::ToSeconds(ctx.Now()),
                crbase::FormatBytes(server.stats().bytes_read).c_str(),
                static_cast<long long>(server.stats().deadline_misses));
  });
}

}  // namespace

int main() {
  cras::VolumeTestbed bed;
  bed.StartServers();

  auto movie = crmedia::WriteMpeg1File(bed.fs, "clip.mpg", Seconds(10));
  if (!movie.ok()) {
    std::printf("failed to create movie: %s\n", movie.status().ToString().c_str());
    return 1;
  }
  std::printf("created %s: %s, %zu chunks, contiguity %.2f\n", movie->name.c_str(),
              crbase::FormatBytes(movie->index.total_bytes()).c_str(), movie->index.count(),
              bed.fs.ContiguityOf(movie->inode));

  crsim::Task client = Client(bed, *movie);
  bed.engine().RunFor(Seconds(5));
  return 0;
}
