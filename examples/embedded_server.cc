// embedded_server: the paper's §2.6 "aggressive" configuration — CRAS
// linked directly into the application, with no Unix server running at all
// (the RTS/embedded-system deployment in Figure 5).
//
// The application owns the kernel, disk, and file-system layout; it records
// a camera feed through a CRAS write session and simultaneously plays back
// an alarm-loop clip — a tiny digital video recorder.
//
//   $ ./embedded_server

#include <cstdio>
#include <memory>

#include "src/core/cras.h"
#include "src/core/player.h"
#include "src/media/media_file.h"
#include "src/rtmach/kernel.h"
#include "src/ufs/ufs.h"
#include "src/volume/volume.h"

using crbase::Seconds;

int main() {
  // No VolumeTestbed, no UnixServer: just the microkernel, the disk (a
  // one-member volume), the shared on-disk layout, and CRAS in-process.
  crrt::Kernel kernel;
  crvol::VolumeOptions volume_options;
  volume_options.device.geometry = crdisk::St32550nGeometry();
  std::unique_ptr<crvol::Volume> volume = crvol::MakeVolume(kernel.engine(), volume_options);
  crufs::Ufs fs;

  cras::CrasServer::Options server_options;
  server_options.interval = crbase::Milliseconds(250);  // small appliance: low latency
  server_options.memory_budget_bytes = 2 * crbase::kMiB;  // tight embedded memory
  cras::CrasServer server(kernel, *volume, fs, server_options);
  server.Start();
  std::printf("embedded CRAS: interval %s, wired memory %s\n",
              crbase::FormatDuration(server_options.interval).c_str(),
              crbase::FormatBytes(kernel.wired_bytes()).c_str());

  // The camera feed to record (15 s of MPEG1), preallocated contiguously so
  // constant-rate writing is possible.
  crmedia::ChunkIndex camera =
      crmedia::BuildCbrIndex(crmedia::kMpeg1BytesPerSec, 30.0, Seconds(15));
  crufs::InodeNumber recording = *fs.Create("camera_feed");
  CRAS_CHECK_OK(fs.PreallocateContiguous(recording, camera.total_bytes()));

  // The clip played on the operator console.
  auto clip = crmedia::WriteMpeg1File(fs, "alarm_loop.mpg", Seconds(15));
  CRAS_CHECK(clip.ok());

  // Recorder task: write session fed at the camera's frame rate.
  cras::SessionId record_session = cras::kInvalidSession;
  crsim::Task recorder = kernel.Spawn(
      "recorder", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        cras::OpenParams params;
        params.inode = recording;
        params.index = camera;
        params.kind = cras::SessionKind::kWrite;
        auto session = co_await server.Open(std::move(params));
        CRAS_CHECK(session.ok()) << session.status().ToString();
        record_session = *session;
        (void)co_await server.StartStream(*session, 0);
        const crbase::Time start = ctx.Now();
        for (std::size_t c = 0; c < camera.count(); ++c) {
          const crbase::Time due = start + camera.at(c).timestamp;
          if (due > ctx.Now()) {
            co_await ctx.Sleep(due - ctx.Now());
          }
          (void)server.PutChunk(*session, static_cast<std::int64_t>(c));
        }
      });

  cras::PlayerStats player_stats;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(12);
  crmedia::MediaFile clip_file = *clip;
  crsim::Task player =
      cras::SpawnCrasPlayer(kernel, server, clip_file, player_options, &player_stats);

  kernel.engine().RunFor(Seconds(18));

  auto record_stats = server.GetSessionStats(record_session);
  std::printf("recorded %s (%lld chunks) at constant rate; playback: %lld frames, "
              "%lld missed, max delay %s\n",
              crbase::FormatBytes(record_stats.ok() ? record_stats->bytes_written : 0).c_str(),
              static_cast<long long>(record_stats.ok() ? record_stats->chunks_written : 0),
              static_cast<long long>(player_stats.frames_played),
              static_cast<long long>(player_stats.frames_missed),
              crbase::FormatDuration(player_stats.max_delay()).c_str());
  std::printf("deadline misses: %lld; recorded file contiguity: %.2f\n",
              static_cast<long long>(server.stats().deadline_misses),
              fs.ContiguityOf(recording));
  return 0;
}
