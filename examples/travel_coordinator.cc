// travel_coordinator: the paper's motivating application (§1).
//
// Two people plan a trip: each browses sightseeing video clips from a local
// video database while a conferencing tool and other desktop activity hit
// the same disk through the Unix file system. The clips must keep playing
// at constant rate regardless.
//
// This example runs two concurrent CRAS video sessions (the clip each user
// is watching), a UFS-based conferencing tool logging to disk, and a
// background `cat`, then reports per-stream delivery quality.
//
//   $ ./travel_coordinator

#include <cstdio>

#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/load.h"
#include "src/media/media_file.h"

using crbase::Milliseconds;
using crbase::Seconds;

namespace {

// The conferencing tool: appends meeting state and reads shared documents
// through the Unix server every 200 ms — ordinary, non-real-time disk use.
crsim::Task SpawnConferencingTool(cras::VolumeTestbed& bed, crufs::InodeNumber doc) {
  return bed.kernel.Spawn("conference-tool", crrt::kPriorityTimesharing,
                          [&bed, doc](crrt::ThreadContext& ctx) -> crsim::Task {
    std::int64_t offset = 0;
    const std::int64_t doc_size = bed.fs.inode(doc).size_bytes;
    for (;;) {
      (void)co_await bed.unix_server.Read(doc, offset % doc_size, 16 * crbase::kKiB);
      offset += 16 * crbase::kKiB;
      co_await ctx.Sleep(Milliseconds(200));
    }
  });
}

}  // namespace

int main() {
  cras::VolumeTestbed bed;
  bed.StartServers();

  // The video database: sightseeing clips, plus a shared document store.
  auto kyoto = crmedia::WriteMpeg1File(bed.fs, "kyoto_temples.mpg", Seconds(22));
  auto kanazawa = crmedia::WriteMpeg1File(bed.fs, "kanazawa_garden.mpg", Seconds(22));
  CRAS_CHECK(kyoto.ok() && kanazawa.ok());
  crufs::InodeNumber documents = *bed.fs.Create("shared_documents");
  CRAS_CHECK_OK(bed.fs.Append(documents, 4 * crbase::kMiB));

  // Desktop contention: the conferencing tool plus a file copy.
  crsim::Task conference = SpawnConferencingTool(bed, documents);
  auto copy_source = crmedia::WriteMpeg1File(bed.fs, "mail_spool", Seconds(60));
  CRAS_CHECK(copy_source.ok());
  crsim::Task copy =
      crmedia::SpawnCat(bed.kernel, bed.unix_server, copy_source->inode, "file-copy");

  // Each user watches a clip through CRAS.
  cras::PlayerStats alice_stats;
  cras::PlayerStats bob_stats;
  cras::PlayerOptions options;
  options.play_length = Seconds(20);
  crsim::Task alice =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *kyoto, options, &alice_stats);
  options.start_delay = Seconds(2);  // Bob starts his clip a little later
  crsim::Task bob =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *kanazawa, options, &bob_stats);

  bed.engine().RunFor(Seconds(28));

  auto report = [](const char* who, const cras::PlayerStats& stats) {
    std::printf("%s: %lld frames, %lld missed, mean delay %s, max delay %s\n", who,
                static_cast<long long>(stats.frames_played),
                static_cast<long long>(stats.frames_missed),
                crbase::FormatDuration(stats.mean_delay()).c_str(),
                crbase::FormatDuration(stats.max_delay()).c_str());
  };
  std::printf("travel coordination session complete:\n");
  report("  alice (kyoto clip)   ", alice_stats);
  report("  bob   (kanazawa clip)", bob_stats);
  std::printf("  background: unix server handled %lld requests (%lld disk reads)\n",
              static_cast<long long>(bed.unix_server.stats().requests),
              static_cast<long long>(bed.unix_server.stats().disk_reads));
  std::printf("  CRAS deadline misses: %lld\n",
              static_cast<long long>(bed.cras_server.stats().deadline_misses));
  return 0;
}
