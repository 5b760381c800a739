// Figure 7: per-frame delay of a video stream retrieved through CRAS vs the
// Unix file system while other activities access the same disk.
//
// Paper result (shape): UFS shows large delay spikes (tens to hundreds of
// milliseconds); CRAS stays flat near zero even at the same throughput.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/stats/summary.h"

namespace {

using cras::PlayerOptions;
using cras::PlayerStats;
using cras::VolumeTestbed;
using crbase::Seconds;

constexpr crbase::Duration kPlayLength = crbase::Seconds(30);

PlayerStats RunOne(bool use_cras) {
  VolumeTestbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", kPlayLength + Seconds(3));
  CRAS_CHECK(file.ok());
  // Bursty contention (paced cats): heavy enough to perturb UFS, light
  // enough that both file systems sustain the stream's throughput — the
  // paper's Figure 7 setup ("even when both achieve the same throughput").
  auto cats = crbench::SpawnBackgroundCats(bed, 2, crbase::Milliseconds(25));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = kPlayLength;
  crsim::Task player =
      use_cras ? cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats)
               : cras::SpawnUfsPlayer(bed.kernel, bed.unix_server, *file, options, &stats);
  bed.engine().RunFor(kPlayLength + Seconds(8));
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  const PlayerStats cras_stats = RunOne(/*use_cras=*/true);
  const PlayerStats ufs_stats = RunOne(/*use_cras=*/false);

  crstats::PrintBanner("Figure 7: frame delay over time, CRAS vs UFS, with disk load (ms)");
  crstats::Table table({"time_s", "cras_max_delay_ms", "ufs_max_delay_ms"});
  table.SetCsv(csv);
  // Bucket frames into 1 s bins, reporting the worst delay per bin (the
  // spikes are what matter).
  const double bins = crbase::ToSeconds(kPlayLength);
  for (int bin = 0; bin < static_cast<int>(bins); ++bin) {
    const crbase::Time lo = crbase::Seconds(bin);
    const crbase::Time hi = crbase::Seconds(bin + 1);
    auto max_in_bin = [&](const PlayerStats& stats) {
      crbase::Duration worst = 0;
      for (const cras::FrameRecord& f : stats.frames) {
        const crbase::Time rel = f.due_at - stats.frames.front().due_at;
        if (rel >= lo && rel < hi) {
          worst = std::max(worst, f.delay());
        }
      }
      return crbase::ToMilliseconds(worst);
    };
    table.Cell(static_cast<std::int64_t>(bin))
        .Cell(max_in_bin(cras_stats), 3)
        .Cell(max_in_bin(ufs_stats), 3);
    table.EndRow();
  }
  table.Print();

  crstats::Summary cras_summary;
  crstats::Summary ufs_summary;
  for (const cras::FrameRecord& f : cras_stats.frames) {
    cras_summary.Add(crbase::ToMilliseconds(f.delay()));
  }
  for (const cras::FrameRecord& f : ufs_stats.frames) {
    ufs_summary.Add(crbase::ToMilliseconds(f.delay()));
  }
  std::printf("\nsummary (ms):  CRAS mean=%.3f max=%.3f missed=%lld   "
              "UFS mean=%.3f max=%.3f missed=%lld\n",
              cras_summary.mean(), cras_summary.max(),
              static_cast<long long>(cras_stats.frames_missed), ufs_summary.mean(),
              ufs_summary.max(), static_cast<long long>(ufs_stats.frames_missed));
  std::printf("Paper: UFS delay jitter is much larger than CRAS at equal throughput.\n");
  return 0;
}
