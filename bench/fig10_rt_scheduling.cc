// Figure 10: the effect of real-time scheduling. One 1.5 Mb/s stream
// retrieved through CRAS while CPU-bound tasks run, under fixed-priority
// scheduling vs round-robin timesharing.
//
// Paper result (shape): under round-robin the retrieval's delay jitter is
// much larger than under fixed priority — the server's periodic scheduler
// and the player wait behind the CPU hogs' quanta.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/stats/summary.h"

namespace {

using cras::PlayerOptions;
using cras::PlayerStats;
using cras::VolumeTestbed;
using cras::VolumeTestbedOptions;
using crbase::Seconds;

constexpr crbase::Duration kPlayLength = crbase::Seconds(30);
constexpr int kCpuHogs = 3;

PlayerStats RunWithPolicy(crsim::SchedPolicy policy) {
  VolumeTestbedOptions options;
  options.kernel.policy = policy;
  options.kernel.quantum = crbase::Milliseconds(10);
  VolumeTestbed bed(options);
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", kPlayLength + Seconds(3));
  CRAS_CHECK(file.ok());
  std::vector<crsim::Task> hogs;
  for (int i = 0; i < kCpuHogs; ++i) {
    hogs.push_back(crmedia::SpawnCpuHog(bed.kernel, "hog" + std::to_string(i)));
  }
  PlayerStats stats;
  PlayerOptions player_options;
  player_options.play_length = kPlayLength;
  crsim::Task player =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, player_options, &stats);
  bed.engine().RunFor(kPlayLength + Seconds(8));
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  const PlayerStats fixed = RunWithPolicy(crsim::SchedPolicy::kFixedPriority);
  const PlayerStats rr = RunWithPolicy(crsim::SchedPolicy::kRoundRobin);

  crstats::PrintBanner("Figure 10: frame delay under fixed-priority vs round-robin (ms)");
  std::printf("one 1.5 Mb/s stream + %d CPU-bound tasks, 10 ms round-robin quantum\n",
              kCpuHogs);
  crstats::Table table({"time_s", "fixed_priority_ms", "round_robin_ms"});
  table.SetCsv(csv);
  for (int bin = 0; bin < static_cast<int>(crbase::ToSeconds(kPlayLength)); ++bin) {
    auto max_in_bin = [&](const PlayerStats& stats) {
      crbase::Duration worst = 0;
      for (const cras::FrameRecord& f : stats.frames) {
        const crbase::Time rel = f.due_at - stats.frames.front().due_at;
        if (rel >= crbase::Seconds(bin) && rel < crbase::Seconds(bin + 1)) {
          worst = std::max(worst, f.delay());
        }
      }
      return crbase::ToMilliseconds(worst);
    };
    table.Cell(static_cast<std::int64_t>(bin)).Cell(max_in_bin(fixed), 3).Cell(max_in_bin(rr), 3);
    table.EndRow();
  }
  table.Print();

  crstats::Summary fp_summary;
  crstats::Summary rr_summary;
  for (const cras::FrameRecord& f : fixed.frames) {
    fp_summary.Add(crbase::ToMilliseconds(f.delay()));
  }
  for (const cras::FrameRecord& f : rr.frames) {
    rr_summary.Add(crbase::ToMilliseconds(f.delay()));
  }
  std::printf("\nsummary (ms):  fixed-priority mean=%.3f max=%.3f missed=%lld   "
              "round-robin mean=%.3f max=%.3f missed=%lld\n",
              fp_summary.mean(), fp_summary.max(), static_cast<long long>(fixed.frames_missed),
              rr_summary.mean(), rr_summary.max(), static_cast<long long>(rr.frames_missed));
  std::printf("Paper: round-robin jitter is much larger; real-time scheduling is essential\n"
              "for constant-rate retrieval.\n");
  return 0;
}
