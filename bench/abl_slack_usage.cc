// Ablation A7 (paper §3.2, problem 2 discussion): the admission test's
// pessimism is not pure waste — "the rest of the throughput may be used by
// non-real-time disk accesses."
//
// With N admitted CRAS streams running, the background (non-real-time)
// readers absorb the disk time the worst-case estimate reserved but the
// streams never used. Measured: CRAS goodput, background goodput, and
// total disk utilization as N grows.

#include <cstdio>

#include "bench/bench_util.h"

namespace {

using cras::VolumeTestbed;
using crbase::Seconds;

struct Outcome {
  double cras_mbps = 0;
  double background_mbps = 0;
  double disk_utilization_pct = 0;
  std::int64_t frames_missed = 0;
};

Outcome RunOne(int streams) {
  VolumeTestbed bed;
  bed.StartServers();
  auto files = crbench::MakeMpeg1Files(bed, streams, Seconds(14));
  auto cats = crbench::SpawnBackgroundCats(bed);  // greedy non-RT readers
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(10);
  for (int i = 0; i < streams; ++i) {
    player_options.start_delay = crbase::Milliseconds(73) * i;
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], player_options,
                                            stats.back().get()));
  }
  const crbase::Duration window = Seconds(12);
  bed.engine().RunFor(window);
  Outcome outcome;
  outcome.cras_mbps = crbench::ToMBps(
      static_cast<double>(bed.cras_server.stats().bytes_read) / crbase::ToSeconds(window));
  // Background bytes = blocks the Unix server pulled from disk.
  outcome.background_mbps = crbench::ToMBps(
      static_cast<double>(bed.unix_server.stats().blocks_from_disk * bed.fs.block_size()) /
      crbase::ToSeconds(window));
  outcome.disk_utilization_pct =
      100.0 * static_cast<double>(bed.volume.device(0).stats().busy_time) /
      static_cast<double>(window);
  for (const auto& s : stats) {
    outcome.frames_missed += s->frames_missed;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  crstats::PrintBanner(
      "Ablation A7: non-real-time traffic absorbs the admission slack (MB/s)");
  crstats::Table table({"cras_streams", "cras_MBps", "background_MBps", "total_MBps",
                        "disk_util_pct", "missed"});
  table.SetCsv(csv);
  for (int streams : {0, 2, 4, 8, 12, 14}) {
    const Outcome o = RunOne(streams);
    table.Cell(static_cast<std::int64_t>(streams))
        .Cell(o.cras_mbps, 2)
        .Cell(o.background_mbps, 2)
        .Cell(o.cras_mbps + o.background_mbps, 2)
        .Cell(o.disk_utilization_pct, 1)
        .Cell(o.frames_missed);
    table.EndRow();
  }
  table.Print();
  std::printf("\nExpected: background goodput shrinks as streams are admitted but never\n"
              "reaches zero while slack exists; total disk usage stays high, and the\n"
              "streams stay clean (missed = 0) — pessimism costs admitted capacity, not\n"
              "actual disk time.\n");
  return 0;
}
