// Figure 6: CRAS vs UFS aggregate throughput, 1..25 MPEG1 (1.5 Mb/s)
// streams, with and without background disk load (two `cat` readers).
//
// Paper result (shape): CRAS scales linearly to its admission limit and is
// unaffected by background load; UFS saturates around 9 streams without
// load and collapses to ~0 with load. CRAS reaches ~55% of the disk's
// bandwidth at a 0.5 s interval and more with longer intervals.
//
// Extension section: the interval-time sweep behind the paper's "with 3
// seconds initial delay it can support more than 25 MPEG1 streams (70% of
// disk bandwidth)" claim.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/volume/admission.h"

namespace {

using cras::PlayerOptions;
using cras::PlayerStats;
using cras::VolumeTestbed;
using cras::VolumeTestbedOptions;
using crbase::Seconds;

constexpr crbase::Duration kPlayLength = crbase::Seconds(10);
constexpr crbase::Duration kRunLength = crbase::Seconds(16);

// Throughput counts only frames delivered within kOnTime of their schedule
// — the paper's notion of "supporting" a stream. Data that trickles in late
// is useless to a playback application.
constexpr crbase::Duration kOnTime = crbase::Milliseconds(100);

struct Run {
  double throughput_mbps = 0;  // on-time MB/s across all streams
  int streams_playing = 0;     // admitted (CRAS) / attempted (UFS)
  std::int64_t frames_missed = 0;
};

// When `obs` is non-null the run records a trace (written to obs->trace_path
// unless empty) and leaves the final registry snapshot in obs->snapshot.
struct ObsCapture {
  std::string trace_path;
  crobs::RegistrySnapshot snapshot;
};

Run RunCras(int streams, bool load, crbase::Duration interval,
            std::int64_t memory_budget = 0, ObsCapture* obs = nullptr) {
  VolumeTestbedOptions options;
  options.cras.interval = interval;
  if (memory_budget > 0) {
    options.cras.memory_budget_bytes = memory_budget;
  }
  if (obs != nullptr && !obs->trace_path.empty()) {
    options.obs.trace.enabled = true;
    options.obs.trace.capacity = 1 << 18;  // keep the whole run, ~260k events
  }
  VolumeTestbed bed(options);
  bed.StartServers();
  auto files = crbench::MakeMpeg1Files(bed, streams, kPlayLength + Seconds(3));
  std::vector<crsim::Task> cats;
  if (load) {
    cats = crbench::SpawnBackgroundCats(bed);
  }
  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  PlayerOptions player_options;
  player_options.play_length = kPlayLength;
  for (int i = 0; i < streams; ++i) {
    player_options.start_delay = crbase::Milliseconds(73) * i;
    stats.push_back(std::make_unique<PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], player_options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(kRunLength + crbase::Milliseconds(73) * streams);
  Run run;
  std::int64_t bytes = 0;
  for (const auto& s : stats) {
    bytes += s->OnTimeBytes(kOnTime);
    run.frames_missed += s->frames_missed;
    if (!s->open_rejected) {
      ++run.streams_playing;
    }
  }
  run.throughput_mbps = crbench::ToMBps(static_cast<double>(bytes) /
                                        crbase::ToSeconds(kPlayLength));
  if (obs != nullptr) {
    obs->snapshot = bed.hub.metrics().Snapshot();
    if (!obs->trace_path.empty() && bed.hub.WriteTraceFile(obs->trace_path)) {
      std::printf("wrote Chrome trace (%zu events) to %s\n", bed.hub.trace().size(),
                  obs->trace_path.c_str());
    }
  }
  return run;
}

Run RunUfs(int streams, bool load) {
  VolumeTestbedOptions options;
  VolumeTestbed bed(options);
  bed.StartServers();
  auto files = crbench::MakeMpeg1Files(bed, streams, kPlayLength + Seconds(3));
  std::vector<crsim::Task> cats;
  if (load) {
    cats = crbench::SpawnBackgroundCats(bed);
  }
  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  PlayerOptions player_options;
  player_options.play_length = kPlayLength;
  for (int i = 0; i < streams; ++i) {
    player_options.start_delay = crbase::Milliseconds(73) * i;
    stats.push_back(std::make_unique<PlayerStats>());
    players.push_back(cras::SpawnUfsPlayer(bed.kernel, bed.unix_server,
                                           files[static_cast<std::size_t>(i)], player_options,
                                           stats.back().get()));
  }
  bed.engine().RunFor(kRunLength + crbase::Milliseconds(73) * streams);
  Run run;
  run.streams_playing = streams;
  std::int64_t bytes = 0;
  for (const auto& s : stats) {
    bytes += s->OnTimeBytes(kOnTime);
    run.frames_missed += s->frames_missed;
  }
  run.throughput_mbps =
      crbench::ToMBps(static_cast<double>(bytes) / crbase::ToSeconds(kPlayLength));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);

  crstats::PrintBanner("Figure 6: CRAS vs UFS throughput, 1.5 Mb/s streams (MB/s)");
  std::printf("interval 0.5s, initial delay 1s, play length %.0fs; load = two cat readers\n",
              crbase::ToSeconds(kPlayLength));
  crstats::Table table({"streams", "cras_noload", "cras_load", "ufs_noload", "ufs_load",
                        "cras_admitted"});
  table.SetCsv(csv);
  for (int n = 1; n <= 25; n += (n < 10 ? 1 : 3)) {
    const Run cras_noload = RunCras(n, false, crbase::Milliseconds(500));
    const Run cras_load = RunCras(n, true, crbase::Milliseconds(500));
    const Run ufs_noload = RunUfs(n, false);
    const Run ufs_load = RunUfs(n, true);
    table.Cell(static_cast<std::int64_t>(n))
        .Cell(cras_noload.throughput_mbps)
        .Cell(cras_load.throughput_mbps)
        .Cell(ufs_noload.throughput_mbps)
        .Cell(ufs_load.throughput_mbps)
        .Cell(static_cast<std::int64_t>(cras_noload.streams_playing));
    table.EndRow();
  }
  table.Print();

  crstats::PrintBanner("Figure 6 extension: interval time vs CRAS capacity");
  crstats::Table sweep({"interval_s", "initial_delay_s", "admitted", "delivered_MBps",
                        "disk_share_pct", "frames_missed"});
  sweep.SetCsv(csv);
  for (const double interval_s : {0.5, 1.0, 1.5, 3.0}) {
    const crbase::Duration interval = crbase::SecondsF(interval_s);
    // Find the admission capacity, then run it.
    cras::AdmissionModel model(cras::MeasuredSt32550nParams(), interval, 256 * crbase::kKiB);
    const std::int64_t sweep_budget = 24 * crbase::kMiB;
    // The derived worst-case MPEG1 rate over a window is slightly above the
    // nominal 187.5 KB/s; use the real stream index to match the server.
    VolumeTestbed probe;
    auto probe_file = crmedia::WriteMpeg1File(probe.fs, "probe", Seconds(2));
    cras::StreamDemand demand{probe_file->index.WorstRate(interval),
                              probe_file->index.max_chunk_bytes()};
    std::vector<cras::StreamDemand> demands;
    int capacity = 0;
    while (capacity < 40) {
      demands.push_back(demand);
      if (!model.Admissible(demands, sweep_budget)) {
        break;
      }
      ++capacity;
    }
    // A 32 MB machine dedicates more wired buffer memory than the default
    // 12 MiB; the long-interval points are memory-bound otherwise.
    const Run run = RunCras(capacity, /*load=*/true, interval, 24 * crbase::kMiB);
    const double share = 100.0 * run.throughput_mbps * 1e6 / 6.5e6;
    sweep.Cell(interval_s, 1)
        .Cell(2 * interval_s, 1)
        .Cell(static_cast<std::int64_t>(run.streams_playing))
        .Cell(run.throughput_mbps)
        .Cell(share, 1)
        .Cell(run.frames_missed);
    sweep.EndRow();
  }
  sweep.Print();

  // Representative instrumented run: 10 streams under background load at the
  // paper's 0.5 s interval. The snapshot is what a StatsQuery would return;
  // --trace=<file> additionally dumps the run as Chrome trace_event JSON
  // (disk-request spans, per-interval prefetch spans, deadline-slack track).
  crstats::PrintBanner("Metrics snapshot: 10 streams, load, T = 0.5 s");
  ObsCapture obs;
  obs.trace_path = crbench::TracePath(argc, argv);
  (void)RunCras(10, /*load=*/true, crbase::Milliseconds(500), /*memory_budget=*/0, &obs);
  crbench::PrintMetricsSnapshot(obs.snapshot, csv);

  std::printf("\nPaper: CRAS ~55%% of disk bandwidth at 0.5s interval, >25 streams (70%%)\n"
              "with a 3s initial delay; UFS <= 9 streams unloaded, ~0 under load.\n");
  return 0;
}
