// Shared runner for Figures 8 and 9: admission-test accuracy.
//
// For N concurrent streams, measure per interval and per member disk the
// ratio of *actual* disk I/O time (the budget ledger's measured total: the
// summed device service time of the real-time requests issued to that disk)
// to the admission test's *estimated* I/O time for that disk. 100% would
// mean a perfect estimate; lower is more pessimistic.

#ifndef BENCH_ADMISSION_ACCURACY_H_
#define BENCH_ADMISSION_ACCURACY_H_

#include "bench/bench_util.h"
#include "src/stats/summary.h"

namespace crbench {

// Opens one-of-each MPEG1 streams on a fresh rig until the admission test
// rejects one; returns the admitted count. `candidates` must exceed the
// rig's capacity (the sweep CHECKs that a rejection was actually seen).
inline int CountAdmittedStreams(const cras::VolumeTestbedOptions& rig_options, int candidates) {
  cras::VolumeTestbed bed(rig_options);
  bed.StartServers();
  const std::vector<crmedia::MediaFile> files = MakeMpeg1Files(bed, candidates, crbase::Seconds(4));
  int accepted = 0;
  bool rejected = false;
  crsim::Task opener = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (const auto& file : files) {
          cras::OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          if (!opened.ok()) {
            rejected = true;
            co_return;
          }
          ++accepted;
        }
      });
  bed.engine().RunFor(crbase::Seconds(4));
  CRAS_CHECK(rejected) << "raise `candidates`: all " << candidates << " streams were admitted";
  return accepted;
}

struct AccuracyResult {
  double avg_ratio_pct = 0;
  double max_ratio_pct = 0;
  int intervals_measured = 0;
};

struct AccuracyConfig {
  int streams = 1;
  bool mpeg2 = false;  // false: 1.5 Mb/s, true: 6 Mb/s
  bool load = false;   // two cat readers + a CPU hog
  crbase::Duration interval = crbase::Seconds(1);
  crbase::Duration run_length = crbase::Seconds(20);
};

inline AccuracyResult MeasureAdmissionAccuracy(const AccuracyConfig& config) {
  cras::VolumeTestbedOptions options;
  options.cras.interval = config.interval;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const crbase::Duration stream_length = config.run_length + crbase::Seconds(4);
  auto files = config.mpeg2 ? MakeMpeg2Files(bed, config.streams, stream_length)
                            : MakeMpeg1Files(bed, config.streams, stream_length);
  std::vector<crsim::Task> cats;
  std::vector<crsim::Task> hogs;
  if (config.load) {
    cats = SpawnBackgroundCats(bed);
  }
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = config.run_length;
  for (int i = 0; i < config.streams; ++i) {
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], player_options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(config.run_length);

  // Keep only steady-state intervals: every admitted stream issuing (at
  // least `streams` requests) with a valid estimate.
  crstats::Summary ratios;
  for (const crobs::BudgetLedger::DiskRow& row : LedgerDiskRows(bed, config.streams)) {
    if (row.predicted.total_ms() > 0) {
      ratios.Add(100.0 * row.actual.total_ms() / row.predicted.total_ms());
    }
  }
  for (const auto& s : stats) {
    CRAS_CHECK(!s->open_rejected) << "config exceeds admission capacity";
  }
  AccuracyResult result;
  result.avg_ratio_pct = ratios.mean();
  result.max_ratio_pct = ratios.max();
  result.intervals_measured = static_cast<int>(ratios.count());
  return result;
}

}  // namespace crbench

#endif  // BENCH_ADMISSION_ACCURACY_H_
