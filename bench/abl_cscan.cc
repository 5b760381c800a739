// Ablation A2: C-SCAN vs FIFO ordering of the real-time queue, and CRAS's
// own cylinder-order submission.
//
// C-SCAN is what makes the O_seek bound of formula (12) valid: with FIFO
// service, per-interval seek time grows with the square of the stream
// count's scatter and the measured interval I/O time climbs toward the
// estimate.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/stats/summary.h"

namespace {

using cras::VolumeTestbed;
using cras::VolumeTestbedOptions;
using crbase::Seconds;

struct Outcome {
  double seek_ms_per_interval = 0;
  double actual_io_ms_per_interval = 0;
  std::int64_t deadline_misses = 0;
};

Outcome RunOne(crdisk::QueueDiscipline discipline, bool server_sorts, int streams) {
  VolumeTestbedOptions options;
  options.volume.driver.discipline = discipline;
  options.cras.sort_requests_by_cylinder = server_sorts;
  VolumeTestbed bed(options);
  bed.StartServers();
  auto files = crbench::MakeMpeg1Files(bed, streams, Seconds(18));
  // Shuffle the session-open order relative to on-disk placement: files are
  // allocated in ascending cylinder-group order, so without a shuffle the
  // "unsorted" submission order would accidentally be sorted.
  crbase::Rng rng(13);
  for (std::size_t i = files.size(); i > 1; --i) {
    std::swap(files[i - 1], files[rng.NextBelow(i)]);
  }
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(15);
  for (int i = 0; i < streams; ++i) {
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], player_options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(Seconds(18));
  Outcome outcome;
  crstats::Summary actual;
  std::int64_t intervals = 0;
  for (const crobs::BudgetLedger::DiskRow& row : crbench::LedgerDiskRows(bed, streams)) {
    actual.Add(row.actual.total_ms());
    ++intervals;
  }
  outcome.actual_io_ms_per_interval = actual.mean();
  outcome.seek_ms_per_interval =
      intervals == 0 ? 0
                     : crbase::ToMilliseconds(bed.volume.device(0).stats().seek_time) /
                           static_cast<double>(intervals);
  outcome.deadline_misses = bed.cras_server.stats().deadline_misses;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  crstats::PrintBanner("Ablation A2: C-SCAN vs FIFO real-time queue ordering");
  crstats::Table table({"streams", "server_sort", "driver_queue", "seek_ms_per_interval",
                        "actual_io_ms_per_interval", "deadline_misses"});
  table.SetCsv(csv);
  struct Config {
    bool server_sorts;
    crdisk::QueueDiscipline discipline;
    const char* sort_label;
    const char* queue_label;
  };
  // CRAS sorts by cylinder *and* the driver queue is C-SCAN; the two are
  // redundant by design. Ablating both shows whether either suffices and
  // what happens with neither.
  const Config configs[] = {
      {true, crdisk::QueueDiscipline::kCScan, "cylinder", "c-scan"},
      {false, crdisk::QueueDiscipline::kCScan, "none", "c-scan"},
      {true, crdisk::QueueDiscipline::kFifo, "cylinder", "fifo"},
      {false, crdisk::QueueDiscipline::kFifo, "none", "fifo"},
  };
  for (int streams : {4, 8, 14}) {
    for (const Config& config : configs) {
      const Outcome o = RunOne(config.discipline, config.server_sorts, streams);
      table.Cell(static_cast<std::int64_t>(streams))
          .Cell(config.sort_label)
          .Cell(config.queue_label)
          .Cell(o.seek_ms_per_interval, 2)
          .Cell(o.actual_io_ms_per_interval, 2)
          .Cell(o.deadline_misses);
      table.EndRow();
    }
  }
  table.Print();
  std::printf("\nExpected: either mechanism (server cylinder sort or driver C-SCAN) keeps\n"
              "per-interval seek time low; with neither, seek time grows with the stream\n"
              "count and the O_seek bound of formula (12) no longer reflects reality.\n");
  return 0;
}
