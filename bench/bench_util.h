// Shared helpers for the figure/table benches.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/load.h"
#include "src/media/media_file.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/stats/table.h"

namespace crbench {

// True when the bench was invoked with --csv (machine-readable output).
inline bool CsvRequested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") {
      return true;
    }
  }
  return false;
}

// Value of a `--flag=value` argument, or "" when absent.
inline std::string FlagValue(int argc, char** argv, const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return "";
}

// Path given with --trace=<file>, or "" when tracing was not requested.
inline std::string TracePath(int argc, char** argv) {
  return FlagValue(argc, argv, "--trace=");
}

// Standard bench setup: quiets per-event warnings (several benches overload
// the server on purpose, and thousands of deadline-miss warnings would bury
// the tables) and returns the --csv flag. CRAS_LOG in the environment wins
// over the bench default.
inline bool BenchInit(int argc, char** argv) {
  if (!crbase::SetLogLevelFromEnv()) {
    crbase::SetLogLevel(crbase::LogLevel::kError);
  }
  return CsvRequested(argc, argv);
}

// Sum of a counter family across all its label series (0 if absent).
inline std::int64_t CounterTotal(const crobs::RegistrySnapshot& snap, const std::string& name) {
  std::int64_t total = 0;
  for (const crobs::FamilySnapshot& family : snap.families) {
    if (family.name != name) {
      continue;
    }
    for (const crobs::SeriesSnapshot& series : family.series) {
      total += series.counter;
    }
  }
  return total;
}

// Prints the headline counters of a finished run's registry snapshot — the
// same numbers a remote operator would pull with a StatsQuery.
inline void PrintMetricsSnapshot(const crobs::RegistrySnapshot& snap, bool csv) {
  crstats::Table table({"metric", "value"});
  table.SetCsv(csv);
  for (const char* name :
       {"cras.sessions_opened", "cras.sessions_rejected", "cras.bytes_read",
        "cras.read_requests", "cras.deadline_misses", "admission.decisions",
        "volume.requests", "volume.splits", "driver.submitted", "disk.requests",
        "buffer.puts", "buffer.discarded"}) {
    table.Cell(std::string(name)).Cell(CounterTotal(snap, name));
    table.EndRow();
  }
  table.Print();
}

// The budget ledger's per-disk interval rows with at least `min_issued`
// requests issued to that disk, oldest first; measured totals include every
// completion that has landed so far.
inline std::vector<crobs::BudgetLedger::DiskRow> LedgerDiskRows(const cras::VolumeTestbed& bed,
                                                                std::int64_t min_issued) {
  const crobs::BudgetLedger* ledger = bed.hub.ledger();
  CRAS_CHECK(ledger != nullptr);
  std::vector<crobs::BudgetLedger::DiskRow> rows;
  for (const crobs::BudgetLedger::IntervalRow& row : ledger->rows()) {
    for (const crobs::BudgetLedger::DiskRow& disk : row.disks) {
      if (disk.issued_requests >= min_issued) {
        rows.push_back(disk);
      }
    }
  }
  return rows;
}

// Creates N MPEG1 movie files of the given length ("movie0", "movie1", ...).
inline std::vector<crmedia::MediaFile> MakeMpeg1Files(cras::VolumeTestbed& bed, int count,
                                                      crbase::Duration length) {
  std::vector<crmedia::MediaFile> files;
  files.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto file = crmedia::WriteMpeg1File(bed.fs, "movie" + std::to_string(i), length);
    CRAS_CHECK(file.ok()) << file.status().ToString();
    files.push_back(std::move(*file));
  }
  return files;
}

inline std::vector<crmedia::MediaFile> MakeMpeg2Files(cras::VolumeTestbed& bed, int count,
                                                      crbase::Duration length) {
  std::vector<crmedia::MediaFile> files;
  files.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto file = crmedia::WriteMpeg2File(bed.fs, "hdmovie" + std::to_string(i), length);
    CRAS_CHECK(file.ok()) << file.status().ToString();
    files.push_back(std::move(*file));
  }
  return files;
}

// The paper's background disk load: two `cat` programs looping over movie
// files through the Unix file system. Returns the tasks (keep them alive).
// `think_time` > 0 paces the readers (bursty contention instead of full
// saturation).
inline std::vector<crsim::Task> SpawnBackgroundCats(cras::VolumeTestbed& bed, int count = 2,
                                                    crbase::Duration think_time = 0) {
  std::vector<crsim::Task> cats;
  for (int i = 0; i < count; ++i) {
    auto file = crmedia::WriteMpeg1File(bed.fs, "catfood" + std::to_string(i),
                                        crbase::Seconds(120));
    CRAS_CHECK(file.ok()) << file.status().ToString();
    crmedia::CatOptions options;
    options.think_time = think_time;
    cats.push_back(crmedia::SpawnCat(bed.kernel, bed.unix_server, file->inode,
                                     "cat" + std::to_string(i), options));
  }
  return cats;
}

inline double ToMBps(double bytes_per_sec) { return bytes_per_sec / 1e6; }

// An asynchronous bulk I/O producer (an update daemon flushing, a backup
// scan): keeps `outstanding` non-real-time 64 KiB requests queued at the
// driver at all times. Unlike a synchronous `cat`, this builds a deep
// normal-queue backlog — the situation the dual-queue driver modification
// exists for.
inline std::vector<crsim::Task> SpawnBulkIo(cras::VolumeTestbed& bed, int outstanding,
                                            std::uint64_t seed = 99) {
  std::vector<crsim::Task> tasks;
  for (int i = 0; i < outstanding; ++i) {
    tasks.push_back(bed.kernel.Spawn(
        "bulk" + std::to_string(i), crrt::kPriorityTimesharing,
        [&bed, seed, i](crrt::ThreadContext&) -> crsim::Task {
          crbase::Rng rng(seed + static_cast<std::uint64_t>(i));
          const std::int64_t sectors = 128;  // 64 KiB
          const std::int64_t span = bed.volume.device(0).geometry().total_sectors() - sectors;
          for (;;) {
            crdisk::DiskRequest req;
            req.lba = static_cast<crdisk::Lba>(rng.NextBelow(static_cast<std::uint64_t>(span)));
            req.sectors = sectors;
            req.realtime = false;
            (void)co_await bed.volume.driver(0).Execute(std::move(req));
          }
        }));
  }
  return tasks;
}

}  // namespace crbench

#endif  // BENCH_BENCH_UTIL_H_
