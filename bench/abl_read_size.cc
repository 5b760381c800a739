// Ablation A3: the 256 KiB maximum read size. CRAS coalesces contiguous
// blocks up to this limit; smaller limits mean more requests per interval,
// more per-request overhead charged by admission, and lower capacity.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/stats/summary.h"
#include "src/volume/admission.h"

namespace {

using cras::VolumeTestbed;
using cras::VolumeTestbedOptions;
using crbase::Seconds;

struct Outcome {
  int capacity = 0;                       // admitted MPEG2 streams
  double actual_io_ms_per_interval = 0;   // measured at fixed N
  std::int64_t requests_per_interval = 0;
};

Outcome RunOne(std::int64_t max_read_bytes) {
  constexpr int kFixedStreams = 3;
  VolumeTestbedOptions options;
  options.cras.interval = crbase::MillisecondsF(1500);
  options.cras.max_read_bytes = max_read_bytes;
  VolumeTestbed bed(options);
  bed.StartServers();

  Outcome outcome;
  // Capacity via the admission model with the real stream index.
  auto probe = crmedia::WriteMpeg2File(bed.fs, "probe", Seconds(2));
  cras::AdmissionModel model(cras::MeasuredSt32550nParams(), options.cras.interval,
                             max_read_bytes);
  cras::StreamDemand demand{probe->index.WorstRate(options.cras.interval),
                            probe->index.max_chunk_bytes()};
  std::vector<cras::StreamDemand> demands;
  while (outcome.capacity < 40) {
    demands.push_back(demand);
    if (!model.Admissible(demands, 64 * crbase::kMiB)) {
      break;
    }
    ++outcome.capacity;
  }

  // Measured interval I/O at a fixed stream count that fits in every config.
  auto files = crbench::MakeMpeg2Files(bed, kFixedStreams, Seconds(15));
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(12);
  for (int i = 0; i < kFixedStreams; ++i) {
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], player_options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(Seconds(15));
  crstats::Summary actual;
  crstats::Summary requests;
  for (const crobs::BudgetLedger::DiskRow& row : crbench::LedgerDiskRows(bed, kFixedStreams)) {
    actual.Add(row.actual.total_ms());
    requests.Add(static_cast<double>(row.issued_requests));
  }
  outcome.actual_io_ms_per_interval = actual.mean();
  outcome.requests_per_interval = static_cast<std::int64_t>(requests.mean() + 0.5);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  crstats::PrintBanner("Ablation A3: maximum coalesced read size (6 Mb/s streams, T=1.5s)");
  crstats::Table table({"max_read", "admitted_streams", "reqs_per_interval",
                        "actual_io_ms_per_interval"});
  table.SetCsv(csv);
  for (std::int64_t kib : {32, 64, 128, 256, 512}) {
    const Outcome o = RunOne(kib * crbase::kKiB);
    table.Cell(std::to_string(kib) + "KiB")
        .Cell(static_cast<std::int64_t>(o.capacity))
        .Cell(o.requests_per_interval)
        .Cell(o.actual_io_ms_per_interval, 2);
    table.EndRow();
  }
  table.Print();
  std::printf("\nExpected: larger coalesced reads amortize seek/rotation/command overhead\n"
              "over more bytes — fewer requests per interval and higher admitted capacity,\n"
              "with diminishing returns past 256 KiB (the paper's choice).\n");
  return 0;
}
