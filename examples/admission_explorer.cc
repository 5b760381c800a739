// admission_explorer: a capacity-planning tool built on the admission
// model. Given a stream rate (Mb/s) and optional chunk size, prints how
// many streams each interval time admits, the buffer memory required, and
// the startup latency implied — the tradeoff table an operator of CRAS
// would actually consult (§2.2: "the interval time is determined by a
// tradeoff between the maximum number of streams ... and the initial
// delay").
//
//   $ ./admission_explorer               # 1.5 Mb/s MPEG1 default
//   $ ./admission_explorer 6.0           # 6 Mb/s MPEG2
//   $ ./admission_explorer 1.5 12288     # custom chunk size (bytes)

#include <cstdio>
#include <cstdlib>

#include "src/base/bytes.h"
#include "src/stats/table.h"
#include "src/volume/admission.h"

int main(int argc, char** argv) {
  double mbps = 1.5;
  std::int64_t chunk_bytes = 0;
  if (argc > 1) {
    mbps = std::atof(argv[1]);
    if (mbps <= 0 || mbps > 50) {
      std::fprintf(stderr, "usage: %s [rate_mbps] [chunk_bytes]\n", argv[0]);
      return 1;
    }
  }
  if (argc > 2) {
    chunk_bytes = std::atoll(argv[2]);
  }
  const double rate = crbase::MbpsToBytesPerSec(mbps);
  if (chunk_bytes <= 0) {
    chunk_bytes = static_cast<std::int64_t>(rate / 30.0);  // one 30 fps frame
  }

  const cras::DiskParams params = cras::MeasuredSt32550nParams();
  std::printf("disk: D=%.1fMB/s seeks=%lld..%lldms rot=%.2fms cmd=%lldms B_other=%lldKB\n",
              params.transfer_rate / 1e6,
              static_cast<long long>(crbase::ToMilliseconds(params.t_seek_min)),
              static_cast<long long>(crbase::ToMilliseconds(params.t_seek_max)),
              crbase::ToMilliseconds(params.t_rot),
              static_cast<long long>(crbase::ToMilliseconds(params.t_cmd)),
              static_cast<long long>(params.b_other / 1024));
  std::printf("stream: %.2f Mb/s (%.0f B/s), chunk %lld bytes\n\n", mbps, rate,
              static_cast<long long>(chunk_bytes));

  crstats::Table table({"interval_ms", "initial_delay_ms", "streams", "disk_share_pct",
                        "buffer_total", "per_stream_buffer"});
  const cras::StreamDemand demand{rate, chunk_bytes};
  for (const std::int64_t interval_ms : {100, 250, 500, 1000, 1500, 2000, 3000}) {
    const crbase::Duration interval = crbase::Milliseconds(interval_ms);
    cras::AdmissionModel model(params, interval, 256 * crbase::kKiB);
    std::vector<cras::StreamDemand> demands;
    int capacity = 0;
    while (capacity < 1000) {
      demands.push_back(demand);
      if (!model.Admissible(demands, 1LL << 40)) {  // memory unconstrained here
        break;
      }
      ++capacity;
    }
    demands.resize(static_cast<std::size_t>(capacity));
    const cras::AdmissionEstimate estimate = model.Evaluate(demands);
    const double share = 100.0 * static_cast<double>(capacity) * rate / params.transfer_rate;
    table.Cell(interval_ms)
        .Cell(2 * interval_ms)
        .Cell(static_cast<std::int64_t>(capacity))
        .Cell(share, 1)
        .Cell(crbase::FormatBytes(estimate.buffer_bytes))
        .Cell(capacity == 0 ? "-" : crbase::FormatBytes(model.BufferBytes(demand)));
    table.EndRow();
  }
  table.Print();
  std::printf("\nLonger intervals amortize worst-case seek/rotation overhead across more\n"
              "transfer time (more streams), but cost startup latency and wired buffer\n"
              "memory linearly. Pick the row whose initial delay your application bears.\n");
  return 0;
}
