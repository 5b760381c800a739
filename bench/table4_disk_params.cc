// Table 4: measured disk parameters of the (simulated) ST32550N, obtained
// the way the paper obtained them — with small measurement programs run
// against the drive, not by reading the model's configuration.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/disk/device.h"
#include "src/disk/seek_model.h"
#include "src/stats/summary.h"

namespace {

using crdisk::DiskCompletion;
using crdisk::DiskDevice;
using crdisk::DiskRequest;

// Issues one read and runs the engine to completion.
DiskCompletion ReadSync(crsim::Engine& engine, DiskDevice& device, crdisk::Lba lba,
                        std::int64_t sectors) {
  DiskCompletion result;
  DiskRequest req;
  req.lba = lba;
  req.sectors = sectors;
  req.on_complete = [&result](const DiskCompletion& c) { result = c; };
  device.StartIo(req, 1, engine.Now());
  engine.Run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  crsim::Engine engine;
  DiskDevice::Options device_options;
  device_options.geometry = crdisk::St32550nGeometry();
  DiskDevice device(engine, device_options);
  const crdisk::DiskGeometry& geo = device.geometry();

  // --- D: media transfer rate from a large sequential read -----------------
  const std::int64_t big_sectors = 32768;  // 16 MiB
  const DiskCompletion big = ReadSync(engine, device, 0, big_sectors);
  const double d_measured =
      static_cast<double>(big.bytes()) / crbase::ToSeconds(big.service_time());

  // --- T_rot: re-read the same sector back to back -------------------------
  // After reading sector S the head sits just past it; re-reading S costs
  // command overhead + (a full revolution minus the command time) + one
  // sector: exactly one revolution.
  const crdisk::Lba probe = 500 * geo.sectors_per_cylinder();
  (void)ReadSync(engine, device, probe, 1);
  const DiskCompletion again = ReadSync(engine, device, probe, 1);
  const crbase::Duration t_rot_measured = again.service_time();

  // --- T_cmd: random single-sector reads within one cylinder ---------------
  // No seek is involved; the expected rotational wait is T_rot/2, so
  // T_cmd = mean(service) - T_rot/2 - t_sector.
  crbase::Rng rng(2024);
  crstats::Summary same_cyl;
  for (int i = 0; i < 400; ++i) {
    const crdisk::Lba lba =
        probe + static_cast<crdisk::Lba>(rng.NextBelow(
                    static_cast<std::uint64_t>(geo.sectors_per_cylinder())));
    same_cyl.Add(crbase::ToMilliseconds(ReadSync(engine, device, lba, 1).service_time()));
  }
  const double t_sector_ms = 512.0 / d_measured * 1000.0;
  const double t_cmd_measured_ms =
      same_cyl.mean() - crbase::ToMilliseconds(t_rot_measured) / 2.0 - t_sector_ms;

  // --- T_seek_min / T_seek_max: linear fit over measured seeks -------------
  std::vector<crdisk::SeekSample> samples;
  for (std::int64_t distance = 10; distance < geo.cylinders; distance += 50) {
    samples.push_back({distance, device.MeasureSeek(0, distance)});
  }
  const crdisk::LinearSeekModel fit = crdisk::FitLinearSeekModel(samples, geo.cylinders);

  // --- B_other: largest non-real-time request the system produces ----------
  // The Unix server's clustered reads are the biggest other traffic.
  const std::int64_t b_other = crufs::kClusterBlocks * crufs::kBlockSize;

  crstats::PrintBanner("Table 4: measured disk parameters (paper vs this model)");
  crstats::Table table({"parameter", "paper", "measured"});
  table.SetCsv(csv);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fMB/s", d_measured / 1e6);
  table.Cell("D").Cell("6.5MB/s").Cell(buf);
  table.EndRow();
  std::snprintf(buf, sizeof(buf), "%.2fms", crbase::ToMilliseconds(fit.t_seek_max()));
  table.Cell("T_seek_max").Cell("17ms").Cell(buf);
  table.EndRow();
  std::snprintf(buf, sizeof(buf), "%.2fms", crbase::ToMilliseconds(fit.t_seek_min()));
  table.Cell("T_seek_min").Cell("4ms").Cell(buf);
  table.EndRow();
  std::snprintf(buf, sizeof(buf), "%.2fms", crbase::ToMilliseconds(t_rot_measured));
  table.Cell("T_rot").Cell("8.33ms").Cell(buf);
  table.EndRow();
  std::snprintf(buf, sizeof(buf), "%.2fms", t_cmd_measured_ms);
  table.Cell("T_cmd").Cell("2ms").Cell(buf);
  table.EndRow();
  std::snprintf(buf, sizeof(buf), "%lldKB", static_cast<long long>(b_other / 1024));
  table.Cell("B_other").Cell("64KB").Cell(buf);
  table.EndRow();
  table.Print();
  return 0;
}
