// Disk device service-time behaviour.

#include "src/disk/device.h"

#include <gtest/gtest.h>

#include "src/base/time_units.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"

namespace crdisk {
namespace {

using crbase::Milliseconds;
using crbase::ToMilliseconds;

DiskDevice::Options DefaultOptions() {
  DiskDevice::Options options;
  options.geometry = St32550nGeometry();
  return options;
}

TEST(DiskDevice, ServiceTimeDecomposes) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  DiskCompletion result;
  DiskRequest req;
  req.lba = 0;
  req.sectors = 16;
  req.on_complete = [&](const DiskCompletion& c) { result = c; };
  device.StartIo(req, 1, engine.Now());
  EXPECT_TRUE(device.busy());
  engine.Run();
  EXPECT_FALSE(device.busy());
  EXPECT_EQ(result.finished_at, result.started_at + result.command_time + result.seek_time +
                                    result.rotation_time + result.transfer_time);
  EXPECT_EQ(result.command_time, Milliseconds(2));
  EXPECT_EQ(result.seek_time, 0);  // head starts at cylinder 0
  EXPECT_EQ(result.sectors, 16);
}

TEST(DiskDevice, TransferRateMatchesGeometry) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  const DiskGeometry& geo = device.geometry();
  DiskCompletion result;
  DiskRequest req;
  req.lba = 0;
  req.sectors = 512;  // 256 KiB
  req.on_complete = [&](const DiskCompletion& c) { result = c; };
  device.StartIo(req, 1, engine.Now());
  engine.Run();
  const double rate =
      static_cast<double>(result.bytes()) / crbase::ToSeconds(result.transfer_time);
  // Within 0.01% (per-sector time rounds to whole nanoseconds).
  EXPECT_NEAR(rate, geo.transfer_rate(), geo.transfer_rate() * 1e-4);
}

TEST(DiskDevice, SeekChargedForCylinderDistance) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  const DiskGeometry& geo = device.geometry();
  DiskCompletion result;
  DiskRequest req;
  req.lba = 1000 * geo.sectors_per_cylinder();  // cylinder 1000
  req.sectors = 16;
  req.on_complete = [&](const DiskCompletion& c) { result = c; };
  device.StartIo(req, 1, engine.Now());
  engine.Run();
  EXPECT_EQ(result.seek_time, device.MeasureSeek(0, 1000));
  EXPECT_GT(result.seek_time, Milliseconds(6));  // long seek, linear region
  EXPECT_EQ(device.current_cylinder(), 1000);
}

TEST(DiskDevice, RotationalLatencyBoundedByOneRevolution) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  const DiskGeometry& geo = device.geometry();
  for (int i = 0; i < 20; ++i) {
    DiskCompletion result;
    DiskRequest req;
    req.lba = (i * 37) % geo.total_sectors();
    req.sectors = 1;
    req.on_complete = [&](const DiskCompletion& c) { result = c; };
    device.StartIo(req, 1, engine.Now());
    engine.Run();
    EXPECT_GE(result.rotation_time, 0);
    EXPECT_LT(result.rotation_time, geo.rotation_time());
  }
}

TEST(DiskDevice, SequentialReadsIncurNoSeek) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  const DiskGeometry& geo = device.geometry();
  Lba next = 0;
  Duration total_seek = 0;
  for (int i = 0; i < 10; ++i) {
    DiskCompletion result;
    DiskRequest req;
    req.lba = next;
    req.sectors = geo.sectors_per_track;
    req.on_complete = [&](const DiskCompletion& c) { result = c; };
    device.StartIo(req, 1, engine.Now());
    engine.Run();
    total_seek += result.seek_time;
    next += req.sectors;
  }
  // 10 tracks < 1 cylinder worth of tracks? 10 tracks span at most one
  // cylinder boundary on an 11-head disk.
  EXPECT_EQ(total_seek, 0);
}

TEST(DiskDevice, StatsAccumulate) {
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  for (int i = 0; i < 5; ++i) {
    DiskRequest req;
    req.lba = i * 100000;
    req.sectors = 32;
    req.on_complete = [](const DiskCompletion&) {};
    device.StartIo(req, 1, engine.Now());
    engine.Run();
  }
  const DeviceStats& stats = device.stats();
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.sectors, 160);
  EXPECT_EQ(stats.busy_time,
            stats.seek_time + stats.rotation_time + stats.transfer_time + stats.command_time);
  device.ResetStats();
  EXPECT_EQ(device.stats().requests, 0);
}

TEST(DiskDevice, ResetStatsRefusesAnAttachedDevice) {
  // The hub's disk.requests series reads stats().requests; a reset would
  // move it backwards.
  crsim::Engine engine;
  crobs::Hub hub(engine);
  DiskDevice device(engine, DefaultOptions());
  device.AttachObs(&hub, "disk0");
  EXPECT_DEATH(device.ResetStats(), "attached device");
}

TEST(DiskDevice, WriteTimingEqualsReadTiming) {
  // The model charges writes like reads (the paper's write extension relies
  // on this symmetry).
  crsim::Engine engine;
  DiskDevice device(engine, DefaultOptions());
  DiskCompletion read_done;
  DiskCompletion write_done;
  DiskRequest read{IoKind::kRead, 500000, 64, false, [&](const DiskCompletion& c) { read_done = c; }};
  device.StartIo(read, 1, engine.Now());
  engine.Run();
  // Reset head position to make the comparison exact.
  DiskRequest rewind{IoKind::kRead, 0, 1, false, [](const DiskCompletion&) {}};
  device.StartIo(rewind, 2, engine.Now());
  engine.Run();
  const crbase::Time t0 = engine.Now();
  // Align the platter phase: issue at the same angle modulo rotation.
  const Duration rot = device.geometry().rotation_time();
  const crbase::Time aligned = ((t0 + rot - 1) / rot) * rot + (read_done.started_at % rot);
  engine.RunUntil(aligned);
  DiskRequest write{IoKind::kWrite, 500000, 64, false,
                    [&](const DiskCompletion& c) { write_done = c; }};
  device.StartIo(write, 3, engine.Now());
  engine.Run();
  EXPECT_EQ(write_done.service_time(), read_done.service_time());
}

}  // namespace
}  // namespace crdisk
