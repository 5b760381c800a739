// Striped-volume scaling: admitted 1.5 Mb/s (MPEG1) stream capacity and
// delivered throughput as the volume grows from 1 to 8 member disks.
//
// For each array size the bench (a) fills the server with streams until
// admission rejects one, then (b) replays the full admitted load on a fresh
// rig and verifies every interval's fanned-out I/O completed by its
// deadline, with no member disk spending more than T on one interval's I/O
// (the budget ledger's per-disk rows). Expected shape: near-linear capacity
// scaling with a small per-disk tax from the split model's one-window /
// one-request skew allowance (>= 1.8x at 2 disks, >= 3x at 4 disks against
// the single-disk capacity of 14 at T = 0.5 s).
//
// Besides the table, the bench writes BENCH_scale_striping.json (current
// directory, or the path given with --out <file>) for machine consumption.
//
// A second sweep covers the parity layout under failure: for each width the
// rig is filled healthy, one member is fail-stopped mid-playback
// (--fail-disk=<i>@<t_ms>, default 0@2000), and the degradation controller's
// kept count is checked against the degraded admission model's capacity.
// Results land in BENCH_degraded_striping.json.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/admission_accuracy.h"
#include "bench/bench_util.h"
#include "src/fault/fault.h"
#include "src/volume/striped_volume.h"
#include "src/volume/volume_admission.h"

namespace {

struct ScalePoint {
  int disks = 0;
  int admitted = 0;
  double scaling = 1.0;           // admitted / single-disk admitted
  std::int64_t bytes_read = 0;    // replay phase
  double throughput_mbps = 0.0;   // delivered, replay phase
  std::int64_t deadline_misses = 0;
  std::int64_t frames_missed = 0;
  std::int64_t late_intervals = 0;
  double worst_interval_io_ms = 0.0;  // the most one disk spent on one interval
};

cras::VolumeTestbedOptions RigOptions(int disks, bool parity = false) {
  cras::VolumeTestbedOptions options;
  options.volume.disks = disks;
  options.volume.parity = parity;
  // Keep the disks, not the wired-buffer budget, the binding constraint:
  // eight ST32550Ns admit over a hundred MPEG1 streams (~21 MB of double
  // buffers), past the single-disk default of 12 MiB.
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  return options;
}

// Opens streams until the admission test rejects one; returns the count.
int CountAdmitted(int disks, int candidates, bool parity = false) {
  return crbench::CountAdmittedStreams(RigOptions(disks, parity), candidates);
}

// When non-null, the replay run records a trace (written to trace_path
// unless empty) and leaves the final registry snapshot behind.
struct ObsCapture {
  std::string trace_path;
  crobs::RegistrySnapshot snapshot;
};

// Replays `streams` concurrent players on a fresh rig; fills in the
// delivery-side fields of `point`.
void MeasureDelivery(int disks, int streams, ScalePoint* point, ObsCapture* obs = nullptr) {
  cras::VolumeTestbedOptions rig_options = RigOptions(disks);
  if (obs != nullptr && !obs->trace_path.empty()) {
    rig_options.obs.trace.enabled = true;
    rig_options.obs.trace.capacity = 1 << 18;
  }
  cras::VolumeTestbed bed(rig_options);
  bed.StartServers();
  const std::vector<crmedia::MediaFile> files =
      crbench::MakeMpeg1Files(bed, streams, crbase::Seconds(10));
  const crbase::Duration play_length = crbase::Seconds(6);
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions options;
  options.play_length = play_length;
  for (int i = 0; i < streams; ++i) {
    // Staggered starts: spread the client mob across one interval.
    options.start_delay = crbase::Milliseconds(500) * i / streams;
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(play_length + crbase::Seconds(6));

  for (const auto& s : stats) {
    CRAS_CHECK(!s->open_rejected) << "replay phase must fit the admitted count";
    point->frames_missed += s->frames_missed;
  }
  point->bytes_read = bed.cras_server.stats().bytes_read;
  point->deadline_misses = bed.cras_server.stats().deadline_misses;
  point->throughput_mbps =
      static_cast<double>(point->bytes_read) / crbase::ToSeconds(play_length) / 1e6;
  // Late intervals: the distinct slots of the flight recorder's deadline-miss
  // events, counted only from a ring that dropped none.
  const crobs::FlightRecorder& flight = bed.hub.flight();
  CRAS_CHECK(flight.dropped() == 0) << "the flight ring dropped events";
  std::set<std::int64_t> late_slots;
  for (const crobs::FlightEvent& event : flight.events()) {
    if (event.kind == crobs::FlightEventKind::kDeadlineMiss) {
      late_slots.insert(event.b);
    }
  }
  point->late_intervals = static_cast<std::int64_t>(late_slots.size());
  for (const crobs::BudgetLedger::DiskRow& row : crbench::LedgerDiskRows(bed, 0)) {
    point->worst_interval_io_ms = std::max(point->worst_interval_io_ms, row.actual.total_ms());
  }
  // The admitted load keeps every member disk's interval I/O within T.
  CRAS_CHECK(point->worst_interval_io_ms <= crobs::ToMillis(rig_options.cras.interval))
      << disks << " disks: a disk spent " << point->worst_interval_io_ms
      << " ms on one interval's I/O";
  if (obs != nullptr) {
    obs->snapshot = bed.hub.metrics().Snapshot();
    if (!obs->trace_path.empty() && bed.hub.WriteTraceFile(obs->trace_path)) {
      std::printf("wrote Chrome trace (%zu events) to %s\n", bed.hub.trace().size(),
                  obs->trace_path.c_str());
    }
  }
}

// Per-member-disk fan-out balance, from the volume/driver counters: a skewed
// stripe layout would show up here as unequal piece counts.
void PrintFanOut(const crobs::RegistrySnapshot& snap, int disks, bool csv) {
  crstats::Table table({"disk", "volume_pieces", "driver_rt", "driver_nr"});
  table.SetCsv(csv);
  for (int d = 0; d < disks; ++d) {
    const std::string name = "disk" + std::to_string(d);
    const crobs::SeriesSnapshot* pieces =
        snap.Find("volume.pieces", {{"volume", "disk"}, {"disk", name}});
    const crobs::SeriesSnapshot* rt =
        snap.Find("driver.submitted", {{"disk", name}, {"queue", "rt"}});
    const crobs::SeriesSnapshot* nr =
        snap.Find("driver.submitted", {{"disk", name}, {"queue", "nr"}});
    table.Cell(name)
        .Cell(pieces != nullptr ? pieces->counter : 0)
        .Cell(rt != nullptr ? rt->counter : 0)
        .Cell(nr != nullptr ? nr->counter : 0);
    table.EndRow();
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// Degraded sweep: the parity layout losing one member mid-playback.

struct DegradedPoint {
  int disks = 0;
  int healthy_admitted = 0;    // streams the healthy parity rig admits
  int degraded_capacity = 0;   // the degraded model's maximum
  int kept = 0;                // streams still playing after the failure
  int shed = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t frames_missed_kept = 0;  // among kept streams only
  std::int64_t reconstruction_pieces = 0;
};

// The degraded admission model's stream capacity for this rig, mirroring
// the demand CrasServer derives at crs_open.
int DegradedCapacity(int disks, const cras::VolumeTestbedOptions& options,
                     const crvol::Volume& volume, const crmedia::MediaFile& file,
                     int failed_disk) {
  crvol::VolumeAdmissionModel model(options.cras.disk_params, disks, options.cras.interval,
                                    options.cras.max_read_bytes, volume.stripe_unit_bytes());
  model.set_parity(true);
  model.SetMemberFailed(failed_disk, true);
  cras::StreamDemand demand;
  demand.rate_bytes_per_sec = file.index.WorstRate(options.cras.interval);
  demand.chunk_bytes = file.index.max_chunk_bytes();
  int n = 0;
  while (model.Admissible(
      std::vector<cras::StreamDemand>(static_cast<std::size_t>(n + 1), demand),
      options.cras.memory_budget_bytes)) {
    ++n;
  }
  return n;
}

// Fills a parity rig of `disks` members with its healthy admitted load,
// fail-stops one member per `fail`, and measures what survives.
void MeasureDegraded(int disks, const crfault::FaultEvent& fail, DegradedPoint* point) {
  const cras::VolumeTestbedOptions rig_options = RigOptions(disks, /*parity=*/true);
  cras::VolumeTestbed bed(rig_options);
  bed.StartServers();
  const int streams = point->healthy_admitted;
  const std::vector<crmedia::MediaFile> files =
      crbench::MakeMpeg1Files(bed, streams, crbase::Seconds(10));
  point->degraded_capacity =
      DegradedCapacity(disks, rig_options, bed.volume, files.front(), fail.disk);

  const crbase::Duration play_length = crbase::Seconds(6);
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions options;
  options.play_length = play_length;
  for (int i = 0; i < streams; ++i) {
    options.start_delay = crbase::Milliseconds(500) * i / streams;
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)], options,
                                            stats.back().get()));
  }
  crfault::FaultPlan plan;
  plan.Add(fail);
  crfault::FaultInjector injector(bed.engine(), bed.volume, plan);
  injector.Arm();
  bed.engine().RunFor(play_length + crbase::Seconds(6));

  for (const auto& s : stats) {
    CRAS_CHECK(!s->open_rejected) << "the healthy fill must fit its own rig";
    if (s->shed) {
      ++point->shed;
    } else {
      ++point->kept;
      point->frames_missed_kept += s->frames_missed;
    }
  }
  point->deadline_misses = bed.cras_server.stats().deadline_misses;
  point->reconstruction_pieces = bed.volume.stats().total_reconstruction_pieces();
  // The controller's verdict must be the model's: the kept set is the
  // degraded capacity (or the whole load, when it already fit).
  CRAS_CHECK(point->kept == std::min(streams, point->degraded_capacity))
      << "kept " << point->kept << " of " << streams << ", model says "
      << point->degraded_capacity;
}

void WriteDegradedJson(const std::string& path, const std::string& fail_spec,
                       const std::vector<DegradedPoint>& points) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"degraded_striping\",\n"
      << "  \"stream\": \"MPEG1 1.5 Mb/s\",\n"
      << "  \"layout\": \"rotating parity\",\n"
      << "  \"fail_disk\": \"" << fail_spec << "\",\n"
      << "  \"interval_ms\": 500,\n"
      << "  \"memory_budget_bytes\": " << 64 * crbase::kMiB << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DegradedPoint& p = points[i];
    out << "    {\"disks\": " << p.disks << ", \"healthy_admitted\": " << p.healthy_admitted
        << ", \"degraded_capacity\": " << p.degraded_capacity << ", \"kept\": " << p.kept
        << ", \"shed\": " << p.shed << ", \"deadline_misses\": " << p.deadline_misses
        << ", \"frames_missed_kept\": " << p.frames_missed_kept
        << ", \"reconstruction_pieces\": " << p.reconstruction_pieces << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void WriteJson(const std::string& path, const std::vector<ScalePoint>& points) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"scale_striping\",\n"
      << "  \"stream\": \"MPEG1 1.5 Mb/s\",\n"
      << "  \"interval_ms\": 500,\n"
      << "  \"stripe_unit_bytes\": " << 256 * crbase::kKiB << ",\n"
      << "  \"memory_budget_bytes\": " << 64 * crbase::kMiB << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "    {\"disks\": " << p.disks << ", \"admitted\": " << p.admitted
        << ", \"scaling_vs_one_disk\": " << p.scaling
        << ", \"delivered_mbps\": " << p.throughput_mbps
        << ", \"bytes_read\": " << p.bytes_read
        << ", \"deadline_misses\": " << p.deadline_misses
        << ", \"late_intervals\": " << p.late_intervals
        << ", \"frames_missed\": " << p.frames_missed
        << ", \"worst_interval_io_ms\": " << p.worst_interval_io_ms << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  std::string json_path = "BENCH_scale_striping.json";
  std::string fail_spec = "0@2000";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--out" && i + 1 < argc) {
      json_path = argv[i + 1];
    } else if (arg.rfind("--fail-disk=", 0) == 0) {
      fail_spec = arg.substr(std::string("--fail-disk=").size());
    }
  }
  const auto fail_event = crfault::FaultPlan::ParseSpec(fail_spec);
  CRAS_CHECK(fail_event.ok()) << "--fail-disk wants <disk>@<t_ms>: "
                              << fail_event.status().ToString();

  crstats::PrintBanner("Striping scale-out: admitted MPEG1 streams vs member disks");
  std::printf("T = 0.5 s, 256 KiB stripe unit, per-disk admission, 64 MiB buffer budget\n");
  crstats::Table table({"disks", "admitted", "scaling", "delivered_MBps", "deadline_misses",
                        "late_intervals", "frames_missed", "worst_io_ms"});
  table.SetCsv(csv);

  std::vector<ScalePoint> points;
  ObsCapture obs;
  obs.trace_path = crbench::TracePath(argc, argv);
  int single_disk_admitted = 0;
  for (const int disks : {1, 2, 4, 8}) {
    ScalePoint point;
    point.disks = disks;
    point.admitted = CountAdmitted(disks, 32 * disks);
    if (disks == 1) {
      single_disk_admitted = point.admitted;
    }
    point.scaling = static_cast<double>(point.admitted) / single_disk_admitted;
    // The widest rig is the representative one: its snapshot (and, with
    // --trace=<file>, its Chrome trace) is emitted after the table.
    MeasureDelivery(disks, point.admitted, &point, disks == 8 ? &obs : nullptr);
    table.Cell(static_cast<std::int64_t>(disks))
        .Cell(static_cast<std::int64_t>(point.admitted))
        .Cell(point.scaling, 2)
        .Cell(point.throughput_mbps, 1)
        .Cell(point.deadline_misses)
        .Cell(point.late_intervals)
        .Cell(point.frames_missed)
        .Cell(point.worst_interval_io_ms, 1);
    table.EndRow();
    points.push_back(point);
  }
  table.Print();

  crstats::PrintBanner("Metrics snapshot: 8-disk replay");
  crbench::PrintMetricsSnapshot(obs.snapshot, csv);
  crstats::PrintBanner("Fan-out balance: 8-disk replay");
  PrintFanOut(obs.snapshot, 8, csv);

  WriteJson(json_path, points);
  std::printf("\nWrote %s. Expected: >= 1.8x capacity at 2 disks and >= 3x at 4 disks\n"
              "(the admission split charges each disk a one-window skew allowance, so\n"
              "scaling is near-linear rather than linear); zero deadline misses at every\n"
              "admitted load.\n",
              json_path.c_str());

  crstats::PrintBanner("Degraded parity: fail-stop " + fail_spec + " mid-playback");
  crstats::Table degraded_table({"disks", "healthy_admitted", "degraded_capacity", "kept",
                                 "shed", "deadline_misses", "frames_missed_kept",
                                 "reconstruction_pieces"});
  degraded_table.SetCsv(csv);
  std::vector<DegradedPoint> degraded_points;
  for (const int disks : {2, 4, 8}) {
    CRAS_CHECK(fail_event->disk < disks)
        << "--fail-disk member " << fail_event->disk << " outside the " << disks
        << "-disk rig";
    DegradedPoint point;
    point.disks = disks;
    point.healthy_admitted = CountAdmitted(disks, 32 * disks, /*parity=*/true);
    MeasureDegraded(disks, *fail_event, &point);
    degraded_table.Cell(static_cast<std::int64_t>(disks))
        .Cell(static_cast<std::int64_t>(point.healthy_admitted))
        .Cell(static_cast<std::int64_t>(point.degraded_capacity))
        .Cell(static_cast<std::int64_t>(point.kept))
        .Cell(static_cast<std::int64_t>(point.shed))
        .Cell(point.deadline_misses)
        .Cell(point.frames_missed_kept)
        .Cell(point.reconstruction_pieces);
    degraded_table.EndRow();
    degraded_points.push_back(point);
  }
  degraded_table.Print();
  WriteDegradedJson("BENCH_degraded_striping.json", fail_spec, degraded_points);
  std::printf("\nWrote BENCH_degraded_striping.json. Expected: kept == min(admitted,\n"
              "degraded capacity) at every width — the controller sheds exactly the\n"
              "model's overload — with zero deadline misses and zero missed frames\n"
              "among the kept streams.\n");
  return 0;
}
