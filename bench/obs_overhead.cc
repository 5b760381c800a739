// Observability overhead: the fig06 rig (10 MPEG1 streams + background
// load, T = 0.5 s) run three ways — obs off (hub exists, nothing attached),
// metrics only (the default), and full tracing (Chrome trace + frame
// tracer + SLO monitor) — to count what each records.
//
// Reported per mode: frame-trace stamps, resolved frames and Chrome trace
// events. All are virtual-time counts, so every figure reproduces exactly;
// a run this short (a few ms of host time) cannot be timed reproducibly,
// so host cost is left to vodbench. The bench asserts the admitted-stream
// count and the frames played are identical across modes (instrumentation
// must never change admission decisions or playback), that attribution
// conserves, and that a full-mode run missing no frame burns no SLO budget.
//
// Output: a table, the fleet attribution table, and BENCH_obs_overhead.json
// (--out <file>).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/frame_trace.h"

namespace {

using cras::PlayerOptions;
using cras::PlayerStats;
using cras::VolumeTestbed;
using cras::VolumeTestbedOptions;

constexpr int kStreams = 10;
constexpr crbase::Duration kPlayLength = crbase::Seconds(10);
constexpr crbase::Duration kRunLength = crbase::Seconds(16);

struct ModeResult {
  std::string mode;
  int admitted = 0;
  std::int64_t frames_played = 0;
  std::int64_t frames_missed = 0;
  std::uint64_t stamps = 0;            // frame-trace stage stamps taken
  std::int64_t frames_resolved = 0;    // delivered + missed through the tracer
  std::size_t trace_events = 0;        // Chrome trace events recorded
  std::int64_t conservation_violations = 0;
  std::int64_t unattributed_ns = 0;
  crobs::StageAttribution totals;
};

ModeResult RunMode(const std::string& mode) {
  VolumeTestbedOptions options;
  options.cras.interval = crbase::Milliseconds(500);
  if (mode == "off") {
    options.attach_obs = false;
  } else if (mode == "full") {
    options.obs.trace.enabled = true;
    options.obs.trace.capacity = 1 << 18;
    options.obs.frames.enabled = true;
    options.obs.slo.enabled = true;
  } else {
    CRAS_CHECK(mode == "metrics");
  }
  VolumeTestbed bed(options);
  bed.StartServers();
  auto files = crbench::MakeMpeg1Files(bed, kStreams, kPlayLength + crbase::Seconds(3));
  std::vector<crsim::Task> cats = crbench::SpawnBackgroundCats(bed);
  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  PlayerOptions player_options;
  player_options.play_length = kPlayLength;
  for (int i = 0; i < kStreams; ++i) {
    player_options.start_delay = crbase::Milliseconds(73) * i;
    stats.push_back(std::make_unique<PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)],
                                            player_options, stats.back().get()));
  }
  bed.engine().RunFor(kRunLength + crbase::Milliseconds(73) * kStreams);

  ModeResult result;
  result.mode = mode;
  for (const auto& s : stats) {
    result.frames_played += s->frames_played;
    result.frames_missed += s->frames_missed;
    if (!s->open_rejected) {
      ++result.admitted;
    }
  }
  result.stamps = bed.hub.frames().stamps();
  result.totals = bed.hub.frames().Totals();
  result.frames_resolved = result.totals.frames_resolved();
  result.trace_events = bed.hub.trace().size();
  result.conservation_violations = result.totals.conservation_violations;
  result.unattributed_ns = result.totals.unattributed_ns;
  if (mode == "full" && result.frames_missed == 0) {
    // A run that missed no frame spent none of the SLO budget: no burn, no
    // slo_burn flight event, no frozen dump.
    const crobs::FlightRecorder& flight = bed.hub.flight();
    const bool burn_event =
        std::any_of(flight.events().begin(), flight.events().end(),
                    [](const crobs::FlightEvent& e) {
                      return e.kind == crobs::FlightEventKind::kSloBurn;
                    });
    CRAS_CHECK(bed.hub.slo().burn_events() == 0 && !burn_event && flight.dumps().empty())
        << "a run with 0 missed frames burned the SLO budget: "
        << bed.hub.slo().burn_events() << " burns, " << flight.dumps().size() << " dumps";
  }
  return result;
}

void WriteJson(const std::string& path, const std::vector<ModeResult>& modes) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"obs_overhead\",\n"
      << "  \"rig\": \"fig06: " << kStreams
      << " MPEG1 streams + 2 cat readers, T = 0.5 s\",\n"
      << "  \"admission_unchanged\": true,\n"
      << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    out << "    {\"mode\": \"" << m.mode << "\", \"admitted\": " << m.admitted
        << ", \"frames_played\": " << m.frames_played
        << ", \"frames_missed\": " << m.frames_missed << ",\n     \"stamps\": " << m.stamps
        << ", \"frames_resolved\": " << m.frames_resolved
        << ", \"trace_events\": " << m.trace_events
        << ", \"conservation_violations\": " << m.conservation_violations
        << ", \"unattributed_ns\": " << m.unattributed_ns << "}"
        << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  std::string json_path = "BENCH_obs_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  crstats::PrintBanner("Observability overhead: fig06 rig, obs off / metrics / full tracing");
  std::vector<ModeResult> modes;
  for (const char* mode : {"off", "metrics", "full"}) {
    modes.push_back(RunMode(mode));
  }
  const ModeResult& off = modes[0];
  const ModeResult& metrics = modes[1];
  const ModeResult& full = modes[2];

  // Instrumentation must be behaviorally invisible: same admission verdicts
  // and same playback outcome in virtual time, whatever the hub records.
  CRAS_CHECK(metrics.admitted == off.admitted && full.admitted == off.admitted)
      << "admitted streams changed with observability: off=" << off.admitted
      << " metrics=" << metrics.admitted << " full=" << full.admitted;
  CRAS_CHECK(full.frames_played == off.frames_played)
      << "frames played changed with observability: off=" << off.frames_played
      << " full=" << full.frames_played;
  CRAS_CHECK(full.conservation_violations == 0 && full.unattributed_ns == 0)
      << "attribution conservation broken: " << full.conservation_violations
      << " violations, " << full.unattributed_ns << " ns unattributed";

  crstats::Table table({"mode", "admitted", "frames_played", "stamps", "trace_events"});
  table.SetCsv(csv);
  for (const ModeResult& m : modes) {
    table.Cell(m.mode)
        .Cell(static_cast<std::int64_t>(m.admitted))
        .Cell(m.frames_played)
        .Cell(static_cast<std::int64_t>(m.stamps))
        .Cell(static_cast<std::int64_t>(m.trace_events));
    table.EndRow();
  }
  table.Print();

  crstats::PrintBanner("Fleet attribution table (full-tracing mode)");
  crstats::Table attr({"bucket", "mean_ms", "total_ms"});
  attr.SetCsv(csv);
  for (int b = 0; b < crobs::kStageBucketCount; ++b) {
    const auto bucket = static_cast<crobs::StageBucket>(b);
    attr.Cell(std::string(crobs::StageBucketName(bucket)))
        .Cell(full.totals.MeanBucketMs(bucket), 3)
        .Cell(crbase::ToMilliseconds(full.totals.bucket_ns[b]), 1);
    attr.EndRow();
  }
  attr.Cell(std::string("end_to_end"))
      .Cell(full.totals.MeanEndToEndMs(), 3)
      .Cell(crbase::ToMilliseconds(full.totals.end_to_end_ns), 1);
  attr.EndRow();
  attr.Print();

  WriteJson(json_path, modes);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
