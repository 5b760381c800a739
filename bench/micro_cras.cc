// Microbenchmarks: CRAS hot paths — the crs_get data access a client makes
// per frame, the admission evaluation run per open, and the logical clock.

#include <benchmark/benchmark.h>

#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/volume/admission.h"

namespace {

// A testbed with one started stream, advanced until data is resident.
struct PreparedStream {
  cras::VolumeTestbed bed;
  cras::SessionId id = cras::kInvalidSession;
  crmedia::MediaFile file;

  PreparedStream() {
    bed.StartServers();
    file = *crmedia::WriteMpeg1File(bed.fs, "movie", crbase::Seconds(30));
    crsim::Task t = bed.kernel.Spawn(
        "opener", crrt::kPriorityClient, [this](crrt::ThreadContext&) -> crsim::Task {
          cras::OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          id = *opened;
          (void)co_await bed.cras_server.StartStream(
              id, bed.cras_server.SuggestedInitialDelay());
        });
    bed.engine().RunFor(crbase::Seconds(2));  // data resident, clock near 1 s
  }
};

void BM_CrsGetHit(benchmark::State& state) {
  PreparedStream prepared;
  const crbase::Time t = prepared.bed.cras_server.LogicalNow(prepared.id);
  for (auto _ : state) {
    auto chunk = prepared.bed.cras_server.Get(prepared.id, t);
    benchmark::DoNotOptimize(chunk);
  }
}
BENCHMARK(BM_CrsGetHit);

void BM_CrsGetMiss(benchmark::State& state) {
  PreparedStream prepared;
  for (auto _ : state) {
    auto chunk = prepared.bed.cras_server.Get(prepared.id, crbase::Seconds(25));
    benchmark::DoNotOptimize(chunk);
  }
}
BENCHMARK(BM_CrsGetMiss);

void BM_AdmissionEvaluate(benchmark::State& state) {
  cras::AdmissionModel model(cras::MeasuredSt32550nParams(), crbase::Milliseconds(500),
                             256 * crbase::kKiB);
  std::vector<cras::StreamDemand> demands(static_cast<std::size_t>(state.range(0)),
                                          cras::StreamDemand{187500.0, 6250});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(demands));
  }
}
BENCHMARK(BM_AdmissionEvaluate)->Arg(1)->Arg(14)->Arg(100);

void BM_LogicalClockNow(benchmark::State& state) {
  crsim::Engine engine;
  cras::LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(crbase::Seconds(1), [] {});
  engine.Run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.Now());
  }
}
BENCHMARK(BM_LogicalClockNow);

void BM_SimulatedSecondOfPlayback(benchmark::State& state) {
  // Wall cost of simulating one second of a full single-stream playback
  // (server threads, disk, player) — the end-to-end harness speed.
  for (auto _ : state) {
    state.PauseTiming();
    cras::VolumeTestbed bed;
    bed.StartServers();
    auto file = crmedia::WriteMpeg1File(bed.fs, "movie", crbase::Seconds(5));
    cras::PlayerStats stats;
    cras::PlayerOptions options;
    options.play_length = crbase::Seconds(3);
    crsim::Task player =
        cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
    bed.engine().RunFor(crbase::Seconds(1));
    state.ResumeTiming();
    bed.engine().RunFor(crbase::Seconds(1));
  }
}
BENCHMARK(BM_SimulatedSecondOfPlayback);

}  // namespace

BENCHMARK_MAIN();
