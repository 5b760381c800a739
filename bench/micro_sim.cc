// Microbenchmarks: simulation-engine hot paths (event scheduling, coroutine
// wakeup, port handoff). These bound how large an experiment the harness can
// run per wall-clock second.

#include <benchmark/benchmark.h>

#include "src/base/random.h"
#include "src/base/time_units.h"
#include "src/sim/awaitables.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/port.h"
#include "src/sim/task.h"

namespace {

void BM_EngineScheduleFire(benchmark::State& state) {
  crsim::Engine engine;
  std::int64_t fired = 0;
  for (auto _ : state) {
    engine.ScheduleAfter(1, [&fired] { ++fired; });
    engine.Step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineScheduleFireBatch1k(benchmark::State& state) {
  for (auto _ : state) {
    crsim::Engine engine;
    std::int64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      engine.ScheduleAfter(i % 17, [&fired] { ++fired; });
    }
    engine.Run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EngineScheduleFireBatch1k);

// The shape of the queue in a running rig: hundreds of sleeping threads keep
// about 500 events pending, and about 7% of scheduled events (NAK timers,
// timeouts) are cancelled before they fire. Each iteration schedules one
// event and fires the earliest live one, so the queue holds steady.
void BM_EngineStandingQueue(benchmark::State& state) {
  constexpr int kPending = 500;
  constexpr std::uint64_t kHorizonNs = 20'000'000;  // wakeups up to 20 ms out
  crsim::Engine engine;
  crbase::Rng rng(1);
  std::int64_t fired = 0;
  auto schedule = [&] {
    return engine.ScheduleAfter(1 + static_cast<crbase::Duration>(rng.NextBelow(kHorizonNs)),
                                [&fired] { ++fired; });
  };
  for (int i = 0; i < kPending; ++i) {
    schedule();
  }
  for (auto _ : state) {
    const crsim::EventId id = schedule();
    if (rng.NextBelow(100) < 7) {
      engine.Cancel(id);
      schedule();
    }
    engine.Step();
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EngineStandingQueue);

crsim::Task SleepLoop(crsim::Engine& engine, std::int64_t rounds, std::int64_t* count) {
  for (std::int64_t i = 0; i < rounds; ++i) {
    co_await crsim::Sleep(engine, 1);
    ++*count;
  }
}

void BM_CoroutineSleepWake(benchmark::State& state) {
  for (auto _ : state) {
    crsim::Engine engine;
    std::int64_t count = 0;
    crsim::Task t = SleepLoop(engine, 1000, &count);
    engine.Run();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CoroutineSleepWake);

// A local player's frame: a short CPU burst on an otherwise idle processor,
// then a sleep until the next frame is due.
crsim::Task FrameLoop(crsim::Engine& engine, crsim::Cpu& cpu, std::int64_t frames,
                      std::int64_t* count) {
  for (std::int64_t i = 0; i < frames; ++i) {
    co_await cpu.Run(20, crbase::Microseconds(200));
    co_await crsim::Sleep(engine, crbase::Milliseconds(33));
    ++*count;
  }
}

void BM_CpuBurst(benchmark::State& state) {
  constexpr std::int64_t kFrames = 1000;
  for (auto _ : state) {
    crsim::Engine engine;
    crsim::Cpu cpu(engine, crsim::SchedPolicy::kFixedPriority);
    std::int64_t count = 0;
    crsim::Task t = FrameLoop(engine, cpu, kFrames, &count);
    engine.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
}
BENCHMARK(BM_CpuBurst);

crsim::Task Echo(crsim::Port<int>& in, crsim::Port<int>& out, std::int64_t rounds) {
  for (std::int64_t i = 0; i < rounds; ++i) {
    int v = co_await in.Receive();
    out.Send(v + 1);
  }
}

void BM_PortPingPong(benchmark::State& state) {
  for (auto _ : state) {
    crsim::Engine engine;
    crsim::Port<int> ping(engine);
    crsim::Port<int> pong(engine);
    crsim::Task echo = Echo(ping, pong, 500);
    crsim::Task driver = [](crsim::Port<int>& out, crsim::Port<int>& in,
                            std::int64_t rounds) -> crsim::Task {
      for (std::int64_t i = 0; i < rounds; ++i) {
        out.Send(static_cast<int>(i));
        (void)co_await in.Receive();
      }
    }(ping, pong, 500);
    engine.Run();
  }
}
BENCHMARK(BM_PortPingPong);

}  // namespace

BENCHMARK_MAIN();
