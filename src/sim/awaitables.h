// Virtual-time sleep awaitables.

#ifndef SRC_SIM_AWAITABLES_H_
#define SRC_SIM_AWAITABLES_H_

#include <coroutine>

#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace crsim {

// `co_await Sleep(engine, d)` suspends the coroutine for `d` of virtual time.
struct SleepAwaiter {
  Engine* engine;
  Duration delay;

  bool await_ready() const { return delay <= 0; }
  void await_suspend(std::coroutine_handle<> h) { engine->ScheduleResumeAfter(delay, h); }
  void await_resume() const {}
};

inline SleepAwaiter Sleep(Engine& engine, Duration delay) { return SleepAwaiter{&engine, delay}; }

// `co_await SleepUntil(engine, t)` suspends until absolute virtual time `t`.
inline SleepAwaiter SleepUntil(Engine& engine, Time t) {
  return SleepAwaiter{&engine, t - engine.Now()};
}

}  // namespace crsim

#endif  // SRC_SIM_AWAITABLES_H_
