// Per-stream logical clock (§2.4).
//
// Each stream owns a logical clock, distinct from the system clock. When a
// stream is opened its logical clock reads zero and is stopped; crs_start
// starts it advancing at the stream's recording rate times an optional rate
// factor; crs_stop freezes it; crs_seek repositions it. Clients address
// media data by logical time, and the time-driven buffer discards data whose
// timestamps the logical clock has passed.

#ifndef SRC_CORE_LOGICAL_CLOCK_H_
#define SRC_CORE_LOGICAL_CLOCK_H_

#include "src/base/logging.h"
#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace cras {

using crbase::Duration;
using crbase::Time;

class LogicalClock {
 public:
  explicit LogicalClock(crsim::Engine& engine) : engine_(&engine) {}

  bool running() const { return running_; }
  double rate() const { return rate_; }

  // Current logical time. May be negative while an initial delay elapses.
  Time Now() const { return At(engine_->Now()); }

  // The reading at real time `real`, rounded exactly as Now() would round it
  // then, provided nobody starts, stops, seeks or re-rates the clock in
  // between. Lets a waiter compute when the clock reaches a logical time.
  Time At(Time real) const {
    if (!running_) {
      return base_logical_;
    }
    const Duration real_elapsed = real - base_real_;
    return base_logical_ + static_cast<Duration>(rate_ * static_cast<double>(real_elapsed));
  }

  // Starts (or resumes) the clock from its current reading, backed off by
  // `initial_delay` of real time: a freshly opened stream started with delay
  // d reads -d*rate now and exactly zero after d (the startup latency while
  // CRAS fills the first buffers); a stopped stream resumes where it froze;
  // a running one backs off from where it is.
  void Start(Duration initial_delay = 0) {
    CRAS_CHECK(initial_delay >= 0);
    base_logical_ = Now() - static_cast<Time>(rate_ * static_cast<double>(initial_delay));
    base_real_ = engine_->Now();
    running_ = true;
  }

  // Freezes the clock at its current reading.
  void Stop() {
    base_logical_ = Now();
    running_ = false;
  }

  // Repositions the clock; keeps its running/stopped state.
  void SeekTo(Time logical) {
    base_logical_ = logical;
    base_real_ = engine_->Now();
  }

  // Changes the advance rate without disturbing the current reading.
  void SetRate(double rate) {
    CRAS_CHECK(rate > 0);
    base_logical_ = Now();
    base_real_ = engine_->Now();
    rate_ = rate;
  }

 private:
  crsim::Engine* engine_;
  bool running_ = false;
  double rate_ = 1.0;
  Time base_logical_ = 0;
  Time base_real_ = 0;
};

}  // namespace cras

#endif  // SRC_CORE_LOGICAL_CLOCK_H_
