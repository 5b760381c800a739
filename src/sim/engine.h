// Discrete-event simulation engine.
//
// The engine owns virtual time: a monotonic nanosecond clock that advances
// only when the next pending event fires. All simulated activity — thread
// wakeups, disk completions, CPU slice expirations — is an event. Execution
// is strictly deterministic: events at equal timestamps fire in scheduling
// order (FIFO by sequence number).
//
// Layout: the binary heap orders small trivially copyable keys (time,
// schedule sequence, slot). Each event's payload — its callback or the
// coroutine it resumes — sits in a slot of a vector recycled through a free
// list, so sifting the heap never moves a callback, and cancelling marks the
// slot rather than consulting a side table.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/base/time_units.h"

namespace crsim {

using crbase::Duration;
using crbase::Time;

// Identifies a scheduled event so it can be cancelled: the event's slot in
// the low 32 bits, and in the high 32 the slot's generation, which changes
// every time the slot is taken or released, so an id never names a later
// event that reuses its slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  // Reclaims coroutine frames parked on still-pending wakeup events (see
  // ScheduleResumeAt) so that tearing a simulation down mid-flight leaks
  // nothing. Runs after every other simulation object's destructor in the
  // standard rig layouts (the engine is declared first / owned by Kernel).
  ~Engine();

  // Current virtual time.
  Time Now() const { return now_; }

  // Schedules `cb` to run at absolute virtual time `t` (>= Now()).
  EventId ScheduleAt(Time t, Callback cb);

  // Schedules `cb` to run `d` from now. d < 0 is clamped to 0.
  EventId ScheduleAfter(Duration d, Callback cb);

  // As ScheduleAt/ScheduleAfter, but additionally records that `parked` is a
  // coroutine suspended solely waiting for this event (which `cb` will
  // resume). If the engine is destroyed while the event is still pending and
  // uncancelled, the frame — and every frame awaiting it — is destroyed
  // instead of leaked. All coroutine wakeups should flow through these.
  EventId ScheduleAt(Time t, Callback cb, std::coroutine_handle<> parked);
  EventId ScheduleAfter(Duration d, Callback cb, std::coroutine_handle<> parked);

  // The common pure-wakeup form: the event just resumes `h` (no callback is
  // stored).
  EventId ScheduleResumeAt(Time t, std::coroutine_handle<> h);
  EventId ScheduleResumeAfter(Duration d, std::coroutine_handle<> h) {
    return ScheduleResumeAt(now_ + (d < 0 ? 0 : d), h);
  }

  // Cancels a pending event. Cancelling an already-fired, already-cancelled
  // or unknown id is a no-op (events self-expire), which keeps "cancel my
  // timeout" call sites simple.
  void Cancel(EventId id);

  // Runs the single next event. Returns false if the queue is empty.
  bool Step();

  // Runs until the queue is empty or Stop() is called.
  void Run();

  // Runs all events with time <= t, then sets Now() to exactly t.
  void RunUntil(Time t);

  // Runs for `d` of virtual time from Now().
  void RunFor(Duration d);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  std::size_t pending_events() const { return heap_.size() - cancelled_; }
  std::uint64_t events_fired() const { return events_fired_; }

  // Whether the earliest queued event is due at Now(), so it runs before
  // anything scheduled from here on at Now(). A cancelled key still at the
  // top counts, which errs on the side of queueing.
  bool HasEventNow() const { return !heap_.empty() && heap_.top().time == now_; }

 private:
  struct Key {
    Time time;
    std::uint64_t seq;   // schedule order: breaks time ties FIFO
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;  // empty: the event resumes `parked`
    std::coroutine_handle<> parked{};  // frame waiting on this event, if any
    // Odd while the slot holds a pending event, even while it is free; an
    // EventId carries the odd value it was issued with.
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  EventId Push(Time t, Callback&& cb, std::coroutine_handle<> parked);
  // Frees `index` for reuse. A slot whose generation wraps is retired
  // instead, so that no id can ever match it again.
  void Release(std::uint32_t index);
  // Pops the top event and runs it unless it was cancelled; returns whether
  // it ran. Assumes the queue is non-empty.
  bool FireTop();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::size_t cancelled_ = 0;  // keys in heap_ whose slot is cancelled
  bool stopped_ = false;
  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace crsim

#endif  // SRC_SIM_ENGINE_H_
