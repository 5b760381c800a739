#include "src/sim/engine.h"

#include <limits>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/task.h"

namespace crsim {

Engine::~Engine() {
  // Destroying a parked frame runs frame-local destructors, which may
  // release semaphores or send to ports and thereby schedule fresh events —
  // hence the loop keeps draining until the heap is truly empty.
  while (!heap_.empty()) {
    const std::uint32_t index = heap_.top().slot;
    heap_.pop();
    const Slot& slot = slots_[index];
    const std::coroutine_handle<> parked = slot.cancelled ? nullptr : slot.parked;
    Release(index);
    if (parked) {
      DestroyParkedChain(parked);
    }
  }
}

EventId Engine::ScheduleAt(Time t, Callback cb) {
  CRAS_CHECK(cb != nullptr);
  return Push(t, std::move(cb), {});
}

EventId Engine::ScheduleAt(Time t, Callback cb, std::coroutine_handle<> parked) {
  CRAS_CHECK(cb != nullptr);
  return Push(t, std::move(cb), parked);
}

EventId Engine::ScheduleAfter(Duration d, Callback cb) {
  CRAS_CHECK(cb != nullptr);
  return Push(now_ + (d < 0 ? 0 : d), std::move(cb), {});
}

EventId Engine::ScheduleResumeAt(Time t, std::coroutine_handle<> h) {
  CRAS_CHECK(h);
  return Push(t, nullptr, h);
}

EventId Engine::Push(Time t, Callback&& cb, std::coroutine_handle<> parked) {
  if (t < now_) {
    t = now_;
  }
  std::uint32_t index;
  if (free_.empty()) {
    CRAS_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.parked = parked;
  ++slot.generation;
  heap_.push(Key{t, next_seq_++, index});
  return (EventId{slot.generation} << 32) | index;
}

void Engine::Release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = nullptr;
  slot.parked = {};
  slot.cancelled = false;
  if (++slot.generation != 0) {
    free_.push_back(index);
  }
}

void Engine::Cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size() || generation % 2 == 0) {
    return;
  }
  Slot& slot = slots_[index];
  if (slot.generation == generation && !slot.cancelled) {
    slot.cancelled = true;
    ++cancelled_;
  }
}

bool Engine::FireTop() {
  const Key key = heap_.top();
  heap_.pop();
  Slot& slot = slots_[key.slot];
  if (slot.cancelled) {
    --cancelled_;
    Release(key.slot);
    return false;
  }
  CRAS_CHECK(key.time >= now_) << "event time went backwards";
  now_ = key.time;
  ++events_fired_;
  // The slot is free again before the event runs: the callback may schedule
  // (and so reuse it), and cancelling its own id is a no-op.
  if (slot.cb) {
    const Callback cb = std::move(slot.cb);
    Release(key.slot);
    cb();
  } else {
    const std::coroutine_handle<> h = slot.parked;
    Release(key.slot);
    h.resume();
  }
  return true;
}

bool Engine::Step() {
  while (!heap_.empty()) {
    if (FireTop()) {
      return true;
    }
  }
  return false;
}

void Engine::Run() {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) {
    FireTop();
  }
}

void Engine::RunUntil(Time t) {
  CRAS_CHECK(t >= now_) << "cannot run into the past";
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.top().time <= t) {
    FireTop();
  }
  if (!stopped_ && now_ < t) {
    now_ = t;
  }
}

void Engine::RunFor(Duration d) { RunUntil(now_ + d); }

}  // namespace crsim
