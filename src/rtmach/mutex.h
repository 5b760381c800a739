// Mutex with optional priority inheritance.
//
// The paper's group built "Integrated Management of Priority Inversion in
// Real-Time Mach" [7]; CRAS is *designed* so that its retrieval path never
// calls a lower-priority server, but the kernel still provides
// priority-inheriting locks for the places servers do share state. This
// mutex models both behaviours so the classic inversion (low-priority
// holder preempted by a medium-priority hog while a high-priority thread
// waits) can be measured with and without inheritance.
//
// Inheritance is modelled through the CPU scheduler: while a thread holds
// an inheriting mutex that higher-priority threads are waiting on, the CPU
// work it performs (through LockedCompute) is charged at the highest
// waiting priority.

#ifndef SRC_RTMACH_MUTEX_H_
#define SRC_RTMACH_MUTEX_H_

#include <algorithm>
#include <coroutine>
#include <deque>

#include "src/base/logging.h"
#include "src/rtmach/kernel.h"

namespace crrt {

class Mutex {
 public:
  enum class Protocol {
    kNone,                 // plain blocking lock (inversion-prone)
    kPriorityInheritance,  // holder computes at the top waiter's priority
  };

  Mutex(Kernel& kernel, Protocol protocol)
      : kernel_(&kernel), protocol_(protocol) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // `co_await mutex.Lock(ctx);` — FIFO among equal priorities, but the
  // highest-priority waiter acquires first.
  auto Lock(const ThreadContext& ctx) { return LockAwaiter{this, ctx.priority(), nullptr}; }

  void Unlock() {
    CRAS_CHECK(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      holder_priority_ = 0;
      return;
    }
    // Hand off to the highest-priority waiter (FIFO among equals).
    auto best = waiters_.begin();
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if ((*it)->priority > (*best)->priority) {
        best = it;
      }
    }
    LockAwaiter* next = *best;
    waiters_.erase(best);
    holder_priority_ = next->priority;
    kernel_->engine().ScheduleResumeAfter(0, next->handle);
  }

  // CPU work performed while holding the lock. The request is tagged with
  // this mutex; when a higher-priority thread later blocks on the lock, the
  // tag lets the scheduler boost the holder's queued work in place (true
  // priority inheritance, not just at-submission priority).
  auto LockedCompute(crbase::Duration work) {
    CRAS_CHECK(locked_) << "LockedCompute without the lock";
    return kernel_->cpu().RunTagged(this, EffectivePriority(), work);
  }

  bool locked() const { return locked_; }
  std::size_t waiters() const { return waiters_.size(); }
  int EffectivePriority() const {
    int priority = holder_priority_;
    if (protocol_ == Protocol::kPriorityInheritance) {
      for (const LockAwaiter* waiter : waiters_) {
        priority = std::max(priority, waiter->priority);
      }
    }
    return priority;
  }

 private:
  struct LockAwaiter {
    Mutex* mutex;
    int priority;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (!mutex->locked_) {
        mutex->locked_ = true;
        mutex->holder_priority_ = priority;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      mutex->waiters_.push_back(this);
      if (mutex->protocol_ == Protocol::kPriorityInheritance) {
        // Inherit: raise the holder's in-flight tagged work to this
        // waiter's priority.
        mutex->kernel_->cpu().Boost(mutex, mutex->EffectivePriority());
      }
    }
    void await_resume() const {}
  };

  Kernel* kernel_;
  Protocol protocol_;
  bool locked_ = false;
  int holder_priority_ = 0;
  std::deque<LockAwaiter*> waiters_;
};

}  // namespace crrt

#endif  // SRC_RTMACH_MUTEX_H_
