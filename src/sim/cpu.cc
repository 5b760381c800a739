#include "src/sim/cpu.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/task.h"

namespace crsim {

Cpu::Cpu(Engine& engine, SchedPolicy policy, Duration quantum)
    : engine_(&engine), policy_(policy), quantum_(quantum) {
  CRAS_CHECK(quantum_ > 0);
}

Cpu::~Cpu() {
  std::deque<Request> ready = std::move(ready_);
  for (const Request& request : ready) {
    DestroyParkedChain(request.handle);
  }
  if (running_) {
    running_ = false;
    DestroyParkedChain(current_.handle);
  }
}

void Cpu::RunAwaiter::await_suspend(std::coroutine_handle<> h) {
  cpu->Enqueue(Request{priority, work, h, cpu->next_seq_++});
}

void Cpu::Enqueue(Request req) {
  if (running_ && policy_ == SchedPolicy::kFixedPriority &&
      req.priority > current_.priority) {
    PreemptRunning();
  }
  ready_.push_back(std::move(req));
  if (!running_) {
    Dispatch();
  }
}

Cpu::Request Cpu::PopNext() {
  CRAS_CHECK(!ready_.empty());
  auto it = ready_.begin();
  if (policy_ == SchedPolicy::kFixedPriority) {
    for (auto cand = ready_.begin(); cand != ready_.end(); ++cand) {
      if (cand->priority > it->priority ||
          (cand->priority == it->priority && cand->seq < it->seq)) {
        it = cand;
      }
    }
  } else {
    // Round-robin: strict FIFO arrival order.
    for (auto cand = ready_.begin(); cand != ready_.end(); ++cand) {
      if (cand->seq < it->seq) {
        it = cand;
      }
    }
  }
  Request req = std::move(*it);
  ready_.erase(it);
  return req;
}

void Cpu::Dispatch() {
  CRAS_CHECK(!running_);
  if (ready_.empty()) {
    return;
  }
  current_ = PopNext();
  running_ = true;
  slice_start_ = engine_->Now();
  slice_len_ = policy_ == SchedPolicy::kRoundRobin ? std::min(current_.remaining, quantum_)
                                                   : current_.remaining;
  slice_end_ = engine_->ScheduleAfter(slice_len_, [this] { OnSliceEnd(); });
}

void Cpu::PreemptRunning() {
  CRAS_CHECK(running_);
  const Duration elapsed = engine_->Now() - slice_start_;
  busy_time_ += elapsed;
  current_.remaining -= elapsed;
  engine_->Cancel(slice_end_);
  running_ = false;
  if (current_.remaining <= 0) {
    // The preemption arrived at the exact instant the slice completed, but
    // before its completion event fired: the request is done.
    engine_->ScheduleResumeAfter(0, current_.handle);
    return;
  }
  // Re-gets a fresh sequence number: a preempted round-robin thread goes to
  // the back of the FIFO (its quantum is forfeit), while under fixed
  // priority order among equals is FIFO by (re-)arrival, matching classic
  // preemptive schedulers.
  current_.seq = next_seq_++;
  ready_.push_back(current_);
}

void Cpu::OnSliceEnd() {
  CRAS_CHECK(running_);
  busy_time_ += slice_len_;
  current_.remaining -= slice_len_;
  running_ = false;
  if (current_.remaining > 0) {
    // Quantum expiry under round-robin: back of the queue.
    current_.seq = next_seq_++;
    ready_.push_back(current_);
    Dispatch();
    return;
  }
  const std::coroutine_handle<> done = current_.handle;
  Dispatch();
  // The burst is over. A zero-delay wakeup would run right after every
  // event already due now, and before anything scheduled later. When no
  // event is due now, that is right here, so resume in this event; else
  // queue the wakeup behind them.
  if (engine_->HasEventNow()) {
    engine_->ScheduleResumeAfter(0, done);
  } else {
    done.resume();
  }
}

}  // namespace crsim
