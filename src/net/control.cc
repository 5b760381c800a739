#include "src/net/control.h"

#include <algorithm>

#include "src/base/logging.h"

namespace crnet {

namespace {

// Service: the thread's priority (just below CRAS), and the CPU to parse and
// dispatch one request (cheap; the real work is the server's own control-op
// charge).
constexpr int kServicePriority = crrt::kPriorityServer - 1;
constexpr crbase::Duration kCpuPerOp = crbase::Microseconds(100);
// Completed request ids whose replies are kept for duplicates; the oldest
// is evicted past this bound.
constexpr std::size_t kReplyCache = 512;
constexpr std::int64_t kReplyBytes = 96;  // wire size of one reply

// Client: the first retry comes after kInitialRto, and the timeout doubles
// per retry up to kRtoCap.
constexpr crbase::Duration kInitialRto = crbase::Milliseconds(60);
constexpr crbase::Duration kRtoCap = crbase::Milliseconds(480);
static_assert(kInitialRto > 0);
static_assert(kRtoCap >= kInitialRto);
// Total attempts (first send + retries) before DEADLINE_EXCEEDED.
constexpr int kMaxAttempts = 8;
static_assert(kMaxAttempts >= 1);
constexpr std::int64_t kRequestBytes = 160;  // wire size of one request

}  // namespace

const char* ControlOpName(ControlOp op) {
  switch (op) {
    case ControlOp::kOpen:
      return "open";
    case ControlOp::kClose:
      return "close";
    case ControlOp::kStart:
      return "start";
    case ControlOp::kStop:
      return "stop";
    case ControlOp::kReconnect:
      return "reconnect";
    case ControlOp::kRenewLease:
      return "renew_lease";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ControlService

ControlService::ControlService(crrt::Kernel& kernel, cras::CrasServer& server)
    : kernel_(&kernel), server_(&server), port_(kernel.engine()) {}

ControlService::~ControlService() {
  // Requests still queued are plain data (the callers' parked frames live in
  // their ControlClients); drop them.
  ControlRequest request;
  while (port_.TryReceive(&request)) {
  }
}

void ControlService::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  thread_ = kernel_->Spawn("control", kServicePriority,
                           [this](crrt::ThreadContext& ctx) { return ServiceThread(ctx); });
}

void ControlService::Deliver(ControlRequest request) { port_.Send(std::move(request)); }

namespace {

crbase::Result<cras::SessionId> StatusToResult(const crbase::Status& status,
                                               cras::SessionId id) {
  if (status.ok()) {
    return id;
  }
  return status;
}

}  // namespace

crsim::Task ControlService::ServiceThread(crrt::ThreadContext& ctx) {
  for (;;) {
    ControlRequest request = co_await port_.Receive();
    ++stats_.requests;
    // Idempotency: a request id executes at most once. A duplicate of a
    // completed call — a network replay, or a retry whose original did land
    // — is answered from the cache without touching the server.
    if (const auto it = completed_.find(request.request_id); it != completed_.end()) {
      ++stats_.duplicates_suppressed;
      SendReply(request, it->second);
      continue;
    }
    co_await ctx.Compute(kCpuPerOp);
    ++stats_.executed;
    crbase::Result<cras::SessionId> result = cras::kInvalidSession;
    switch (request.op) {
      case ControlOp::kOpen:
        result = co_await server_->Open(std::move(request.params));
        break;
      case ControlOp::kClose:
        result = StatusToResult(co_await server_->Close(request.session), request.session);
        break;
      case ControlOp::kStart:
        result = StatusToResult(
            co_await server_->StartStream(request.session, request.initial_delay),
            request.session);
        break;
      case ControlOp::kStop:
        result = StatusToResult(co_await server_->StopStream(request.session),
                                request.session);
        break;
      case ControlOp::kReconnect:
        result = StatusToResult(co_await server_->Reconnect(request.session),
                                request.session);
        break;
      case ControlOp::kRenewLease:
        // Direct like the heartbeat path; unknown ids are a benign race.
        server_->RenewLease(request.session);
        result = request.session;
        break;
    }
    completed_.emplace(request.request_id, result);
    completed_order_.push_back(request.request_id);
    while (completed_order_.size() > kReplyCache) {
      completed_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
    SendReply(request, result);
  }
}

void ControlService::SendReply(const ControlRequest& request,
                               const crbase::Result<cras::SessionId>& result) {
  if (request.origin == nullptr) {
    return;
  }
  if (request.reply_link == nullptr) {
    ++stats_.replies_sent;
    request.origin->OnReply(request.request_id, result);
    return;
  }
  ControlClient* origin = request.origin;
  const std::uint64_t id = request.request_id;
  const bool sent =
      request.reply_link->Send(kReplyBytes, [origin, id, result] {
        origin->OnReply(id, result);
      });
  if (sent) {
    ++stats_.replies_sent;
  } else {
    // Transmit queue full: the client's retry will ask again and hit the
    // reply cache — dropping here never wedges the caller.
    ++stats_.reply_drops;
  }
}

// ---------------------------------------------------------------------------
// ControlClient

ControlClient::ControlClient(crsim::Engine& engine, ControlService& service, Link* forward,
                             Link* reverse, const Options& options)
    : engine_(&engine),
      service_(&service),
      forward_(forward),
      reverse_(reverse),
      options_(options) {}

ControlClient::~ControlClient() {
  // Calls still pending hold their callers' parked frames; cancelling the
  // timers and dropping the map reclaims each chain via its ParkedHandle.
  for (auto& [id, pending] : pending_) {
    engine_->Cancel(pending.timer);
  }
}

void ControlClient::Begin(ControlRequest request, std::coroutine_handle<> h,
                          crbase::Result<cras::SessionId>* out) {
  ++stats_.calls;
  request.request_id = (options_.client_id << 40) | next_seq_++;
  request.origin = this;
  request.reply_link = reverse_;
  const std::uint64_t id = request.request_id;
  Pending& pending = pending_[id];
  pending.request = std::move(request);
  pending.rto = kInitialRto;
  pending.done = [h, out](crbase::Result<cras::SessionId> result) {
    *out = std::move(result);
    h.resume();
  };
  pending.parked = crsim::ParkedHandle(h);
  SendAttempt(pending);
}

void ControlClient::SendAttempt(Pending& pending) {
  ++pending.attempts;
  const std::uint64_t id = pending.request.request_id;
  if (forward_ == nullptr) {
    service_->Deliver(pending.request);
  } else {
    // A refused send (tx queue full) still counts as an attempt: the
    // retry timer below recovers, exactly as for a wire loss.
    ControlService* service = service_;
    (void)forward_->Send(kRequestBytes,
                         [service, request = pending.request]() mutable {
                           service->Deliver(std::move(request));
                         });
  }
  pending.timer = engine_->ScheduleAfter(pending.rto, [this, id] { OnTimeout(id); });
}

void ControlClient::OnTimeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;  // reply landed; the cancel raced this event
  }
  Pending& pending = it->second;
  if (pending.attempts >= kMaxAttempts) {
    ++stats_.timeouts;
    Complete(request_id,
             crbase::DeadlineExceededError(std::string("control ") +
                                           ControlOpName(pending.request.op) + " timed out after " +
                                           std::to_string(pending.attempts) + " attempts"));
    return;
  }
  ++stats_.retries;
  pending.rto = std::min(2 * pending.rto, kRtoCap);
  SendAttempt(pending);
}

void ControlClient::OnReply(std::uint64_t request_id,
                            crbase::Result<cras::SessionId> result) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    ++stats_.duplicate_replies;
    return;
  }
  engine_->Cancel(it->second.timer);
  Complete(request_id, std::move(result));
}

void ControlClient::Complete(std::uint64_t request_id,
                             crbase::Result<cras::SessionId> result) {
  auto node = pending_.extract(request_id);
  CRAS_CHECK(!node.empty());
  Pending& pending = node.mapped();
  engine_->Cancel(pending.timer);
  // Duplicate Close tolerance: a close answered NOT_FOUND lost a race with
  // an earlier close of the same session (a retried duplicate past the
  // reply cache, or the lease reaper). The session is gone, which is what
  // the caller asked for.
  if (pending.request.op == ControlOp::kClose &&
      result.status().code() == crbase::StatusCode::kNotFound) {
    ++stats_.close_races;
    result = pending.request.session;
  }
  if (result.ok()) {
    ++stats_.calls_ok;
  } else {
    ++stats_.calls_failed;
  }
  // Resume outside the map: the caller may immediately begin another call.
  pending.parked.release();
  pending.done(std::move(result));
}

}  // namespace crnet
