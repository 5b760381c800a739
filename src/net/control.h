// Hardened control plane: CRAS control RPCs over an impairable link.
//
// The in-process control interface (CrasServer::Open/Close/...) assumes the
// caller and the server share a reliable channel. A chaos campaign does
// not: control packets are lost, delayed and *duplicated* mid-run, and a
// wedged Open would hang a viewer forever. This pair hardens the path:
//
//   ControlClient  — client-host endpoint. Every call carries a globally
//                    unique request id and is retried with capped
//                    exponential backoff (60 ms doubling to 480 ms) until a
//                    reply lands or 8 attempts are spent (then
//                    DEADLINE_EXCEEDED — the caller is never wedged).
//                    Duplicate replies are dropped by id.
//   ControlService — server-host endpoint. Executes each request id at
//                    most once: a duplicate of a completed request is
//                    answered from a reply cache of the last 512 ids
//                    without touching the server, so a replayed Open admits
//                    no second stream and a duplicate Close is a no-op.
//
// Close has at-least-once-tolerant semantics end to end: a retry whose
// original already closed the session is answered from the reply cache,
// and a close racing the lease reaper (NOT_FOUND — the session is already
// gone) is reported as success to the caller, because "already gone" is
// what Close was for. Reconnect racing the reaper stays deterministic: the
// request manager serializes both, so the reply is whichever side won,
// never a half-reaped session.
//
// The request and reply links are ordinary crnet::Links, so crfault's
// control-drop events (loss + duplication) apply to exactly this traffic.
// Either link may be null: that hop then resolves without network delay.

#ifndef SRC_NET_CONTROL_H_
#define SRC_NET_CONTROL_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/net/link.h"
#include "src/rtmach/kernel.h"
#include "src/sim/port.h"
#include "src/sim/task.h"

namespace crnet {

class ControlClient;

enum class ControlOp {
  kOpen,
  kClose,
  kStart,
  kStop,
  kReconnect,
  kRenewLease,
};

const char* ControlOpName(ControlOp op);

// One control RPC on the wire. The id is unique per (client, call) and
// identical across that call's retries — the service's idempotency key.
struct ControlRequest {
  std::uint64_t request_id = 0;
  ControlOp op = ControlOp::kRenewLease;
  cras::SessionId session = cras::kInvalidSession;
  cras::OpenParams params;              // kOpen
  crbase::Duration initial_delay = 0;   // kStart
  ControlClient* origin = nullptr;      // reply target
  Link* reply_link = nullptr;           // server -> client hop (may be null)
};

struct ControlServiceStats {
  std::int64_t requests = 0;              // requests received (incl. duplicates)
  std::int64_t executed = 0;              // dispatched to the server
  std::int64_t duplicates_suppressed = 0; // answered from the reply cache
  std::int64_t replies_sent = 0;
  std::int64_t reply_drops = 0;           // reply refused by a full tx queue
};

struct ControlClientStats {
  std::int64_t calls = 0;
  std::int64_t calls_ok = 0;
  std::int64_t calls_failed = 0;     // non-OK reply surfaced to the caller
  std::int64_t timeouts = 0;         // attempt budget spent, DEADLINE_EXCEEDED
  std::int64_t retries = 0;          // resends past each call's first attempt
  std::int64_t duplicate_replies = 0;
  std::int64_t close_races = 0;      // Close answered NOT_FOUND -> success
};

// Server-host service thread: drains delivered requests in order and
// executes each against the CRAS control port, deduplicating by request id.
class ControlService {
 public:
  // The service thread runs just below CRAS. Its CPU per request, reply
  // cache bound and reply size are constants in control.cc.
  ControlService(crrt::Kernel& kernel, cras::CrasServer& server);
  ControlService(const ControlService&) = delete;
  ControlService& operator=(const ControlService&) = delete;
  ~ControlService();

  // Spawns the service thread (idempotent).
  void Start();

  // Server-host entry point — the forward link's deliver closure.
  void Deliver(ControlRequest request);

  const ControlServiceStats& stats() const { return stats_; }

 private:
  crsim::Task ServiceThread(crrt::ThreadContext& ctx);
  void SendReply(const ControlRequest& request,
                 const crbase::Result<cras::SessionId>& result);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  crsim::Port<ControlRequest> port_;
  // Reply cache: id -> result, FIFO-evicted.
  std::map<std::uint64_t, crbase::Result<cras::SessionId>> completed_;
  std::deque<std::uint64_t> completed_order_;
  ControlServiceStats stats_;
  crsim::Task thread_;
  bool started_ = false;
};

// Client-host endpoint. Calls are awaitable from any simulated thread:
//
//   crnet::ControlClient ctl(kernel.engine(), service, &fwd, &rev, {.client_id = 3});
//   auto opened = co_await ctl.Open(params);          // Result<SessionId>
//   co_await ctl.RenewLease(*opened);                 // Status
//   co_await ctl.Close(*opened);                      // Status; retry-safe
class ControlClient {
 public:
  struct Options {
    // Disambiguates request ids across clients sharing one service.
    std::uint64_t client_id = 0;
  };

  // `forward` carries requests (client -> server), `reverse` replies; either
  // may be null for a same-host hop.
  ControlClient(crsim::Engine& engine, ControlService& service, Link* forward,
                Link* reverse, const Options& options);
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;
  // Reclaims the parked frames of calls still awaiting a reply.
  ~ControlClient();

  auto Open(cras::OpenParams params) {
    ControlRequest request;
    request.op = ControlOp::kOpen;
    request.params = std::move(params);
    return CallAwaiter<crbase::Result<cras::SessionId>>{this, std::move(request)};
  }
  auto Close(cras::SessionId id) {
    return CallAwaiter<crbase::Status>{this, MakeRequest(ControlOp::kClose, id)};
  }
  auto StartStream(cras::SessionId id, crbase::Duration initial_delay) {
    ControlRequest request = MakeRequest(ControlOp::kStart, id);
    request.initial_delay = initial_delay;
    return CallAwaiter<crbase::Status>{this, std::move(request)};
  }
  auto StopStream(cras::SessionId id) {
    return CallAwaiter<crbase::Status>{this, MakeRequest(ControlOp::kStop, id)};
  }
  auto Reconnect(cras::SessionId id) {
    return CallAwaiter<crbase::Status>{this, MakeRequest(ControlOp::kReconnect, id)};
  }
  auto RenewLease(cras::SessionId id) {
    return CallAwaiter<crbase::Status>{this, MakeRequest(ControlOp::kRenewLease, id)};
  }

  // Client-host entry point — the reply link's deliver closure. Replies for
  // ids no longer pending (a duplicate, or the original landed first) are
  // dropped here.
  void OnReply(std::uint64_t request_id, crbase::Result<cras::SessionId> result);

  const ControlClientStats& stats() const { return stats_; }
  std::size_t pending_calls() const { return pending_.size(); }

 private:
  struct Pending {
    ControlRequest request;  // resend template
    int attempts = 0;
    crbase::Duration rto = 0;
    crsim::EventId timer = crsim::kInvalidEventId;
    std::function<void(crbase::Result<cras::SessionId>)> done;
    crsim::ParkedHandle parked;
  };

  template <typename R>
  struct CallAwaiter {
    ControlClient* client;
    ControlRequest request;
    crbase::Result<cras::SessionId> raw = cras::kInvalidSession;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      client->Begin(std::move(request), h, &raw);
    }
    R await_resume() {
      if constexpr (std::is_same_v<R, crbase::Status>) {
        return raw.status();
      } else {
        return std::move(raw);
      }
    }
  };

  ControlRequest MakeRequest(ControlOp op, cras::SessionId id) {
    ControlRequest request;
    request.op = op;
    request.session = id;
    return request;
  }

  void Begin(ControlRequest request, std::coroutine_handle<> h,
             crbase::Result<cras::SessionId>* out);
  void SendAttempt(Pending& pending);
  void OnTimeout(std::uint64_t request_id);
  // Removes the pending entry and resumes its caller with `result`.
  void Complete(std::uint64_t request_id, crbase::Result<cras::SessionId> result);

  crsim::Engine* engine_;
  ControlService* service_;
  Link* forward_;
  Link* reverse_;
  Options options_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  ControlClientStats stats_;
};

}  // namespace crnet

#endif  // SRC_NET_CONTROL_H_
