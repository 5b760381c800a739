// StatsQuery — remote observability over the NPS transport layer.
//
// The paper's qtserver host is headless: the operator watches it from the
// client host. This service gives that client a way to pull the server's
// whole metrics registry over the wire: a StatsQuery message lands on the
// service's port, a server-host thread renders the hub's snapshot to JSON
// ({"sim_time_ns": ..., "metrics": {...}}), and the reply ships back across
// the Link at link bandwidth (a stat dump is itself network traffic — on a
// 10 Mb/s segment a verbose snapshot visibly delays the next one). Rendering
// one snapshot costs the server kCpuPerQuery (500 µs) of CPU.
//
// Usage, from any simulated thread:
//
//   crnet::StatsQueryService stats(kernel, hub, &link);
//   stats.Start();
//   std::string json = co_await stats.Query();

#ifndef SRC_NET_STATS_QUERY_H_
#define SRC_NET_STATS_QUERY_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/base/time_units.h"
#include "src/net/link.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/port.h"
#include "src/sim/task.h"

namespace crnet {

// CPU charged for rendering one snapshot (walking the registry and
// serializing; cheap but not free on the paper's 100 MHz Pentium).
inline constexpr crbase::Duration kCpuPerQuery = crbase::Microseconds(500);

struct StatsQueryStats {
  std::int64_t queries = 0;
  std::int64_t reply_bytes = 0;
};

class StatsQueryService {
 public:
  // `link` may be null: replies then resolve without network delay (a
  // same-host query through shared memory). The service thread runs below
  // CRAS and the NPS senders: a stat dump must never delay stream I/O.
  StatsQueryService(crrt::Kernel& kernel, const crobs::Hub& hub, Link* link);
  StatsQueryService(const StatsQueryService&) = delete;
  StatsQueryService& operator=(const StatsQueryService&) = delete;
  // Reclaims client frames whose queries were still queued unprocessed.
  ~StatsQueryService();

  // Spawns the service thread (idempotent).
  void Start();

  // Client-side blocking query:
  // `std::string json = co_await service.Query();`
  // A non-empty `prefix` restricts the snapshot to metric families whose
  // name starts with it (see crobs::Hub::MetricsJson) — an operator
  // watching a degraded array polls just "cras." or "fault." instead of
  // shipping the whole registry across the link every time.
  auto Query(std::string prefix = {}) {
    QueryMsg msg;
    msg.prefix = std::move(prefix);
    return QueryAwaiter{this, std::move(msg), {}};
  }

  // Windowed-delta snapshot. The reply's "metrics" covers only activity
  // since the baseline identified by `since` (the "cursor" of a previous
  // delta reply): counters and histogram counts are subtracted, gauges keep
  // their current value. `since` == 0 — or a cursor the service has already
  // evicted (it keeps the most recent few baselines) — yields a full
  // snapshot flagged "baseline_missing": true, and the client re-anchors on
  // the returned cursor. An operator polling a 10 Mb/s link ships only the
  // last window's activity instead of lifetime totals every time.
  auto DeltaQuery(std::uint64_t since = 0) {
    QueryMsg msg;
    msg.delta = true;
    msg.since = since;
    return QueryAwaiter{this, std::move(msg), {}};
  }

  // SLO watchdog state: rolling-window burn rates per session and
  // fleet-wide, rendered by crobs::SloMonitor::StateJson.
  auto SloQuery() {
    QueryMsg msg;
    msg.slo = true;
    return QueryAwaiter{this, std::move(msg), {}};
  }

  // Remote flight-recorder dump: the reply is the hub's full dump document
  // (event window + budget-ledger tail + metrics snapshot) rendered at the
  // moment the service thread handles the query — the post-mortem pull an
  // operator makes after noticing an anomaly from the client host.
  auto DumpQuery(std::string reason = "query") {
    QueryMsg msg;
    msg.dump = true;
    msg.reason = std::move(reason);
    return QueryAwaiter{this, std::move(msg), {}};
  }

  const StatsQueryStats& stats() const { return stats_; }

 private:
  struct QueryMsg {
    std::string prefix;  // metric-family name filter; empty = everything
    bool dump = false;   // flight-recorder dump instead of a metrics snapshot
    bool delta = false;  // windowed-delta snapshot against `since`
    bool slo = false;    // SLO monitor state instead of a metrics snapshot
    std::uint64_t since = 0;  // baseline cursor (delta queries only)
    std::string reason;  // recorded in the dump header (dump queries only)
    std::function<void(std::string)> done;
    // Client frame suspended until `done` fires. Owning: dropping the
    // message destroys the client's chain with it.
    crsim::ParkedHandle parked;

    void Complete(std::string json) {
      parked.release();
      done(std::move(json));
    }
  };

  struct QueryAwaiter {
    StatsQueryService* service;
    QueryMsg msg;
    std::string result;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      msg.done = [this, h](std::string json) {
        result = std::move(json);
        h.resume();
      };
      msg.parked = crsim::ParkedHandle(h);
      service->port_.Send(std::move(msg));
    }
    std::string await_resume() { return std::move(result); }
  };

  // A retained full snapshot a later delta query subtracts against.
  struct Baseline {
    std::uint64_t cursor = 0;
    crbase::Time at = 0;
    crobs::RegistrySnapshot snapshot;
  };

  crsim::Task ServiceThread(crrt::ThreadContext& ctx);
  // Renders one delta reply and retires `since`'s baseline for the new one.
  std::string RenderDelta(std::uint64_t since);

  crrt::Kernel* kernel_;
  const crobs::Hub* hub_;
  Link* link_;
  crsim::Port<QueryMsg> port_;
  StatsQueryStats stats_;
  crsim::Task thread_;
  bool started_ = false;
  std::deque<Baseline> baselines_;  // most recent kMaxBaselines, cursor-ordered
  std::uint64_t next_cursor_ = 1;   // 0 is reserved for "no baseline"
};

}  // namespace crnet

#endif  // SRC_NET_STATS_QUERY_H_
