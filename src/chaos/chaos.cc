#include "src/chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/cache/stream_cache.h"
#include "src/mcast/group_manager.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/ledger.h"

namespace crchaos {

namespace {

// Concurrently active *infrastructure* failures (disk windows + a link
// window + a control window). Client crashes are a load change, not an
// infrastructure failure, and do not occupy a slot.
constexpr int kMaxConcurrent = 2;
static_assert(kMaxConcurrent >= 1);
// Spacing between consecutive fault instants.
constexpr crbase::Duration kMinGap = crbase::Milliseconds(250);
constexpr crbase::Duration kMaxGap = crbase::Milliseconds(1500);
static_assert(kMinGap > 0);
static_assert(kMaxGap >= kMinGap);
// The shortest window of a windowed fault (its recovery event lands inside
// it; kMaxWindow in chaos.h is the longest).
constexpr crbase::Duration kMinWindow = crbase::Seconds(2);
static_assert(kMinWindow > 0);
static_assert(kMaxWindow >= kMinWindow);

// Kinds the generator can spend budget on; recoveries are free.
enum class Pick {
  kFailStop,
  kSlowDisk,
  kTransient,
  kLinkLoss,
  kLinkBurst,
  kLinkJitter,
  kLinkDerate,
  kControlDrop,
  kClientCrash,
};

double CostOf(Pick pick) {
  switch (pick) {
    case Pick::kFailStop:
      return 3;
    case Pick::kSlowDisk:
    case Pick::kLinkBurst:
    case Pick::kControlDrop:
    case Pick::kClientCrash:
      return 2;
    case Pick::kTransient:
    case Pick::kLinkLoss:
    case Pick::kLinkJitter:
    case Pick::kLinkDerate:
      return 1;
  }
  return 1;
}

}  // namespace

crfault::FaultPlan GenerateChaosSchedule(const ChaosConfig& config) {
  CRAS_CHECK(config.disks >= 1);

  // Offset the seed stream so chaos draws never collide with a workload
  // generator seeded with the same small integer.
  crbase::Rng rng(config.seed ^ 0xc8a05c8a05ULL);
  crfault::FaultPlan plan;

  double points = config.intensity * crbase::ToSeconds(kScheduleHorizon - kScheduleStart);

  // Per-disk unhealthy-until instant (0 = healthy), and whether the current
  // window is a fail-stop (the unrecoverable kind on a parity group).
  std::vector<crbase::Time> disk_until(static_cast<std::size_t>(config.disks), 0);
  std::vector<bool> disk_failed(static_cast<std::size_t>(config.disks), false);
  crbase::Time data_until = 0;
  crbase::Time control_until = 0;
  std::vector<bool> crashed(config.clients > 0 ? static_cast<std::size_t>(config.clients)
                                               : 0,
                            false);
  int crashes = 0;
  // Keep at least one viewer alive to teardown.
  const int crash_budget =
      std::min(kMaxClientCrashes, std::max(0, config.clients - 1));

  const auto draw_window = [&]() -> crbase::Duration {
    const crbase::Duration spread = kMaxWindow - kMinWindow;
    return kMinWindow +
           (spread > 0 ? static_cast<crbase::Duration>(
                             rng.NextBelow(static_cast<std::uint64_t>(spread) + 1))
                       : 0);
  };

  crbase::Time t = kScheduleStart;
  while (points > 0 && t < kScheduleHorizon) {
    int active = 0;
    bool any_unhealthy = false;
    std::vector<int> healthy;
    for (int d = 0; d < config.disks; ++d) {
      if (disk_until[static_cast<std::size_t>(d)] > t) {
        ++active;
        any_unhealthy = true;
      } else {
        healthy.push_back(d);
      }
    }
    if (data_until > t) {
      ++active;
    }
    if (control_until > t) {
      ++active;
    }

    std::vector<Pick> candidates;
    if (active < kMaxConcurrent) {
      // Without allow_double_fault at most one disk is unhealthy at a time:
      // a parity group then never faces two failed members at once.
      const bool disk_ok =
          !healthy.empty() && (config.allow_double_fault || !any_unhealthy);
      if (disk_ok) {
        candidates.push_back(Pick::kFailStop);
        candidates.push_back(Pick::kSlowDisk);
        candidates.push_back(Pick::kTransient);
      }
      if (data_until <= t) {
        candidates.push_back(Pick::kLinkLoss);
        candidates.push_back(Pick::kLinkBurst);
        candidates.push_back(Pick::kLinkJitter);
        candidates.push_back(Pick::kLinkDerate);
      }
      if (control_until <= t) {
        candidates.push_back(Pick::kControlDrop);
      }
    }
    // A client crash is a load change, not an infrastructure failure: it
    // does not occupy a concurrency slot.
    if (crashes < crash_budget) {
      candidates.push_back(Pick::kClientCrash);
    }

    if (!candidates.empty()) {
      const Pick pick = candidates[rng.NextBelow(candidates.size())];
      switch (pick) {
        case Pick::kFailStop: {
          const int d = healthy[rng.NextBelow(healthy.size())];
          const crbase::Duration w = draw_window();
          plan.FailStop(t, d).Recover(t + w, d);
          disk_until[static_cast<std::size_t>(d)] = t + w;
          disk_failed[static_cast<std::size_t>(d)] = true;
          break;
        }
        case Pick::kSlowDisk: {
          const int d = healthy[rng.NextBelow(healthy.size())];
          const crbase::Duration w = draw_window();
          plan.SlowDisk(t, d, 1.5 + 2.5 * rng.NextDouble()).Recover(t + w, d);
          disk_until[static_cast<std::size_t>(d)] = t + w;
          disk_failed[static_cast<std::size_t>(d)] = false;
          break;
        }
        case Pick::kTransient: {
          // Self-clearing after request_count requests; no recovery event
          // and no concurrency window.
          const int d = healthy[rng.NextBelow(healthy.size())];
          plan.Transient(t, d,
                         crbase::Milliseconds(20 + static_cast<std::int64_t>(
                                                       rng.NextBelow(60))),
                         2 + static_cast<int>(rng.NextBelow(6)));
          break;
        }
        case Pick::kLinkLoss: {
          const crbase::Duration w = draw_window();
          plan.LinkLoss(t, 0.02 + 0.08 * rng.NextDouble()).LinkRecover(t + w);
          data_until = t + w;
          break;
        }
        case Pick::kLinkBurst: {
          const crbase::Duration w = draw_window();
          plan.LinkBurstLoss(t, 0.004 + 0.01 * rng.NextDouble(),
                             0.2 + 0.3 * rng.NextDouble(),
                             0.3 + 0.4 * rng.NextDouble())
              .LinkRecover(t + w);
          data_until = t + w;
          break;
        }
        case Pick::kLinkJitter: {
          const crbase::Duration w = draw_window();
          plan.LinkJitter(t,
                          crbase::Milliseconds(
                              5 + static_cast<std::int64_t>(rng.NextBelow(25))),
                          0.1 * rng.NextDouble())
              .LinkRecover(t + w);
          data_until = t + w;
          break;
        }
        case Pick::kLinkDerate: {
          const crbase::Duration w = draw_window();
          plan.LinkDerate(t, 1.5 + 1.5 * rng.NextDouble()).LinkRecover(t + w);
          data_until = t + w;
          break;
        }
        case Pick::kControlDrop: {
          const crbase::Duration w = draw_window();
          plan.ControlDrop(t, 0.1 + 0.25 * rng.NextDouble(),
                           0.05 + 0.15 * rng.NextDouble())
              .ControlRecover(t + w);
          control_until = t + w;
          break;
        }
        case Pick::kClientCrash: {
          std::vector<int> alive;
          for (int c = 0; c < config.clients; ++c) {
            if (!crashed[static_cast<std::size_t>(c)]) {
              alive.push_back(c);
            }
          }
          const int c = alive[rng.NextBelow(alive.size())];
          plan.ClientCrash(t, c);
          crashed[static_cast<std::size_t>(c)] = true;
          ++crashes;
          break;
        }
      }
      points -= CostOf(pick);
    }

    const crbase::Duration spread = kMaxGap - kMinGap;
    t += kMinGap +
         (spread > 0 ? static_cast<crbase::Duration>(
                           rng.NextBelow(static_cast<std::uint64_t>(spread) + 1))
                     : 0);
  }

  return plan;
}

namespace {

bool IsMemberChangingFault(const std::string& detail) {
  return detail == "fail_stop" || detail == "slow_disk" || detail == "recover";
}

bool IsDiskFaultDetail(const std::string& detail) {
  return detail == "fail_stop" || detail == "slow_disk" || detail == "recover" ||
         detail == "transient";
}

bool IsMissCause(crobs::FlightEventKind kind) {
  switch (kind) {
    case crobs::FlightEventKind::kFaultInjected:
    case crobs::FlightEventKind::kMemberChange:
    case crobs::FlightEventKind::kStreamShed:
    case crobs::FlightEventKind::kLeaseReap:
    case crobs::FlightEventKind::kNakGiveUp:
    case crobs::FlightEventKind::kCachePairBroken:
    case crobs::FlightEventKind::kCacheFallback:
    case crobs::FlightEventKind::kGroupLeft:
      return true;
    default:
      return false;
  }
}

}  // namespace

AuditReport AuditRun(const AuditInput& input) {
  CRAS_CHECK(input.hub != nullptr);
  CRAS_CHECK(input.server != nullptr);
  AuditReport report;
  const auto violate = [&report](std::string invariant, std::string detail) {
    report.violations.push_back({std::move(invariant), std::move(detail)});
  };

  const crobs::FlightRecorder& flight = input.hub->flight();
  const std::deque<crobs::FlightEvent>& events = flight.events();
  // A truncated ring cannot prove an event's *absence*; absence-based checks
  // are skipped then (presence-based ones still hold).
  const bool ring_truncated = flight.dropped() > 0;
  report.ring_truncated = ring_truncated;
  report.flight_dropped = flight.dropped();

  // --- 1. Every admitted stream reached exactly one terminal state. -------
  for (const SessionFate& fate : input.fates) {
    const std::string tag = "session " + std::to_string(fate.id);
    if (input.server->HasSession(fate.id)) {
      violate("wedged_session", tag + " still open at teardown");
      continue;
    }
    const bool shed = input.server->WasShed(fate.id);
    const bool reaped = input.server->WasReaped(fate.id);
    if (!fate.closed && !shed && !reaped) {
      violate("no_terminal_state",
              tag + " vanished without a close, a shed, or a reap");
    }
    if (input.expect_no_resume && shed && reaped) {
      violate("conflicting_terminal", tag + " both shed and reaped without a resume");
    }
  }

  // --- 2. Every missed frame has an attributable cause. -------------------
  if (input.frames_missed > 0 && !ring_truncated) {
    bool attributed = false;
    for (const crobs::FlightEvent& event : events) {
      // The ring is time-ordered; causes must precede (or coincide with,
      // within a scheduling tick) the first miss.
      if (input.first_miss_at >= 0 &&
          event.ts > input.first_miss_at + crbase::Milliseconds(1)) {
        break;
      }
      if (IsMissCause(event.kind)) {
        attributed = true;
        break;
      }
    }
    if (!attributed) {
      violate("unattributed_miss",
              std::to_string(input.frames_missed) +
                  " frame(s) missed with no cause event at or before the first miss");
    }
  }

  // --- 3. Reservations balance to zero at teardown. -----------------------
  if (input.server->open_sessions() == 0) {
    if (input.server->buffer_bytes_reserved() != 0) {
      violate("buffer_reservation_leak",
              std::to_string(input.server->buffer_bytes_reserved()) +
                  " buffer bytes still reserved with no open sessions");
    }
    if (const crcache::StreamCache* cache = input.server->cache();
        cache != nullptr && cache->interval_pool_used() != 0) {
      // The prefix pool stays pinned across sessions by design; only the
      // per-pair interval pool must drain.
      violate("cache_reservation_leak",
              std::to_string(cache->interval_pool_used()) +
                  " interval-pool bytes still held with no open sessions");
    }
  }

  // Disturbance timeline: every injected fault and member change, plus the
  // set of disks that were ever targeted by a disk fault.
  std::set<std::int64_t> faulted_disks;
  std::vector<crbase::Time> disturbances;
  std::vector<crbase::Time> resettles;
  for (const crobs::FlightEvent& event : events) {
    if (event.kind == crobs::FlightEventKind::kFaultInjected) {
      disturbances.push_back(event.ts);
      if (IsDiskFaultDetail(event.detail)) {
        faulted_disks.insert(event.a);
      }
    } else if (event.kind == crobs::FlightEventKind::kMemberChange) {
      disturbances.push_back(event.ts);
    } else if (event.kind == crobs::FlightEventKind::kResettled) {
      resettles.push_back(event.ts);
    }
  }

  // --- 4. Zero budget overruns on never-faulted disks. --------------------
  if (const crobs::BudgetLedger* ledger = input.hub->ledger()) {
    for (const crobs::BudgetLedger::IntervalRow& row : ledger->rows()) {
      if (!row.closed) {
        continue;
      }
      const bool near_disturbance =
          std::any_of(disturbances.begin(), disturbances.end(),
                      [&row, &input](crbase::Time ts) {
                        return ts >= row.began_at - input.settle_grace &&
                               ts <= row.began_at + input.settle_grace;
                      });
      if (near_disturbance) {
        continue;
      }
      for (const crobs::BudgetLedger::DiskRow& disk : row.disks) {
        if (disk.overrun() && faulted_disks.count(disk.disk) == 0) {
          violate("healthy_disk_overrun",
                  "disk " + std::to_string(disk.disk) + " slot " +
                      std::to_string(row.slot) + ": actual " +
                      std::to_string(disk.actual.total_ms()) + " ms > predicted " +
                      std::to_string(disk.predicted.total_ms()) +
                      " ms with no fault on that disk");
        }
      }
    }
  }

  // --- 5. Multicast membership conservation. ------------------------------
  if (const crmcast::GroupManager* groups = input.server->mcast_groups()) {
    const crmcast::GroupManagerStats& stats = groups->stats();
    if (stats.members_joined != stats.members_left) {
      violate("mcast_member_leak",
              std::to_string(stats.members_joined) + " joins vs " +
                  std::to_string(stats.members_left) +
                  " leaves (incl. demotions and completions)");
    }
    if (stats.groups_formed != stats.groups_dissolved ||
        groups->group_count() != 0) {
      violate("mcast_group_leak",
              std::to_string(stats.groups_formed) + " formed, " +
                  std::to_string(stats.groups_dissolved) + " dissolved, " +
                  std::to_string(groups->group_count()) + " still alive");
    }
  }

  // --- 6. Parity double-fault envelope. -----------------------------------
  if (input.parity) {
    std::set<std::int64_t> failed_now;
    bool flagged = false;
    for (const crobs::FlightEvent& event : events) {
      if (event.kind != crobs::FlightEventKind::kMemberChange) {
        continue;
      }
      if (event.detail == "failed") {
        failed_now.insert(event.a);
      } else {
        failed_now.erase(event.a);
      }
      if (!flagged && failed_now.size() >= 2) {
        std::string disks;
        for (const std::int64_t d : failed_now) {
          disks += (disks.empty() ? "" : ",") + std::to_string(d);
        }
        violate("unrecoverable_double_fault",
                "disks {" + disks + "} failed simultaneously on a parity volume");
        flagged = true;
      }
    }
  }

  // --- 7. Every admission-affecting fault re-settles. ---------------------
  for (const crobs::FlightEvent& event : events) {
    if (event.kind != crobs::FlightEventKind::kFaultInjected ||
        !IsMemberChangingFault(event.detail)) {
      continue;
    }
    const auto it = std::lower_bound(resettles.begin(), resettles.end(), event.ts);
    if (it != resettles.end()) {
      report.recovery_latencies_ms.push_back(crbase::ToMilliseconds(*it - event.ts));
    } else if (!ring_truncated) {
      violate("fault_without_resettle",
              event.detail + " on disk " + std::to_string(event.a) + " at " +
                  std::to_string(crbase::ToMilliseconds(event.ts)) +
                  " ms never re-settled admission");
    }
  }

  // --- 8. Frame latency attribution conserves end-to-end time. ------------
  if (const crobs::FrameTracer& frames = input.hub->frames(); frames.enabled()) {
    const crobs::StageAttribution& totals = frames.Totals();
    if (totals.conservation_violations > 0) {
      violate("frame_attribution",
              std::to_string(totals.conservation_violations) +
                  " frame(s) resolved with non-monotone stage stamps");
    }
    if (totals.unattributed_ns != 0) {
      violate("frame_attribution",
              std::to_string(totals.unattributed_ns) +
                  " ns of end-to-end latency attributed to no stage");
    }
  }

  return report;
}

std::string AuditReport::Summary() const {
  if (ok()) {
    return "ok";
  }
  std::string out = std::to_string(violations.size()) + " violation(s):";
  for (const Violation& violation : violations) {
    out += " " + violation.invariant + " [" + violation.detail + "];";
  }
  return out;
}

bool DumpIfViolated(const crobs::Hub& hub, const AuditReport& report,
                    const std::string& path) {
  if (report.ok()) {
    return false;
  }
  return hub.WriteFlightDump(path, "chaos audit: " + report.Summary());
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const auto index = std::min(values.size() - 1,
                              static_cast<std::size_t>(std::max(rank - 1, 0.0)));
  return values[index];
}

}  // namespace crchaos
