// Chaos campaign engine: seeded fault schedules + cross-layer invariant audit.
//
// A chaos campaign answers a question no single-fault test can: does the
// server stay *conservation-correct* under randomized, overlapping
// disturbances? Two pieces:
//
//   GenerateChaosSchedule — expands one 64-bit seed into a crfault::FaultPlan
//     drawn from the full fault vocabulary (disk fail-stop/transient/slow,
//     link loss/burst/jitter/derate, control-plane drop+duplication, client
//     crash) under explicit constraints: a total intensity budget, a cap on
//     concurrently-active failures, and — unless the campaign is explicitly
//     shed-testing — never an unrecoverable double fault (two failed members
//     of one parity group at once). The same seed always yields the same
//     plan, so any failing campaign replays exactly from its seed.
//
//   AuditRun — consumes the flight recorder, metrics and budget ledger after
//     a run and checks conservation laws that must hold across layers no
//     matter what was injected:
//       * every admitted stream reached a terminal state (closed, shed, or
//         reaped) and none is still open ("wedged") at teardown;
//       * every missed frame has an attributable cause event at or before
//         the first miss;
//       * buffer and cache *interval* reservations balance to zero once all
//         sessions are gone (the cache prefix pool stays pinned by design
//         and is exempt);
//       * the budget ledger shows zero overruns on disks that were never
//         faulted, outside a settle grace around each disturbance;
//       * multicast joins == leaves and groups formed == dissolved;
//       * on a parity volume, the member-change history never shows two
//         simultaneously-failed members (the unrecoverable envelope the
//         generator promises to avoid — a deliberate double-fault campaign
//         uses exactly this check to prove the auditor bites).
//     Any violation is returned with enough detail to dump the flight
//     recorder (DumpIfViolated) and fail the run. The report also carries
//     fault -> next-kResettled recovery latencies for percentile reporting.

#ifndef SRC_CHAOS_CHAOS_H_
#define SRC_CHAOS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"

namespace crchaos {

// The schedule's bounds. Faults land in [kScheduleStart, kScheduleHorizon);
// recoveries may extend past the horizon by at most kMaxWindow, the longest
// window of a windowed fault. The warm-up before kScheduleStart lets
// admission settle. The spacing between fault instants, the shortest window
// and the cap of two concurrently active infrastructure failures (disk
// windows, a link window, a control window) are constants in chaos.cc.
inline constexpr crbase::Time kScheduleStart = crbase::Seconds(3);
inline constexpr crbase::Time kScheduleHorizon = crbase::Seconds(18);
static_assert(kScheduleHorizon > kScheduleStart);
inline constexpr crbase::Duration kMaxWindow = crbase::Seconds(5);
// At most this many client crashes fire, each against a distinct client
// index, so some viewers always survive to teardown.
inline constexpr int kMaxClientCrashes = 2;

// Knobs for one generated campaign: a ~15-simulated-second disturbance
// window against a 4-disk parity volume by default.
struct ChaosConfig {
  std::uint64_t seed = 1;

  // Intensity budget: the plan spends roughly intensity points per
  // simulated second of the window, each fault costing a kind-specific
  // weight (fail-stop is the most expensive). 1.0 is the default campaign.
  double intensity = 1.0;

  // When false (default), at most one disk is unhealthy at any instant, so
  // a parity group never sees an unrecoverable double fault. Shed-testing
  // campaigns set this to true — and the auditor will flag the envelope.
  bool allow_double_fault = false;

  int disks = 4;

  // Crash-able viewer population; 0 disables client-crash faults.
  int clients = 0;
};

// Deterministically expands config.seed into a fault plan honoring the
// constraints above. Recovery events cost no budget.
crfault::FaultPlan GenerateChaosSchedule(const ChaosConfig& config);

// What the rig knows about one admitted session at teardown.
struct SessionFate {
  cras::SessionId id = cras::kInvalidSession;
  // The client's Close completed (including a close that raced the reaper —
  // the session is gone either way, which is what Close is for).
  bool closed = false;
  // The client crashed mid-run and never sent Close; the lease reaper (or
  // the shedder) must have collected the session.
  bool crashed = false;
};

struct AuditInput {
  const crobs::Hub* hub = nullptr;
  const cras::CrasServer* server = nullptr;
  std::vector<SessionFate> fates;  // one per admitted session

  // Playback outcome observed by the rig's viewers.
  std::int64_t frames_missed = 0;
  crbase::Time first_miss_at = -1;  // < 0: no miss timestamp recorded

  // The volume has a parity member, so two simultaneously-failed disks are
  // unrecoverable; enables the double-fault envelope check.
  bool parity = false;

  // Ledger rows whose interval began within this long of a disturbance are
  // exempt from the healthy-disk overrun check: their prediction predates
  // the disturbance their actuals include.
  crbase::Duration settle_grace = crbase::Seconds(2);

  // The rig never resumes reaped sessions, so a session marked both shed
  // and reaped indicates double bookkeeping. Set false for rigs that call
  // Reconnect.
  bool expect_no_resume = true;
};

struct Violation {
  std::string invariant;  // short slug, e.g. "wedged_session"
  std::string detail;
};

struct AuditReport {
  std::vector<Violation> violations;
  // Per admission-affecting disk fault: gap to the next kResettled, ms.
  std::vector<double> recovery_latencies_ms;
  // The flight ring overwrote events before the audit read it: every
  // absence-based check was skipped, so an "ok" verdict is weaker. Rigs
  // must surface this (a truncated ring silently passing is itself a bug).
  bool ring_truncated = false;
  std::int64_t flight_dropped = 0;  // events the ring overwrote
  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

AuditReport AuditRun(const AuditInput& input);

// If the report has violations, writes the hub's flight dump to `path`
// (reason = the report summary) and returns true.
bool DumpIfViolated(const crobs::Hub& hub, const AuditReport& report,
                    const std::string& path);

// Nearest-rank percentile (pct in [0, 100]); 0 on an empty sample.
double Percentile(std::vector<double> values, double pct);

}  // namespace crchaos

#endif  // SRC_CHAOS_CHAOS_H_
