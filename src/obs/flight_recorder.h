// Flight recorder: the server's black box.
//
// Every layer feeds structured, simulation-stamped events — deadline misses,
// admission verdicts, member-state changes, stream sheds, lease reaps, NAK
// give-ups, injected faults — into one bounded ring. A *dump* freezes the
// last N seconds of that ring together with a full metrics snapshot and the
// budget-ledger tail into a single JSON document, so an anomaly that
// happened mid-run can be explained after the fact: what the server decided,
// in what order, and what every per-term disk budget looked like around the
// moment things went wrong.
//
// Dumps happen two ways: on demand (RenderDump — a pure read, usable from a
// const Hub, which is how crnet::StatsQueryService serves a remote
// DumpQuery), and automatically (Options::triggers lists event kinds that
// freeze a dump the instant one is recorded; the newest max_dumps are
// retained for benches to write to disk). Recording is a deque push; the
// ring drops its oldest event past `capacity`, and the dump header carries
// the drop count so a truncated window is detectable.
//
// Record is the one place a server event is written. While the hub's tracer
// is enabled, each event is also a Chrome instant on the tracer's "events"
// track, named by FlightEventKindName and carrying the event's value. The
// two rings stay separate instances, so a busy trace never evicts the black
// box the chaos auditor reads.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/time_units.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace crobs {

class Hub;

enum class FlightEventKind : std::uint8_t {
  kDeadlineMiss,      // a: session, b: interval slot, value: overrun ms
  kAdmissionAccept,   // a: stream count, value: worst interval-I/O ms
  kAdmissionReject,   // a: stream count, value: worst interval-I/O ms
  kMemberChange,      // a: disk, detail: new state name
  kStreamShed,        // a: session
  kLeaseReap,         // a: session, value: lease age ms
  kNakGiveUp,         // a: sequence number, b: NAKs sent, detail: end
  kFaultInjected,     // a: disk (or 0 for a link), detail: fault kind
  kCachePairFormed,   // a: follower session, b: predecessor, value: reserved bytes
  kCachePairBroken,   // a: follower session, b: predecessor, detail: reason
  kCacheFallback,     // a: session, b: chunks the cache could not serve
  kGroupFormed,       // a: delivery group, b: feed session
  kGroupJoined,       // a: member session, b: group, value: merge chunk
  kGroupLeft,         // a: member session, b: group, detail: reason
  kRepairSent,        // a: group, b: window fragments, value: repair bytes
  // Admission re-settled after a disturbance (member change, cache
  // fallback, group demote): the open set passes the current model again.
  // The gap from a kFaultInjected to the next kResettled is the fault's
  // recovery latency.
  kResettled,         // a: streams kept, b: streams shed by this settle
  // An SLO budget is burning faster than allowed: a: session (-1 = fleet),
  // b: dominant StageBucket, value: burn rate, detail: dominant stage name.
  kSloBurn,
};
inline constexpr int kFlightEventKindCount = static_cast<int>(FlightEventKind::kSloBurn) + 1;

const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  crbase::Time ts = 0;
  FlightEventKind kind = FlightEventKind::kDeadlineMiss;
  std::int64_t a = 0;  // primary id (see the kind's comment)
  std::int64_t b = 0;  // secondary id
  double value = 0;    // magnitude in the kind's unit
  std::string detail;  // short label; empty when the ids say it all
};

class FlightRecorder {
 public:
  struct Options {
    std::size_t capacity = 4096;  // events retained; oldest dropped first
    // A dump serializes the events with ts >= now - window.
    crbase::Duration window = crbase::Seconds(10);
    // Frozen dumps retained by Trigger(); oldest evicted past this bound.
    std::size_t max_dumps = 4;
    // Event kinds that freeze a dump the moment one is recorded (opt-in;
    // empty means dumps happen only on demand).
    std::vector<FlightEventKind> triggers;
  };

  // `hub` (for dumps) and `tracer` (for the instants) may be null.
  FlightRecorder(const crsim::Engine& engine, const Hub* hub, Tracer* tracer,
                 const Options& options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(FlightEventKind kind, std::int64_t a = 0, std::int64_t b = 0,
              double value = 0, std::string detail = {});

  // Renders the dump document at the current instant: the in-window event
  // tail, the hub's budget-ledger tail (when one is registered), and the
  // full metrics snapshot. Pure read — safe on a const hub.
  std::string RenderDump(std::string_view reason) const;
  void WriteDump(std::ostream& out, std::string_view reason) const;

  // Renders and retains a dump (the "freeze" action of a trigger hook).
  void Trigger(const std::string& reason);

  std::size_t size() const { return events_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t triggers_fired() const { return triggers_fired_; }
  const std::deque<FlightEvent>& events() const { return events_; }
  const std::deque<std::string>& dumps() const { return dumps_; }

 private:
  const crsim::Engine* engine_;
  const Hub* hub_;
  Tracer* tracer_;
  Options options_;
  std::uint32_t track_ = 0;                         // "events"
  std::uint32_t names_[kFlightEventKindCount] = {};  // FlightEventKindName ids
  std::uint32_t trigger_mask_ = 0;  // bit per FlightEventKind
  std::deque<FlightEvent> events_;
  std::deque<std::string> dumps_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t triggers_fired_ = 0;
};

}  // namespace crobs

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
