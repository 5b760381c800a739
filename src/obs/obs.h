// Observability hub: one Registry + one Tracer per simulation, plus the
// flight recorder, frame tracer and SLO watchdog built on them.
//
// Components receive a `crobs::Hub*` (nullable) through their Options,
// bind the counts they keep to registry series (crobs::Bindings), and
// register the remaining instruments / intern trace tracks at construction.
// A null hub — the default everywhere — means nothing is bound and no
// instrumentation state is even allocated, so the uninstrumented path costs
// one pointer test. The hub must outlive every component bound to it. A
// server event (a deadline miss, a verdict, a fault) is written once, to
// flight(); the recorder mirrors it into the trace while tracing is on.

#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/time_units.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/frame_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace crobs {

class BudgetLedger;

// Nanoseconds -> milliseconds, the unit all latency metrics use.
inline double ToMillis(crbase::Duration d) { return static_cast<double>(d) / 1e6; }

// Default fixed bins for latency histograms (milliseconds).
inline std::vector<double> LatencyBucketsMs() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
}

class Hub {
 public:
  struct Options {
    Tracer::Options trace;
    FlightRecorder::Options flight;
    FrameTracer::Options frames;
    SloMonitor::Options slo;
  };

  explicit Hub(const crsim::Engine& engine, const Options& options = {})
      : engine_(&engine),
        tracer_(engine, options.trace),
        flight_(engine, this, &tracer_, options.flight),
        slo_(engine, this, options.slo),
        frames_(engine, this, options.frames) {}
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  Tracer& trace() { return tracer_; }
  const Tracer& trace() const { return tracer_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  FrameTracer& frames() { return frames_; }
  const FrameTracer& frames() const { return frames_; }
  SloMonitor& slo() { return slo_; }
  const SloMonitor& slo() const { return slo_; }

  // The budget ledger is owned by the instrumented server (it dies with the
  // admission state it audits); the server points the hub at it so dumps can
  // include the ledger tail, and detaches it again on teardown.
  void SetLedger(BudgetLedger* ledger) { ledger_ = ledger; }
  BudgetLedger* ledger() const { return ledger_; }

  crbase::Time Now() const { return engine_->Now(); }

  RegistrySnapshot Snapshot() const { return metrics_.Snapshot(); }

  // {"sim_time_ns": ..., "health": {...}, "metrics": {<registry snapshot>}}
  // The health block carries the observability plane's own loss counters —
  // trace-ring drops, flight-ring overwrites, frame-ring evictions and
  // attribution-conservation violations — so a consumer can tell whether the
  // telemetry it is about to read is itself complete. It is the one place
  // the tracer's drop count appears in the document.
  // A non-empty `prefix` restricts the snapshot to metric families whose
  // name starts with it ("cras." — just the server, "volume." — just the
  // array), which keeps remote stat dumps small on a slow link.
  void WriteMetricsJson(std::ostream& out, std::string_view prefix = {}) const;
  std::string MetricsJson(std::string_view prefix = {}) const;

  // Writes the trace ring as Chrome trace_event JSON. Returns false (and
  // logs) if the file cannot be opened.
  bool WriteTraceFile(const std::string& path) const;

  // Writes flight().RenderDump(reason) to a file.
  bool WriteFlightDump(const std::string& path, std::string_view reason) const;

 private:
  const crsim::Engine* engine_;
  Registry metrics_;
  Tracer tracer_;
  FlightRecorder flight_;
  SloMonitor slo_;
  FrameTracer frames_;
  BudgetLedger* ledger_ = nullptr;
};

}  // namespace crobs

#endif  // SRC_OBS_OBS_H_
