#include "src/obs/obs.h"

#include <fstream>
#include <sstream>

#include "src/base/logging.h"
#include "src/obs/ledger.h"

namespace crobs {

void Hub::WriteMetricsJson(std::ostream& out, std::string_view prefix) const {
  RegistrySnapshot snapshot = Snapshot();
  if (!prefix.empty()) {
    std::erase_if(snapshot.families, [prefix](const FamilySnapshot& family) {
      return std::string_view(family.name).substr(0, prefix.size()) != prefix;
    });
  }
  const StageAttribution& frames = frames_.Totals();
  out << "{\"sim_time_ns\": " << engine_->Now() << ", \"health\": {"
      << "\"trace_recorded\": " << tracer_.recorded()
      << ", \"trace_dropped_events\": " << tracer_.dropped()
      << ", \"flight_recorded\": " << flight_.recorded()
      << ", \"flight_ring_overwrites\": " << flight_.dropped()
      << ", \"flight_triggers\": " << flight_.triggers_fired()
      << ", \"frames_resolved\": " << frames.frames_resolved()
      << ", \"frames_evicted\": " << frames.frames_evicted
      << ", \"frame_conservation_violations\": " << frames.conservation_violations
      << ", \"frame_unattributed_ns\": " << frames.unattributed_ns
      << ", \"slo_burn_events\": " << slo_.burn_events() << "}, \"metrics\": ";
  snapshot.WriteJson(out);
  out << "}\n";
}

std::string Hub::MetricsJson(std::string_view prefix) const {
  std::ostringstream out;
  WriteMetricsJson(out, prefix);
  return out.str();
}

bool Hub::WriteTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    CRAS_LOG(kError) << "cannot open trace file " << path;
    return false;
  }
  tracer_.WriteChromeJson(out);
  return out.good();
}

bool Hub::WriteFlightDump(const std::string& path, std::string_view reason) const {
  std::ofstream out(path);
  if (!out) {
    CRAS_LOG(kError) << "cannot open flight dump file " << path;
    return false;
  }
  flight_.WriteDump(out, reason);
  return out.good();
}

}  // namespace crobs
