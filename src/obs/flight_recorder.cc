#include "src/obs/flight_recorder.h"

#include <sstream>
#include <utility>

#include "src/obs/json.h"
#include "src/obs/ledger.h"
#include "src/obs/obs.h"

namespace crobs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kDeadlineMiss:
      return "deadline_miss";
    case FlightEventKind::kAdmissionAccept:
      return "admission_accept";
    case FlightEventKind::kAdmissionReject:
      return "admission_reject";
    case FlightEventKind::kMemberChange:
      return "member_change";
    case FlightEventKind::kStreamShed:
      return "stream_shed";
    case FlightEventKind::kLeaseReap:
      return "lease_reap";
    case FlightEventKind::kNakGiveUp:
      return "nak_give_up";
    case FlightEventKind::kFaultInjected:
      return "fault_injected";
    case FlightEventKind::kCachePairFormed:
      return "cache_pair_formed";
    case FlightEventKind::kCachePairBroken:
      return "cache_pair_broken";
    case FlightEventKind::kCacheFallback:
      return "cache_fallback";
    case FlightEventKind::kGroupFormed:
      return "group_formed";
    case FlightEventKind::kGroupJoined:
      return "group_joined";
    case FlightEventKind::kGroupLeft:
      return "group_left";
    case FlightEventKind::kRepairSent:
      return "repair_sent";
    case FlightEventKind::kResettled:
      return "resettled";
    case FlightEventKind::kSloBurn:
      return "slo_burn";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const crsim::Engine& engine, const Hub* hub, Tracer* tracer,
                               const Options& options)
    : engine_(&engine), hub_(hub), tracer_(tracer), options_(options) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
  for (const FlightEventKind kind : options_.triggers) {
    trigger_mask_ |= 1u << static_cast<unsigned>(kind);
  }
  if (tracer_ != nullptr) {
    track_ = tracer_->InternTrack("events");
    for (int k = 0; k < kFlightEventKindCount; ++k) {
      names_[k] = tracer_->InternName(FlightEventKindName(static_cast<FlightEventKind>(k)));
    }
  }
}

void FlightRecorder::Record(FlightEventKind kind, std::int64_t a, std::int64_t b,
                            double value, std::string detail) {
  events_.push_back(FlightEvent{engine_->Now(), kind, a, b, value, std::move(detail)});
  ++recorded_;
  if (events_.size() > options_.capacity) {
    events_.pop_front();
    ++dropped_;
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(track_, names_[static_cast<int>(kind)], value);
  }
  if ((trigger_mask_ & (1u << static_cast<unsigned>(kind))) != 0) {
    Trigger(std::string("auto:") + FlightEventKindName(kind));
  }
}

void FlightRecorder::WriteDump(std::ostream& out, std::string_view reason) const {
  const crbase::Time now = engine_->Now();
  const crbase::Time cutoff = now >= options_.window ? now - options_.window : 0;
  out << "{\"reason\": ";
  WriteJsonString(out, reason);
  out << ", \"sim_time_ns\": " << now << ", \"window_ns\": " << options_.window
      << ", \"events_recorded\": " << recorded_ << ", \"events_dropped\": " << dropped_
      << ",\n \"events\": [";
  bool first = true;
  for (const FlightEvent& event : events_) {
    if (event.ts < cutoff) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n  {\"ts_ns\": " << event.ts << ", \"kind\": ";
    WriteJsonString(out, FlightEventKindName(event.kind));
    out << ", \"a\": " << event.a << ", \"b\": " << event.b << ", \"value\": ";
    WriteJsonNumber(out, event.value);
    out << ", \"detail\": ";
    WriteJsonString(out, event.detail);
    out << "}";
  }
  out << "\n ],\n \"ledger_tail\": ";
  if (hub_ != nullptr && hub_->ledger() != nullptr) {
    hub_->ledger()->WriteJsonTail(out, 16);
  } else {
    out << "[]";
  }
  out << ",\n \"metrics\": ";
  if (hub_ != nullptr) {
    hub_->WriteMetricsJson(out);
  } else {
    out << "{}";
  }
  out << "}\n";
}

std::string FlightRecorder::RenderDump(std::string_view reason) const {
  std::ostringstream out;
  WriteDump(out, reason);
  return out.str();
}

void FlightRecorder::Trigger(const std::string& reason) {
  ++triggers_fired_;
  dumps_.push_back(RenderDump(reason));
  while (dumps_.size() > options_.max_dumps) {
    dumps_.pop_front();
  }
}

}  // namespace crobs
