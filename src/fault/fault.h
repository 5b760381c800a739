// Fault injection for the storage array and the network path.
//
// A FaultPlan is a script of misbehaviours at absolute simulation
// timestamps; a FaultInjector arms the plan against a crvol::Volume and/or
// a crnet::Link, turning each event into the matching low-level action when
// its time arrives.
//
// Disk events (target a member disk of the volume):
//
//   fail-stop   — Volume::SetMemberState(kFailed): the member serves its
//                 already-queued requests but is never routed to again (a
//                 parity volume reconstructs its reads; the CRAS
//                 degradation controller re-runs admission).
//   transient   — DiskDevice::InjectTransientFault: the next `count`
//                 requests each take `extra` longer (recalibration stall,
//                 retried read). No routing change.
//   slow-disk   — DiskDevice::SetThroughputDerating(factor) plus
//                 SetMemberState(kSlow): the member keeps serving at a
//                 derated media rate, and admission is re-run against the
//                 heterogeneous per-member model.
//   recover     — derating back to 1.0, state back to kHealthy.
//
// Link events (target the armed link; see crnet::LinkImpairments). Each binds
// the packets the link accepts after it:
//
//   link-loss       — i.i.d. per-packet wire loss at the given probability;
//   link-burst-loss — Gilbert–Elliott bursty loss (enter/exit/loss-in-bad);
//   link-jitter     — uniform extra propagation in [0, jitter], plus
//                     optional explicit reordering;
//   link-derate     — serialization bandwidth divided by a factor;
//   link-recover    — back to a perfect link.
//
// Client and control-plane events (the chaos-campaign vocabulary):
//
//   client-crash    — abrupt viewer death: the registered crash handler is
//                     invoked with the client index. The client never sends
//                     another heartbeat or a Close, so the server's lease
//                     reaper (and the mcast member-left path) must reclaim
//                     everything it held.
//   control-drop    — the *control* links (SetControlLinks) start losing
//                     and duplicating packets: lost and replayed control
//                     RPCs, the idempotency/retry hazard.
//   control-recover — control links back to perfect.
//
// The injector carries no thread of its own — events ride the simulation
// engine's queue — and is safe to destroy before or after they fire
// (pending events are cancelled on destruction).

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/net/link.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/volume/volume.h"

namespace crfault {

using crbase::Duration;
using crbase::Time;

enum class FaultKind {
  kFailStop,
  kTransient,
  kSlowDisk,
  kRecover,
  kLinkLoss,
  kLinkBurstLoss,
  kLinkJitter,
  kLinkDerate,
  kLinkRecover,
  kClientCrash,
  kControlDrop,
  kControlRecover,
};

const char* FaultKindName(FaultKind kind);
// True for the kinds applied to a link rather than a member disk.
bool IsLinkFault(FaultKind kind);
// True for the kinds applied to the control links.
bool IsControlFault(FaultKind kind);
// True for kClientCrash (needs a registered crash handler).
bool IsClientFault(FaultKind kind);

struct FaultEvent {
  Time at = 0;  // absolute simulation time
  int disk = 0;  // disk events: member disk; kClientCrash: client index
  FaultKind kind = FaultKind::kFailStop;
  // kTransient:
  Duration extra_latency = 0;
  int request_count = 0;
  // kSlowDisk / kLinkDerate:
  double throughput_derating = 1.0;
  // kLinkLoss / kLinkBurstLoss / kControlDrop:
  double loss_probability = 0.0;
  // kControlDrop: probability a delivered control packet is replayed.
  double duplicate_probability = 0.0;
  double ge_p_enter_bad = 0.0;
  double ge_p_exit_bad = 0.0;
  double ge_loss_bad = 1.0;
  // kLinkJitter:
  Duration jitter = 0;
  double reorder_probability = 0.0;
  Duration reorder_delay = 0;
};

// An ordered script of fault events. Build with the fluent helpers:
//
//   crfault::FaultPlan plan;
//   plan.FailStop(crbase::Seconds(2), /*disk=*/1)
//       .LinkLoss(crbase::Seconds(3), /*probability=*/0.01)
//       .LinkRecover(crbase::Seconds(8));
class FaultPlan {
 public:
  FaultPlan& FailStop(Time at, int disk);
  FaultPlan& Transient(Time at, int disk, Duration extra_latency, int request_count);
  FaultPlan& SlowDisk(Time at, int disk, double throughput_derating);
  FaultPlan& Recover(Time at, int disk);
  FaultPlan& LinkLoss(Time at, double probability);
  FaultPlan& LinkBurstLoss(Time at, double p_enter_bad, double p_exit_bad, double loss_bad);
  FaultPlan& LinkJitter(Time at, Duration jitter, double reorder_probability = 0.0,
                        Duration reorder_delay = 0);
  FaultPlan& LinkDerate(Time at, double factor);
  FaultPlan& LinkRecover(Time at);
  FaultPlan& ClientCrash(Time at, int client);
  FaultPlan& ControlDrop(Time at, double loss_probability, double duplicate_probability);
  FaultPlan& ControlRecover(Time at);
  FaultPlan& Add(const FaultEvent& event);

  // Appends every event of `other` — composed chaos schedules splice
  // hand-written plans into generated ones. Order is irrelevant: each event
  // is scheduled independently at its own timestamp.
  FaultPlan& Merge(const FaultPlan& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Parses the bench-flag spec "<kind>:<args>@<t_ms>" into one event, so
  // any bench can script any fault from the CLI:
  //
  //   fail_stop:1@2000            transient:1,800,3@2000
  //   slow_disk:1,2.0@2000        recover:1@8000
  //   link_loss:0.01@3000         link_burst_loss:0.005,0.3,0.5@3000
  //   link_jitter:20,0.1,5@3000   link_derate:2.0@3000
  //   link_recover@8000           client_crash:2@4000
  //   control_drop:0.2,0.1@3000   control_recover@8000
  //
  // Numeric args follow each builder's parameter order; durations are in
  // milliseconds. The pre-chaos form "<disk>@<t_ms>" (e.g. "1@2000") still
  // parses as a fail-stop of that member.
  static crbase::Result<FaultEvent> ParseSpec(const std::string& spec);

 private:
  std::vector<FaultEvent> events_;
};

// Schedules a plan's events against one volume and/or a set of links.
// Arm() may be called once; the injector must outlive the armed events or
// be destroyed to cancel the ones still pending (the targets must outlive
// the injector). A plan's disk events require a volume, its link events at
// least one link. With several links — e.g. the shared forward link of a
// multicast delivery group plus its members' reverse links — every link
// event applies to all of them, so one script degrades the whole path.
// Control events target the SetControlLinks set (falling back to the data
// links when none is registered); client-crash events invoke the handler
// registered with SetClientCrashHandler. An event whose timestamp is
// already past when Arm() runs fires immediately — a merged plan armed
// mid-run loses nothing.
class FaultInjector {
 public:
  FaultInjector(crsim::Engine& engine, crvol::Volume& volume, FaultPlan plan);
  FaultInjector(crsim::Engine& engine, crvol::Volume* volume, crnet::Link* link,
                FaultPlan plan);
  FaultInjector(crsim::Engine& engine, crvol::Volume* volume,
                std::vector<crnet::Link*> links, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector();

  void Arm();
  bool armed() const { return armed_; }
  std::int64_t events_fired() const { return fired_; }

  // Registers the target of kClientCrash events: called with the event's
  // client index. Must be set before Arm() if the plan crashes clients.
  void SetClientCrashHandler(std::function<void(int)> handler) {
    crash_handler_ = std::move(handler);
  }
  // Registers the links control events apply to (the request/reply path of
  // crnet::ControlService). Without this, control events fall back to the
  // data links.
  void SetControlLinks(std::vector<crnet::Link*> links);

  // Counts injected events keyed {kind, target} and records each as a
  // fault_injected flight event (detail: the fault kind).
  void AttachObs(crobs::Hub* hub) { hub_ = hub; }

 private:
  void Apply(const FaultEvent& event);
  // Links a control event applies to: the registered control links, or the
  // data links when none were registered.
  const std::vector<crnet::Link*>& ControlTargets() const {
    return control_links_.empty() ? links_ : control_links_;
  }

  crsim::Engine* engine_;
  crvol::Volume* volume_;
  std::vector<crnet::Link*> links_;
  std::vector<crnet::Link*> control_links_;
  std::function<void(int)> crash_handler_;
  FaultPlan plan_;
  bool armed_ = false;
  std::int64_t fired_ = 0;
  std::vector<crsim::EventId> pending_;
  crobs::Hub* hub_ = nullptr;
};

}  // namespace crfault

#endif  // SRC_FAULT_FAULT_H_
