#include "src/fault/fault.h"

#include <charconv>
#include <utility>

#include "src/base/logging.h"

namespace crfault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailStop:
      return "fail_stop";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kSlowDisk:
      return "slow_disk";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kLinkLoss:
      return "link_loss";
    case FaultKind::kLinkBurstLoss:
      return "link_burst_loss";
    case FaultKind::kLinkJitter:
      return "link_jitter";
    case FaultKind::kLinkDerate:
      return "link_derate";
    case FaultKind::kLinkRecover:
      return "link_recover";
    case FaultKind::kClientCrash:
      return "client_crash";
    case FaultKind::kControlDrop:
      return "control_drop";
    case FaultKind::kControlRecover:
      return "control_recover";
  }
  return "unknown";
}

bool IsLinkFault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkLoss:
    case FaultKind::kLinkBurstLoss:
    case FaultKind::kLinkJitter:
    case FaultKind::kLinkDerate:
    case FaultKind::kLinkRecover:
      return true;
    case FaultKind::kFailStop:
    case FaultKind::kTransient:
    case FaultKind::kSlowDisk:
    case FaultKind::kRecover:
    case FaultKind::kClientCrash:
    case FaultKind::kControlDrop:
    case FaultKind::kControlRecover:
      return false;
  }
  return false;
}

bool IsControlFault(FaultKind kind) {
  return kind == FaultKind::kControlDrop || kind == FaultKind::kControlRecover;
}

bool IsClientFault(FaultKind kind) { return kind == FaultKind::kClientCrash; }

FaultPlan& FaultPlan::FailStop(Time at, int disk) {
  return Add(FaultEvent{at, disk, FaultKind::kFailStop});
}

FaultPlan& FaultPlan::Transient(Time at, int disk, Duration extra_latency, int request_count) {
  FaultEvent event{at, disk, FaultKind::kTransient};
  event.extra_latency = extra_latency;
  event.request_count = request_count;
  return Add(event);
}

FaultPlan& FaultPlan::SlowDisk(Time at, int disk, double throughput_derating) {
  FaultEvent event{at, disk, FaultKind::kSlowDisk};
  event.throughput_derating = throughput_derating;
  return Add(event);
}

FaultPlan& FaultPlan::Recover(Time at, int disk) {
  return Add(FaultEvent{at, disk, FaultKind::kRecover});
}

FaultPlan& FaultPlan::LinkLoss(Time at, double probability) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  FaultEvent event{at, 0, FaultKind::kLinkLoss};
  event.loss_probability = probability;
  return Add(event);
}

FaultPlan& FaultPlan::LinkBurstLoss(Time at, double p_enter_bad, double p_exit_bad,
                                    double loss_bad) {
  FaultEvent event{at, 0, FaultKind::kLinkBurstLoss};
  event.ge_p_enter_bad = p_enter_bad;
  event.ge_p_exit_bad = p_exit_bad;
  event.ge_loss_bad = loss_bad;
  return Add(event);
}

FaultPlan& FaultPlan::LinkJitter(Time at, Duration jitter, double reorder_probability,
                                 Duration reorder_delay) {
  FaultEvent event{at, 0, FaultKind::kLinkJitter};
  event.jitter = jitter;
  event.reorder_probability = reorder_probability;
  event.reorder_delay = reorder_delay;
  return Add(event);
}

FaultPlan& FaultPlan::LinkDerate(Time at, double factor) {
  CRAS_CHECK(factor >= 1.0);
  FaultEvent event{at, 0, FaultKind::kLinkDerate};
  event.throughput_derating = factor;
  return Add(event);
}

FaultPlan& FaultPlan::LinkRecover(Time at) {
  return Add(FaultEvent{at, 0, FaultKind::kLinkRecover});
}

FaultPlan& FaultPlan::ClientCrash(Time at, int client) {
  return Add(FaultEvent{at, client, FaultKind::kClientCrash});
}

FaultPlan& FaultPlan::ControlDrop(Time at, double loss_probability,
                                  double duplicate_probability) {
  CRAS_CHECK(loss_probability >= 0.0 && loss_probability <= 1.0);
  CRAS_CHECK(duplicate_probability >= 0.0 && duplicate_probability <= 1.0);
  FaultEvent event{at, 0, FaultKind::kControlDrop};
  event.loss_probability = loss_probability;
  event.duplicate_probability = duplicate_probability;
  return Add(event);
}

FaultPlan& FaultPlan::ControlRecover(Time at) {
  return Add(FaultEvent{at, 0, FaultKind::kControlRecover});
}

FaultPlan& FaultPlan::Add(const FaultEvent& event) {
  CRAS_CHECK(event.at >= 0) << "fault scheduled before the simulation epoch";
  CRAS_CHECK(event.disk >= 0) << "no such disk: " << event.disk;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::Merge(const FaultPlan& other) {
  for (const FaultEvent& event : other.events_) {
    events_.push_back(event);
  }
  return *this;
}

namespace {

// Comma-separated numeric args between the ':' and the '@' of a spec.
// Returns false on any malformed number or trailing garbage.
bool ParseArgs(const char* begin, const char* end, std::vector<double>* out) {
  while (begin != end) {
    double value = 0;
    auto [next, err] = std::from_chars(begin, end, value);
    if (err != std::errc()) {
      return false;
    }
    out->push_back(value);
    begin = next;
    if (begin == end) {
      break;
    }
    if (*begin != ',') {
      return false;
    }
    ++begin;
    if (begin == end) {
      return false;  // trailing comma
    }
  }
  return true;
}

}  // namespace

crbase::Result<FaultEvent> FaultPlan::ParseSpec(const std::string& spec) {
  const auto fail = [&spec](const std::string& why) {
    return crbase::InvalidArgumentError("bad fault spec \"" + spec + "\": " + why +
                                        " (expected <kind>[:<args>]@<t_ms>)");
  };
  const std::size_t at_pos = spec.rfind('@');
  if (at_pos == std::string::npos) {
    return fail("missing @<t_ms>");
  }
  const char* end = spec.data() + spec.size();
  std::int64_t ms = 0;
  auto [after_ms, ms_err] = std::from_chars(spec.data() + at_pos + 1, end, ms);
  if (ms_err != std::errc() || after_ms != end || ms < 0) {
    return fail("bad timestamp");
  }

  std::string kind_name = spec.substr(0, at_pos);
  std::vector<double> args;
  const std::size_t colon = kind_name.find(':');
  if (colon != std::string::npos) {
    const char* args_begin = spec.data() + colon + 1;
    if (!ParseArgs(args_begin, spec.data() + at_pos, &args)) {
      return fail("bad args");
    }
    kind_name.resize(colon);
  }

  // Legacy form "<disk>@<t_ms>": a bare member index is a fail-stop.
  if (colon == std::string::npos && !kind_name.empty() &&
      kind_name.find_first_not_of("0123456789") == std::string::npos) {
    args.assign(1, static_cast<double>(std::stoll(kind_name)));
    kind_name = "fail_stop";
  }

  const Time at = crbase::Milliseconds(ms);
  const auto arity = [&](std::size_t min, std::size_t max) {
    return args.size() >= min && args.size() <= max;
  };
  const auto disk_arg = [&](std::size_t i) { return static_cast<int>(args[i]); };
  FaultPlan plan;
  if (kind_name == "fail_stop" && arity(1, 1) && args[0] >= 0) {
    plan.FailStop(at, disk_arg(0));
  } else if (kind_name == "transient" && arity(3, 3) && args[0] >= 0) {
    plan.Transient(at, disk_arg(0), crbase::Milliseconds(static_cast<std::int64_t>(args[1])),
                   static_cast<int>(args[2]));
  } else if (kind_name == "slow_disk" && arity(2, 2) && args[0] >= 0) {
    plan.SlowDisk(at, disk_arg(0), args[1]);
  } else if (kind_name == "recover" && arity(1, 1) && args[0] >= 0) {
    plan.Recover(at, disk_arg(0));
  } else if (kind_name == "link_loss" && arity(1, 1) && args[0] >= 0.0 && args[0] <= 1.0) {
    plan.LinkLoss(at, args[0]);
  } else if (kind_name == "link_burst_loss" && arity(3, 3) && args[0] >= 0.0 &&
             args[0] <= 1.0 && args[1] > 0.0 && args[1] <= 1.0 && args[2] >= 0.0 &&
             args[2] <= 1.0) {
    plan.LinkBurstLoss(at, args[0], args[1], args[2]);
  } else if (kind_name == "link_jitter" && arity(1, 3)) {
    plan.LinkJitter(at, crbase::Milliseconds(static_cast<std::int64_t>(args[0])),
                    args.size() > 1 ? args[1] : 0.0,
                    args.size() > 2
                        ? crbase::Milliseconds(static_cast<std::int64_t>(args[2]))
                        : 0);
  } else if (kind_name == "link_derate" && arity(1, 1) && args[0] >= 1.0) {
    plan.LinkDerate(at, args[0]);
  } else if (kind_name == "link_recover" && arity(0, 0)) {
    plan.LinkRecover(at);
  } else if (kind_name == "client_crash" && arity(1, 1) && args[0] >= 0) {
    plan.ClientCrash(at, disk_arg(0));
  } else if (kind_name == "control_drop" && arity(1, 2) && args[0] >= 0.0 &&
             args[0] <= 1.0 && (args.size() < 2 || (args[1] >= 0.0 && args[1] <= 1.0))) {
    plan.ControlDrop(at, args[0], args.size() > 1 ? args[1] : 0.0);
  } else if (kind_name == "control_recover" && arity(0, 0)) {
    plan.ControlRecover(at);
  } else {
    return fail("unknown kind or wrong arg count for \"" + kind_name + "\"");
  }
  return plan.events().front();
}

FaultInjector::FaultInjector(crsim::Engine& engine, crvol::Volume& volume, FaultPlan plan)
    : FaultInjector(engine, &volume, nullptr, std::move(plan)) {}

FaultInjector::FaultInjector(crsim::Engine& engine, crvol::Volume* volume, crnet::Link* link,
                             FaultPlan plan)
    : FaultInjector(engine, volume,
                    link != nullptr ? std::vector<crnet::Link*>{link}
                                    : std::vector<crnet::Link*>{},
                    std::move(plan)) {}

FaultInjector::FaultInjector(crsim::Engine& engine, crvol::Volume* volume,
                             std::vector<crnet::Link*> links, FaultPlan plan)
    : engine_(&engine), volume_(volume), links_(std::move(links)), plan_(std::move(plan)) {
  for (crnet::Link* link : links_) {
    CRAS_CHECK(link != nullptr);
  }
  for (const FaultEvent& event : plan_.events()) {
    if (IsControlFault(event.kind) || IsClientFault(event.kind)) {
      // Targets arrive after construction (SetControlLinks /
      // SetClientCrashHandler); validated at Arm().
      continue;
    }
    if (IsLinkFault(event.kind)) {
      CRAS_CHECK(!links_.empty()) << FaultKindName(event.kind) << " event without a link";
    } else {
      CRAS_CHECK(volume_ != nullptr) << FaultKindName(event.kind) << " event without a volume";
      CRAS_CHECK(event.disk < volume_->disks())
          << "fault targets disk " << event.disk << " of a " << volume_->disks()
          << "-disk volume";
    }
  }
}

void FaultInjector::SetControlLinks(std::vector<crnet::Link*> links) {
  for (crnet::Link* link : links) {
    CRAS_CHECK(link != nullptr);
  }
  control_links_ = std::move(links);
}

FaultInjector::~FaultInjector() {
  for (crsim::EventId id : pending_) {
    engine_->Cancel(id);
  }
}

void FaultInjector::Arm() {
  CRAS_CHECK(!armed_) << "a FaultInjector arms its plan once";
  armed_ = true;
  for (const FaultEvent& event : plan_.events()) {
    if (IsClientFault(event.kind)) {
      CRAS_CHECK(crash_handler_ != nullptr)
          << FaultKindName(event.kind) << " event without a crash handler";
    }
    if (IsControlFault(event.kind)) {
      CRAS_CHECK(!control_links_.empty() || !links_.empty())
          << FaultKindName(event.kind) << " event without a link";
    }
    // A merged plan may be armed after some of its timestamps have passed;
    // those events fire immediately rather than silently never.
    const Duration delay = event.at > engine_->Now() ? event.at - engine_->Now() : 0;
    pending_.push_back(engine_->ScheduleAfter(delay, [this, event] { Apply(event); }));
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  ++fired_;
  switch (event.kind) {
    case FaultKind::kFailStop:
      volume_->SetMemberState(event.disk, crvol::MemberState::kFailed);
      break;
    case FaultKind::kTransient:
      volume_->device(event.disk).InjectTransientFault(event.extra_latency,
                                                       event.request_count);
      break;
    case FaultKind::kSlowDisk:
      volume_->device(event.disk).SetThroughputDerating(event.throughput_derating);
      volume_->SetMemberState(event.disk, crvol::MemberState::kSlow);
      break;
    case FaultKind::kRecover:
      volume_->device(event.disk).SetThroughputDerating(1.0);
      volume_->SetMemberState(event.disk, crvol::MemberState::kHealthy);
      break;
    case FaultKind::kLinkLoss:
      for (crnet::Link* link : links_) {
        link->SetLoss(event.loss_probability);
      }
      break;
    case FaultKind::kLinkBurstLoss:
      for (crnet::Link* link : links_) {
        link->SetBurstLoss(event.ge_p_enter_bad, event.ge_p_exit_bad, event.ge_loss_bad);
      }
      break;
    case FaultKind::kLinkJitter:
      for (crnet::Link* link : links_) {
        link->SetJitter(event.jitter);
        link->SetReordering(event.reorder_probability, event.reorder_delay);
      }
      break;
    case FaultKind::kLinkDerate:
      for (crnet::Link* link : links_) {
        link->SetBandwidthDerating(event.throughput_derating);
      }
      break;
    case FaultKind::kLinkRecover:
      for (crnet::Link* link : links_) {
        link->ClearImpairments();
      }
      break;
    case FaultKind::kClientCrash:
      crash_handler_(event.disk);
      break;
    case FaultKind::kControlDrop:
      for (crnet::Link* link : ControlTargets()) {
        link->SetLoss(event.loss_probability);
        link->SetDuplication(event.duplicate_probability);
      }
      break;
    case FaultKind::kControlRecover:
      for (crnet::Link* link : ControlTargets()) {
        link->ClearImpairments();
      }
      break;
  }
  const bool is_link = IsLinkFault(event.kind) || IsControlFault(event.kind);
  const std::string target = IsControlFault(event.kind) ? "control"
                             : IsClientFault(event.kind)
                                 ? "client" + std::to_string(event.disk)
                             : is_link ? "link"
                                       : "disk" + std::to_string(event.disk);
  CRAS_LOG(kInfo) << "fault: " << FaultKindName(event.kind) << " " << target << " at "
                  << crbase::FormatDuration(event.at);
  if (hub_ != nullptr) {
    hub_->metrics()
        .GetCounter("fault.injected", {{"kind", FaultKindName(event.kind)}, {"target", target}})
        ->Add();
    hub_->flight().Record(crobs::FlightEventKind::kFaultInjected, is_link ? 0 : event.disk, 0,
                          0, FaultKindName(event.kind));
  }
}

}  // namespace crfault
