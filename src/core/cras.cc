#include "src/core/cras.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/ledger.h"

namespace cras {

namespace {

// The server's CPU charges on the paper's hardware (kCpuPerInterval is in
// cras.h).
constexpr crbase::Duration kCpuPerControlOp = crbase::Microseconds(300);
constexpr crbase::Duration kCpuPerRequest = crbase::Microseconds(60);
constexpr crbase::Duration kCpuPerCompletion = crbase::Microseconds(30);
constexpr crbase::Duration kCpuPerPublish = crbase::Microseconds(5);
// J: how long past its due time a chunk stays readable in a stream's buffer.
constexpr crbase::Duration kJitterAllowance = crbase::Milliseconds(100);
// A lease lapses after this many lease periods without a renewal.
constexpr double kLeaseGrace = 1.5;
// Fraction of a multicast feed's stream rate reserved for XOR repair
// traffic. The feed session is admitted at rate * (1 + kRepairOverhead), so
// the repair channel rides a reservation the budget ledger audits instead of
// stealing slack from other admitted streams.
constexpr double kRepairOverhead = 0.05;

// Scales a duration by the session's rate factor.
crbase::Duration ScaleDuration(crbase::Duration d, double factor) {
  return static_cast<crbase::Duration>(static_cast<double>(d) * factor);
}

}  // namespace

CrasServer::CrasServer(crrt::Kernel& kernel, crvol::Volume& volume, crufs::Ufs& fs,
                       const Options& options)
    : kernel_(&kernel),
      volume_(&volume),
      fs_(&fs),
      options_(options),
      admission_(kernel,
                 crvol::VolumeAdmissionModel(options.disk_params, volume.disks(), options.interval,
                                             options.max_read_bytes, volume.stripe_unit_bytes()),
                 options.memory_budget_bytes),
      control_port_(kernel.engine()),
      io_done_port_(kernel.engine()),
      deadline_port_(kernel.engine()),
      signal_port_(kernel.engine()),
      fault_port_(kernel.engine()) {
  // The server wires its code and static state (~250 KB in the paper);
  // buffers are wired as sessions open.
  kernel_->WireMemory("cras-server", 250 * crbase::kKiB);
  admission_.model().set_parity(volume_->parity());
  member_listener_ = volume_->AddMemberStateListener([this](int disk, crvol::MemberState state) {
    fault_port_.Send(MemberChange{disk, state});
  });
  if (options_.cache.enabled) {
    cache_ = std::make_unique<crcache::StreamCache>(options_.cache);
    // The cache's pools are wired server memory like everything else.
    kernel_->WireMemory("cras-cache",
                        options_.cache.interval_pool_bytes + options_.cache.prefix_pool_bytes);
  }
  if (options_.mcast.enabled) {
    group_mgr_ = std::make_unique<crmcast::GroupManager>();
  }
  AttachObs(options_.obs);
}

void CrasServer::AttachObs(crobs::Hub* hub) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  // Instrument the layers below: member disks/drivers, the admission model,
  // and the stream cache record through the same hub.
  volume_->AttachObs(hub, "disk");
  admission_.AttachObs(hub);
  if (cache_ != nullptr) {
    cache_->AttachObs(hub);
  }
  if (group_mgr_ != nullptr) {
    group_mgr_->AttachObs(hub);
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  if (hub->frames().enabled()) {
    obs->frames = &hub->frames();
  }
  crobs::Tracer& trace = hub->trace();
  obs->track = trace.InternTrack("cras");
  obs->n_interval = trace.InternName("interval");
  obs->cat_batch = trace.InternName("batch");
  obs->n_prefetch = trace.InternName("prefetch");
  obs->n_slack = trace.InternName("deadline_slack_ms");
  crobs::Registry& metrics = hub->metrics();
  bound_.Counter(metrics, "cras.sessions_opened", {}, stats_.sessions_opened);
  bound_.Counter(metrics, "cras.sessions_rejected", {}, stats_.sessions_rejected);
  bound_.Counter(metrics, "cras.deadline_misses", {}, stats_.deadline_misses);
  bound_.Counter(metrics, "cras.bytes_read", {}, stats_.bytes_read);
  bound_.Counter(metrics, "cras.bytes_written", {}, stats_.bytes_written);
  bound_.Counter(metrics, "cras.read_requests", {}, stats_.read_requests);
  bound_.Counter(metrics, "cras.write_requests", {}, stats_.write_requests);
  bound_.Counter(metrics, "cras.streams_shed", {}, stats_.streams_shed);
  bound_.Counter(metrics, "cras.sessions_reaped", {}, stats_.sessions_reaped);
  bound_.Counter(metrics, "cras.sessions_resumed", {}, stats_.sessions_resumed);
  bound_.Counter(metrics, "cras.bytes_from_cache", {}, stats_.bytes_from_cache);
  obs->streams_kept = metrics.GetGauge("cras.streams_kept");
  obs->lease_age_ms = metrics.GetHistogram("cras.lease_age_ms", {}, crobs::LatencyBucketsMs());
  obs->deadline_slack_ms =
      metrics.GetHistogram("cras.deadline_slack_ms", {}, crobs::LatencyBucketsMs());
  obs->degraded_slack_ms =
      metrics.GetHistogram("cras.degraded_slack_ms", {}, crobs::LatencyBucketsMs());
  obs->ledger = std::make_unique<crobs::BudgetLedger>(&metrics);
  hub->SetLedger(obs->ledger.get());
  obs_ = std::move(obs);
}

CrasServer::~CrasServer() {
  // The volume may outlive this server; its listener must not. Other
  // servers' listeners on the same volume stay subscribed.
  volume_->RemoveMemberStateListener(member_listener_);
  // Likewise the hub: detach the dying ledger before dumps can touch it.
  if (obs_ != nullptr && obs_->hub->ledger() == obs_->ledger.get()) {
    obs_->hub->SetLedger(nullptr);
  }
  // Control messages still queued hold their senders' parked chains;
  // draining them lets each message's ParkedHandle reclaim its client. The
  // thread Tasks (declared after the ports) have already been destroyed.
  ControlMsg msg;
  while (control_port_.TryReceive(&msg)) {
  }
}

void CrasServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  threads_.push_back(kernel_->Spawn("cras-request-manager", crrt::kPriorityServer,
                                    [this](crrt::ThreadContext& ctx) {
                                      return RequestManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-request-scheduler", crrt::kPriorityServer + 2,
                                    [this](crrt::ThreadContext& ctx) {
                                      return RequestSchedulerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-io-done-manager", crrt::kPriorityServer + 3,
                                    [this](crrt::ThreadContext& ctx) {
                                      return IoDoneManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-deadline-manager", crrt::kPriorityServer + 4,
                                    [this](crrt::ThreadContext& ctx) {
                                      return DeadlineManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-signal-handler", crrt::kPriorityServer + 1,
                                    [this](crrt::ThreadContext& ctx) {
                                      return SignalHandlerThread(ctx);
                                    }));
  // Above every sibling: when a member dies, re-admission must beat the
  // scheduler to the next interval boundary so no infeasible I/O is issued.
  threads_.push_back(kernel_->Spawn("cras-degradation-controller", crrt::kPriorityServer + 5,
                                    [this](crrt::ThreadContext& ctx) {
                                      return DegradationControllerThread(ctx);
                                    }));
  if (options_.lease_period > 0) {
    threads_.push_back(kernel_->Spawn("cras-lease-reaper", crrt::kPriorityServer,
                                      [this](crrt::ThreadContext& ctx) {
                                        return LeaseReaperThread(ctx);
                                      }));
  }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

crsim::Task CrasServer::RequestManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    ControlMsg msg = co_await control_port_.Receive();
    if (msg.kind == ControlMsg::kShutdown) {
      break;
    }
    co_await ctx.Compute(kCpuPerControlOp);
    crbase::Result<SessionId> result = kInvalidSession;
    // A status-only request answers with its session id on success.
    const auto reply = [&msg](const crbase::Status& st) {
      return st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
    };
    switch (msg.kind) {
      case ControlMsg::kOpen:
        result = HandleOpen(std::move(msg.params));
        break;
      case ControlMsg::kClose:
        result = reply(EndSession(msg.id));
        if (cache_fallback_pending_) {
          // The close orphaned a cached follower: settle it now — re-admit
          // on the bandwidth the close just freed (plus the fallback
          // reserve), or shed.
          ShedUntilAdmissible();
        }
        break;
      case ControlMsg::kStart:
        result = reply(HandleStart(msg.id, msg.initial_delay));
        break;
      case ControlMsg::kStop:
        result = reply(HandleStop(msg.id));
        break;
      case ControlMsg::kSeek:
        result = reply(HandleSeek(msg.id, msg.seek_to));
        break;
      case ControlMsg::kSetRate:
        result = reply(HandleSetRate(msg.id, msg.params.rate_factor));
        break;
      case ControlMsg::kReconnect:
        result = reply(HandleReconnect(msg.id));
        break;
      case ControlMsg::kShutdown:
        break;
    }
    if (msg.done) {
      msg.Complete(std::move(result));
    }
  }
}

crsim::Task CrasServer::RequestSchedulerThread(crrt::ThreadContext& ctx) {
  crrt::PeriodicTimer timer(kernel_->engine(), options_.interval, &deadline_port_);
  while (!shutdown_) {
    const crrt::PeriodTick tick = co_await timer.NextPeriod();
    if (shutdown_) {
      break;
    }
    if (obs_ != nullptr) {
      obs_->hub->trace().Begin(obs_->track, obs_->n_interval);
    }
    co_await ctx.Compute(kCpuPerInterval);

    // Phase 1: publish everything retrieved during the previous interval
    // into the time-driven shared buffers.
    const std::int64_t published = PublishCompletedBatches();
    if (published > 0) {
      co_await ctx.Compute(kCpuPerPublish * published);
    }

    // Phase 2: issue all reads (and staged writes) the next interval needs.
    const std::int64_t slot = tick.index - 1;
    if (obs_ != nullptr) {
      crobs::BudgetLedger& ledger = *obs_->ledger;
      // Slot-2's I/O deadline was the previous boundary: its row is audited
      // as soon as the last of its issued requests has completed.
      if (slot >= 2) {
        ledger.CloseInterval(slot - 2);
      }
      ledger.BeginInterval(slot, kernel_->Now());
      // Each member disk's estimate; on a one-disk volume exactly the
      // paper's single-disk figure. Cache-served streams are charged the
      // fallback reserve instead of per-stream disk time.
      const AdmissionController::Estimate estimate = admission_.Evaluate();
      for (int d = 0; d < static_cast<int>(estimate.per_disk.size()); ++d) {
        const crvol::VolumeAdmissionModel::DiskEstimate& disk =
            estimate.per_disk[static_cast<std::size_t>(d)];
        if (disk.requests <= 0) {
          continue;
        }
        crobs::BudgetTerms predicted;
        predicted.command_ms = crobs::ToMillis(disk.terms.command);
        predicted.seek_ms = crobs::ToMillis(disk.terms.seek);
        predicted.rotation_ms = crobs::ToMillis(disk.terms.rotation);
        predicted.transfer_ms = crobs::ToMillis(disk.transfer);
        predicted.other_ms = crobs::ToMillis(disk.terms.other);
        ledger.SetPrediction(slot, d, predicted, disk.requests);
      }
    }

    const crbase::Time deadline = timer.BoundaryOf(tick.index + 1);
    const std::int64_t requests = IssueIntervalIo(slot, deadline);
    if (requests > 0) {
      co_await ctx.Compute(kCpuPerRequest * requests);
    }
    if (obs_ != nullptr) {
      obs_->hub->trace().End(obs_->track, obs_->n_interval);
    }
  }
}

crsim::Task CrasServer::IoDoneManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    IoDoneMsg msg = co_await io_done_port_.Receive();
    if (msg.batch_id == 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(kCpuPerCompletion);
    auto it = inflight_.find(msg.batch_id);
    if (it == inflight_.end()) {
      continue;  // batch of a session closed mid-flight
    }
    Batch& batch = it->second;
    CRAS_CHECK(batch.outstanding > 0);
    --batch.outstanding;
    // The disk does not announce when it starts servicing, but the
    // completion carries the full phase breakdown, so service start is the
    // completion instant minus its terms. The earliest one over the batch
    // splits the frame trace's disk-queue / disk-service attribution.
    const crbase::Time service_start = kernel_->Now() - msg.completion.service_time();
    if (batch.first_service_start < 0 || service_start < batch.first_service_start) {
      batch.first_service_start = service_start;
    }
    if (obs_ != nullptr) {
      // Fold the request's measured phase breakdown into its interval's
      // audit row. The measured "other" is the service time no phase
      // accounts for: a transient fault's stall (the array carries no
      // non-real-time traffic, so B_other/D is otherwise pure slack).
      const crdisk::DiskCompletion& c = msg.completion;
      crobs::BudgetTerms actual;
      actual.command_ms = crobs::ToMillis(c.command_time);
      actual.seek_ms = crobs::ToMillis(c.seek_time);
      actual.rotation_ms = crobs::ToMillis(c.rotation_time);
      actual.transfer_ms = crobs::ToMillis(c.transfer_time);
      actual.other_ms = crobs::ToMillis(c.service_time() - c.command_time - c.seek_time -
                                        c.rotation_time - c.transfer_time);
      obs_->ledger->AddActual(batch.interval_slot, msg.disk, actual);
    }
    if (batch.kind == SessionKind::kRead) {
      stats_.bytes_read += msg.completion.bytes();
    } else {
      stats_.bytes_written += msg.completion.bytes();
    }
    if (batch.outstanding == 0) {
      if (obs_ != nullptr) {
        // Slack to the interval boundary: positive = landed early, negative
        // = this batch is about to signal a deadline miss.
        const double slack_ms = crobs::ToMillis(batch.deadline - kernel_->Now());
        obs_->deadline_slack_ms->Record(slack_ms);
        if (volume_->degraded()) {
          obs_->degraded_slack_ms->Record(slack_ms);
        }
        crobs::Tracer& trace = obs_->hub->trace();
        if (trace.enabled()) {
          trace.AsyncEnd(obs_->track, obs_->cat_batch, obs_->n_prefetch, batch.id);
          trace.CounterSample(obs_->track, obs_->n_slack, slack_ms);
        }
      }
      if (batch.kind == SessionKind::kRead) {
        if (Session* session = FindSession(batch.session);
            session != nullptr && session->ftrace != nullptr) {
          const crbase::Time start = batch.first_service_start >= 0
                                         ? batch.first_service_start
                                         : kernel_->Now();
          for (std::int64_t chunk = batch.first_chunk; chunk < batch.last_chunk;
               ++chunk) {
            session->ftrace->StampAt(chunk, crobs::FrameStage::kDiskStart, start);
            session->ftrace->Stamp(chunk, crobs::FrameStage::kDiskDone);
          }
        }
      }
      if (kernel_->Now() > batch.deadline) {
        if (obs_ != nullptr) {
          obs_->hub->flight().Record(crobs::FlightEventKind::kDeadlineMiss, batch.session,
                                     batch.interval_slot,
                                     crobs::ToMillis(kernel_->Now() - batch.deadline));
        }
        // The interval's I/O did not land by its boundary: this is the
        // deadline the deadline-manager thread watches over.
        deadline_port_.Send(crrt::DeadlineMiss{batch.interval_slot, batch.deadline,
                                               kernel_->Now() - batch.deadline});
      }
      completed_batches_.push_back(batch.id);
    }
  }
}

crsim::Task CrasServer::DeadlineManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    crrt::DeadlineMiss miss = co_await deadline_port_.Receive();
    if (miss.period_index < 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(kCpuPerCompletion);
    // The paper's recovery action: notify a warning and continue.
    ++stats_.deadline_misses;
    CRAS_LOG(kWarning) << "CRAS deadline miss: interval " << miss.period_index << " overran by "
                       << crbase::FormatDuration(miss.overrun);
  }
}

crsim::Task CrasServer::SignalHandlerThread(crrt::ThreadContext&) {
  (void)co_await signal_port_.Receive();
  shutdown_ = true;
  // Wake every blocked sibling with its sentinel.
  control_port_.Send(ControlMsg{ControlMsg::kShutdown, kInvalidSession, OpenParams{}, 0, 0,
                                nullptr, {}});
  io_done_port_.Send(IoDoneMsg{0, -1, {}});
  deadline_port_.Send(crrt::DeadlineMiss{-1, 0, 0});
  fault_port_.Send(MemberChange{-1, crvol::MemberState::kHealthy});
}

crsim::Task CrasServer::DegradationControllerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    MemberChange change = co_await fault_port_.Receive();
    if (change.disk < 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(kCpuPerControlOp);
    ApplyMemberChange(change);
  }
}

crsim::Task CrasServer::LeaseReaperThread(crrt::ThreadContext& ctx) {
  // A quarter-period tick bounds reap latency at grace + 1/4 periods after
  // the last renewal (1.75 periods at the default grace of 1.5) — inside
  // the "within two lease periods" contract with room to spare.
  const crbase::Duration tick = std::max<crbase::Duration>(options_.lease_period / 4, 1);
  while (!shutdown_) {
    co_await ctx.Sleep(tick);
    if (shutdown_) {
      break;
    }
    co_await ctx.Compute(kCpuPerControlOp);
    ReapExpired();
  }
}

void CrasServer::SignalShutdown() { signal_port_.Send(1); }

// ---------------------------------------------------------------------------
// Request-manager operations
// ---------------------------------------------------------------------------

crbase::Result<SessionId> CrasServer::HandleOpen(OpenParams params, bool internal_feed) {
  const auto reject = [this](crbase::Status st) {
    ++stats_.sessions_rejected;
    return st;
  };
  if (params.index.empty()) {
    return reject(crbase::InvalidArgumentError("empty chunk index"));
  }
  if (params.rate_factor <= 0) {
    return reject(crbase::InvalidArgumentError("rate factor must be positive"));
  }
  const crufs::Inode& inode = fs_->inode(params.inode);
  if (inode.size_bytes < params.index.total_bytes()) {
    return reject(crbase::InvalidArgumentError("chunk index extends past the file"));
  }

  StreamDemand demand;
  demand.rate_bytes_per_sec =
      (params.declared_rate > 0 ? params.declared_rate
                                : params.index.WorstRate(options_.interval)) *
      params.rate_factor;
  demand.chunk_bytes = params.index.max_chunk_bytes();

  // Delivery-group placement: a grouped read joins (or founds) the title's
  // group before its own admission, so it can be charged as a memory-only
  // member. Founding a group opens the server-owned feed session first —
  // the group's one disk stream, admitted at rate * (1 + kRepairOverhead)
  // so the XOR repair channel rides an audited reservation.
  crmcast::JoinPlan group_plan;
  bool founded_group = false;
  if (group_mgr_ != nullptr && !internal_feed && params.grouped &&
      params.kind == SessionKind::kRead && params.rate_factor == 1.0) {
    if (cache_ != nullptr) {
      cache_->NoteOpen(params.inode, params.index, kernel_->Now());
    }
    const std::int64_t prefix_end =
        cache_ != nullptr ? cache_->prefix_end_chunk(params.inode) : 0;
    group_plan = group_mgr_->PlanJoin(params.inode, prefix_end);
    if (!group_plan.joined) {
      OpenParams feed_params;
      feed_params.inode = params.inode;
      feed_params.index = params.index;
      feed_params.declared_rate =
          demand.rate_bytes_per_sec * (1.0 + kRepairOverhead);
      feed_params.kind = SessionKind::kRead;
      crbase::Result<SessionId> feed =
          HandleOpen(std::move(feed_params), /*internal_feed=*/true);
      if (feed.ok()) {
        group_plan.joined = true;
        group_plan.feed = *feed;
        group_plan.group = group_mgr_->CreateGroup(params.inode, *feed);
        group_plan.merge_chunk = 0;
        founded_group = true;
      }
      // On feed rejection the open proceeds as a plain unicast session.
    }
  }
  const bool grouped = group_plan.joined;

  // Plan cache service first: a stream trailing a predecessor inside a
  // pinned prefix is admitted at memory cost (never dearer than disk cost,
  // so no second admission attempt is needed on rejection). Group members
  // skip interval pairing — the multicast feed, not a predecessor's
  // deposits, covers them past the merge point.
  crcache::OpenDecision cache_plan;
  if (cache_ != nullptr && params.kind == SessionKind::kRead && !grouped) {
    cache_->NoteOpen(params.inode, params.index, kernel_->Now());
    cache_plan = cache_->PlanOpen(params.inode, 0);
  }

  // The admission test (§2.3), run per member disk: every disk's interval
  // deadline and the memory budget must hold.
  const bool memory_only = grouped || cache_plan.serve == crcache::ServeClass::kCached;
  if (!admission_.Try(next_session_id_, demand, memory_only).admit) {
    if (founded_group) {
      // The member never registered: closing the feed just opened for it
      // dissolves the group it founded.
      (void)EndSession(group_plan.feed);
    }
    return reject(crbase::ResourceExhaustedError("admission test failed"));
  }

  Session session;
  session.id = next_session_id_++;
  session.kind = params.kind;
  session.inode = params.inode;
  session.index = std::move(params.index);
  const SessionId id =
      AddSession(std::move(session), params.rate_factor, demand, memory_only, cache_plan).id;
  ++stats_.sessions_opened;
  if (grouped) {
    group_mgr_->AddMember(group_plan.group, id, group_plan.merge_chunk);
  }
  return id;
}

CrasServer::Session& CrasServer::AddSession(Session session, double rate,
                                            const StreamDemand& demand, bool memory_only,
                                            const crcache::OpenDecision& cache_plan) {
  const std::int64_t buffer_bytes = admission_.Commit(session.id, demand, memory_only);
  session.buffer = std::make_unique<TimeDrivenBuffer>(buffer_bytes, kJitterAllowance);
  session.clock = std::make_unique<LogicalClock>(kernel_->engine());
  session.clock->SetRate(rate);
  session.lease_renewed_at = kernel_->Now();
  if (obs_ != nullptr) {
    const std::string name = "s" + std::to_string(session.id);
    session.buffer->AttachObs(obs_->hub, name);
    if (obs_->frames != nullptr && session.kind == SessionKind::kRead) {
      session.ftrace = obs_->frames->Register(session.id, name);
      // The buffer resolves frames it has to discard unconsumed, so a frame
      // that aged out of the ring still gets a missed decomposition.
      session.buffer->SetFrameTrace(session.ftrace);
    }
  }
  const SessionId id = session.id;
  Session& added = sessions_.emplace(id, std::move(session)).first->second;
  if (cache_ != nullptr && added.kind == SessionKind::kRead) {
    // Every read stream registers — a disk-served stream is the chain head
    // future followers attach to.
    cache_->Register(id, added.inode, added.next_chunk, cache_plan);
  }
  return added;
}

crbase::Status CrasServer::EndSession(SessionId id, SessionEnd how) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return crbase::NotFoundError("no such session");
  }
  Session& session = it->second;
  ResumeState resume;
  crbase::Duration lease_age = 0;
  if (how == SessionEnd::kShed) {
    ended_[id].shed = true;
    ++stats_.streams_shed;
    CRAS_LOG(kWarning) << "CRAS shedding session " << id << " (degraded array)";
    if (obs_ != nullptr) {
      obs_->hub->flight().Record(crobs::FlightEventKind::kStreamShed, id);
    }
  } else if (how == SessionEnd::kReaped) {
    // Read before the close releases them: the demand and the clock.
    resume = ResumeState{id, session.kind, session.inode, std::move(session.index),
                         admission_.demand(id), session.clock->rate(),
                         session.clock->running(), session.clock->Now()};
    lease_age = kernel_->Now() - session.lease_renewed_at;
    CRAS_LOG(kWarning) << "CRAS reaping session " << id << " (lease lapsed "
                       << crbase::FormatDuration(lease_age) << " ago)";
  }
  SessionId feed_to_close = kInvalidSession;
  if (IsFeed(id)) {
    // A dying feed dissolves its group: every member falls back to unicast
    // disk service at its current position (never a silent miss) and is
    // settled — re-admitted on the freed feed bandwidth or shed — by the
    // next owner of the control flow.
    for (const crmcast::SessionId member : group_mgr_->DissolveByFeed(id)) {
      if (Session* m = FindSession(member); m != nullptr) {
        ResumeUnicast(*m);
        cache_fallback_pending_ = true;
      }
    }
  } else if (group_mgr_ != nullptr) {
    feed_to_close = group_mgr_->RemoveMember(
        id, how == SessionEnd::kShed ? "shed" : how == SessionEnd::kReaped ? "reap" : "close");
  }
  admission_.Release(id);
  if (cache_ != nullptr) {
    // Orphaned followers fall back to disk service. Settling them (re-admit
    // or shed) is the caller's job — EndSession runs inside shed loops and
    // must not recurse.
    for (const crcache::StreamId orphan : cache_->Unregister(id)) {
      cache_fallback_pending_ |= admission_.ChargeDisk(orphan);
    }
  }
  // In-flight batches for this session are dropped when they complete.
  for (auto& [batch_id, batch] : inflight_) {
    if (batch.session == id) {
      batch.session = kInvalidSession;
    }
  }
  const std::function<void()> listener = std::move(session.data_listener);
  sessions_.erase(it);
  if (listener) {
    listener();
  }
  if (feed_to_close != kInvalidSession) {
    // The last member left: the group dissolved with it, so the
    // server-owned feed has nobody to serve. One level of recursion only —
    // a feed close never returns another feed.
    (void)EndSession(feed_to_close);
  }
  if (how == SessionEnd::kReaped) {
    ended_[id].reaped = true;
    resumable_.push_back(std::move(resume));
    if (resumable_.size() > kResumeHistory) {
      resumable_.pop_front();
    }
    ++stats_.sessions_reaped;
    if (obs_ != nullptr) {
      obs_->hub->flight().Record(crobs::FlightEventKind::kLeaseReap, id, 0,
                                 crobs::ToMillis(lease_age));
    }
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleStart(SessionId id, crbase::Duration initial_delay) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  if (initial_delay < 0) {
    return crbase::InvalidArgumentError("negative initial delay");
  }
  session->clock->Start(initial_delay);
  if (InGroup(id)) {
    // The first member to start also starts the group's feed: member
    // clocks trail the feed clock by their arrival offset, which is
    // exactly the lag the prefix bridge covers.
    const crmcast::SessionId feed = group_mgr_->FeedOf(group_mgr_->GroupOf(id));
    if (Session* f = FindSession(feed); f != nullptr && !f->clock->running()) {
      f->clock->Start(initial_delay);
    }
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleStop(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  session->clock->Stop();
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleSeek(SessionId id, crbase::Time logical) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  if (session->kind != SessionKind::kRead) {
    return crbase::FailedPreconditionError("seek on a write session");
  }
  std::int64_t chunk = session->index.FindByTime(logical);
  if (chunk < 0) {
    chunk = 0;
  }
  session->clock->SeekTo(logical);
  session->buffer->Clear();
  session->next_chunk = chunk;
  session->prefetch_pos = session->index.at(static_cast<std::size_t>(chunk)).timestamp;
  bool resettle = false;
  SessionId feed_to_close = kInvalidSession;
  if (InGroup(id)) {
    // A seek breaks position compatibility with the group: the member
    // leaves and is disk-charged at its new play point.
    feed_to_close = group_mgr_->RemoveMember(id, "seek");
    admission_.ChargeDisk(id);
    resettle = true;
  }
  if (cache_ != nullptr) {
    // A seek invalidates any pair this stream is part of (its play point
    // jumped); simplest sound policy: drop to disk service at the new
    // position. The seeker stays admitted — its disk share was either
    // already charged or covered by the fallback reserve — but orphans may
    // overload the array, so re-settle.
    resettle |= DetachFromCache(id);
  }
  if (feed_to_close != kInvalidSession) {
    (void)EndSession(feed_to_close);
  }
  if (resettle) {
    ShedUntilAdmissible();
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleSetRate(SessionId id, double rate_factor) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  if (rate_factor <= 0) {
    return crbase::InvalidArgumentError("rate factor must be positive");
  }
  if (session->kind != SessionKind::kRead) {
    return crbase::FailedPreconditionError("rate change on a write session");
  }
  if (InGroup(id)) {
    // A non-unit rate cannot ride the group's shared feed; the member
    // leaves before re-admission at the new rate.
    const SessionId feed_to_close = group_mgr_->RemoveMember(id, "set_rate");
    admission_.ChargeDisk(id);
    if (feed_to_close != kInvalidSession) {
      (void)EndSession(feed_to_close);
    }
    ShedUntilAdmissible();
    session = FindSession(id);
    if (session == nullptr) {
      return crbase::ResourceExhaustedError("session shed settling its group demotion");
    }
  }
  // A rate change breaks pair pacing (predecessor and follower no longer
  // advance in lockstep); drop this stream — and any follower — to disk
  // service before re-admitting at the new rate.
  if (cache_ != nullptr && DetachFromCache(id)) {
    ShedUntilAdmissible();
    session = FindSession(id);
    if (session == nullptr) {
      return crbase::ResourceExhaustedError("session shed settling its cache fallback");
    }
  }
  // Re-run admission with this session's demand scaled to the new factor;
  // the stream is disk-charged by now (any cache or group service dropped).
  StreamDemand new_demand = admission_.demand(id);
  new_demand.rate_bytes_per_sec =
      new_demand.rate_bytes_per_sec / session->clock->rate() * rate_factor;
  if (!admission_.Try(id, new_demand, /*memory_only=*/false).admit) {
    return crbase::ResourceExhaustedError("admission test failed at the new rate");
  }
  // The buffer grows in place (resident chunks and statistics stay); a
  // slowed stream keeps its larger buffer, still wired and charged.
  session->buffer->Grow(admission_.Commit(id, new_demand, /*memory_only=*/false));
  session->clock->SetRate(rate_factor);
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleReconnect(SessionId id) {
  // Still live: the client outran the reaper — renew and carry on.
  if (Session* session = FindSession(id); session != nullptr) {
    session->lease_renewed_at = kernel_->Now();
    return crbase::OkStatus();
  }
  const auto it = std::find_if(resumable_.begin(), resumable_.end(),
                               [id](const ResumeState& r) { return r.id == id; });
  if (it == resumable_.end()) {
    return crbase::NotFoundError("no such session (never opened, or resume state evicted)");
  }
  Session session;
  session.id = id;
  session.kind = it->kind;
  session.inode = it->inode;
  // Resume position, needed up front: the cache plans service at the chunk
  // the stream will actually resume from.
  if (it->kind == SessionKind::kRead) {
    session.next_chunk = std::max<std::int64_t>(it->index.FindByTime(it->logical_pos), 0);
    session.prefetch_pos = it->index.at(static_cast<std::size_t>(session.next_chunk)).timestamp;
  }
  crcache::OpenDecision cache_plan;
  if (cache_ != nullptr && it->kind == SessionKind::kRead) {
    cache_->NoteOpen(it->inode, it->index, kernel_->Now());
    cache_plan = cache_->PlanOpen(it->inode, session.next_chunk);
  }

  // Re-run the admission test: the array may have degraded (or filled up)
  // since the session was reaped, and a resumed stream gets no special
  // claim over the ones admitted meanwhile.
  const bool memory_only = cache_plan.serve == crcache::ServeClass::kCached;
  if (!admission_.Try(id, it->demand, memory_only).admit) {
    return crbase::ResourceExhaustedError("admission test failed on resume");
  }

  session.index = std::move(it->index);
  Session& resumed = AddSession(std::move(session), it->rate, it->demand, memory_only, cache_plan);
  resumed.clock->SeekTo(it->logical_pos);
  if (it->running) {
    // Resume playing from where the reaper froze it, after the same
    // pipeline-fill latency a fresh start needs.
    resumed.clock->Start(SuggestedInitialDelay());
  }
  ++stats_.sessions_resumed;
  resumable_.erase(it);
  CRAS_LOG(kInfo) << "CRAS session " << id << " reconnected and resumed";
  return crbase::OkStatus();
}

// ---------------------------------------------------------------------------
// Multicast demotion
// ---------------------------------------------------------------------------

void CrasServer::ResumeUnicast(Session& session) {
  admission_.ChargeDisk(session.id);
  const std::int64_t count = static_cast<std::int64_t>(session.index.count());
  std::int64_t chunk = session.index.FindByTime(session.clock->Now());
  if (chunk < 0) {
    chunk = 0;
  }
  // Never re-fetch behind either the clock or the bridge patch already
  // scheduled; the multicast-delivered middle is the receiver's to keep.
  session.next_chunk = std::min(std::max(session.next_chunk, chunk), count);
  if (session.next_chunk < count) {
    session.prefetch_pos =
        session.index.at(static_cast<std::size_t>(session.next_chunk)).timestamp;
  } else {
    const crmedia::Chunk& tail = session.index.at(static_cast<std::size_t>(count - 1));
    session.prefetch_pos = tail.timestamp + tail.duration;
  }
}

bool CrasServer::DemoteGroupMember(SessionId id, const std::string& reason) {
  Session* session = FindSession(id);
  if (session == nullptr || !InGroup(id)) {
    return false;
  }
  const SessionId feed_to_close = group_mgr_->RemoveMember(id, reason);
  ResumeUnicast(*session);
  if (feed_to_close != kInvalidSession) {
    // The demoted member was the group's last: nobody left to feed.
    (void)EndSession(feed_to_close);
  }
  // Re-settle: the member is disk-charged from here on (the fallback
  // reserve covered the flip); the freed feed bandwidth may re-admit it,
  // or the settle sheds the costliest streams.
  ShedUntilAdmissible();
  return HasSession(id);
}

void CrasServer::RenewLease(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return;  // heartbeat racing the reaper (or a stale client)
  }
  const crbase::Time now = kernel_->Now();
  if (obs_ != nullptr) {
    obs_->lease_age_ms->Record(crobs::ToMillis(now - session->lease_renewed_at));
  }
  session->lease_renewed_at = now;
  ++stats_.lease_renewals;
}

void CrasServer::ReapExpired() {
  const auto deadline = static_cast<crbase::Duration>(
      kLeaseGrace * static_cast<double>(options_.lease_period));
  std::vector<SessionId> expired;
  for (const auto& [id, session] : sessions_) {
    // A group feed is server-owned: it has no client lease to lapse.
    if (kernel_->Now() - session.lease_renewed_at > deadline && !IsFeed(id)) {
      expired.push_back(id);
    }
  }
  for (const SessionId id : expired) {
    CRAS_CHECK(EndSession(id, SessionEnd::kReaped).ok());
  }
  if (cache_fallback_pending_) {
    // A reaped predecessor orphaned a cached follower: re-admit it on the
    // freed bandwidth, or shed.
    ShedUntilAdmissible();
  }
}

// ---------------------------------------------------------------------------
// Degradation controller
// ---------------------------------------------------------------------------

void CrasServer::ApplyMemberChange(const MemberChange& change) {
  ++stats_.member_changes;
  CRAS_LOG(kWarning) << "CRAS member disk " << change.disk << " is now "
                     << crvol::MemberStateName(change.state);
  switch (change.state) {
    case crvol::MemberState::kFailed:
      admission_.model().SetMemberFailed(change.disk, true);
      break;
    case crvol::MemberState::kSlow: {
      // Re-derive the member's worst-case parameters from its actual
      // derating; only the media rate degrades, the mechanics don't.
      DiskParams derated = options_.disk_params;
      derated.transfer_rate /= volume_->device(change.disk).throughput_derating();
      admission_.model().SetMemberParams(change.disk, derated);
      break;
    }
    case crvol::MemberState::kHealthy:
      admission_.model().SetMemberFailed(change.disk, false);
      admission_.model().SetMemberParams(change.disk, options_.disk_params);
      break;
  }
  if (obs_ != nullptr) {
    obs_->hub->flight().Record(crobs::FlightEventKind::kMemberChange, change.disk, 0, 0,
                               crvol::MemberStateName(change.state));
  }
  ShedUntilAdmissible();
}

void CrasServer::ShedUntilAdmissible() {
  const std::int64_t shed_before = stats_.streams_shed;
  // Sheds one victim per round, re-evaluating between rounds: with the
  // cache on, closing a victim can change other streams' serving classes
  // (an orphaned follower falls back to disk), so a precomputed victim list
  // would test stale demand sets. Victim order within a round:
  //   1. disk-charged streams feeding no cached follower — closing one
  //      frees a full disk share and breaks nothing;
  //   2. disk-charged chain heads — the follower falls back, so the net
  //      relief is smaller and a fallback cascades;
  //   3. cache-served and group-member streams — nearly free to serve,
  //      shed late;
  //   4. delivery-group feeds — each carries a whole group (shedding one
  //      demotes every member to disk service), shed last.
  // Within a class: highest-rate first (the degraded array loses the fewest
  // streams), ties toward younger sessions. Cache off: every stream is
  // class 1's complement — plain highest-rate-first, the classic order.
  // The victim is the session with the least key: class, then rate
  // (highest first), then id (youngest first).
  const auto shed_key = [this](const Session& s) {
    const int cls = IsFeed(s.id)                                     ? 3
                    : admission_.memory_only(s.id)                   ? 2
                    : cache_ != nullptr && cache_->HasFollower(s.id) ? 1
                                                                     : 0;
    return std::make_tuple(cls, -admission_.demand(s.id).rate_bytes_per_sec, -s.id);
  };
  const auto sheds_first = [&](const auto& a, const auto& b) {
    return shed_key(a.second) < shed_key(b.second);
  };
  while (!sessions_.empty() && !admission_.Admissible()) {
    const SessionId id = std::min_element(sessions_.begin(), sessions_.end(), sheds_first)->first;
    CRAS_CHECK(EndSession(id, SessionEnd::kShed).ok());
  }
  cache_fallback_pending_ = false;
  if (obs_ != nullptr) {
    obs_->streams_kept->Set(static_cast<double>(sessions_.size()));
    // The admission settle is complete: whatever disturbance brought us
    // here (member change, cache fallback, group demote), the surviving set
    // passes the current model again. The auditor measures recovery latency
    // as fault -> this event.
    obs_->hub->flight().Record(crobs::FlightEventKind::kResettled,
                               static_cast<std::int64_t>(sessions_.size()),
                               stats_.streams_shed - shed_before);
  }
}

// ---------------------------------------------------------------------------
// Scheduler phases
// ---------------------------------------------------------------------------

std::int64_t CrasServer::PublishCompletedBatches() {
  std::int64_t published = 0;
  while (!completed_batches_.empty()) {
    const std::uint64_t batch_id = completed_batches_.front();
    completed_batches_.pop_front();
    auto it = inflight_.find(batch_id);
    if (it == inflight_.end()) {
      continue;
    }
    Batch batch = it->second;
    inflight_.erase(it);
    Session* session = FindSession(batch.session);
    if (session == nullptr) {
      continue;  // closed while the I/O was in flight
    }
    const crbase::Time now = kernel_->Now();
    if (batch.kind == SessionKind::kWrite) {
      session->stats.chunks_written += batch.last_chunk - batch.first_chunk;
      session->stats.bytes_written += batch.bytes;
      continue;
    }
    const crbase::Time logical_now = session->clock->Now();
    for (std::int64_t c = batch.first_chunk; c < batch.last_chunk; ++c) {
      const crmedia::Chunk& chunk = session->index.at(static_cast<std::size_t>(c));
      BufferedChunk buffered;
      buffered.chunk_index = c;
      buffered.timestamp = chunk.timestamp;
      buffered.duration = chunk.duration;
      buffered.size = chunk.size;
      buffered.filled_at = now;
      if (session->ftrace != nullptr) {
        session->ftrace->Stamp(c, crobs::FrameStage::kPublished);
      }
      session->buffer->Put(buffered, logical_now);
      ++session->stats.chunks_published;
      session->stats.bytes_published += chunk.size;
      ++published;
    }
    if (session->data_listener) {
      session->data_listener();
    }
  }
  return published;
}

std::int64_t CrasServer::IssueIntervalIo(std::int64_t interval_slot, crbase::Time deadline) {
  struct Planned {
    std::uint64_t batch_id;
    crvol::Volume::Segment segment;
    crdisk::DiskRequest request;
    std::int64_t cylinder;
  };
  std::vector<Planned> planned;
  std::vector<SessionId> feeds_to_close;

  auto plan_range = [&](Session& session, std::int64_t first, std::int64_t last,
                        SessionKind kind) {
    if (first >= last) {
      return;
    }
    const crmedia::Chunk& head = session.index.at(static_cast<std::size_t>(first));
    const crmedia::Chunk& tail = session.index.at(static_cast<std::size_t>(last - 1));
    const std::int64_t offset = head.offset;
    const std::int64_t length = tail.offset + tail.size - offset;
    auto extents = fs_->GetExtents(session.inode, offset, length, options_.max_read_bytes);
    CRAS_CHECK(extents.ok()) << extents.status().ToString();

    Batch batch;
    batch.id = next_batch_id_++;
    batch.session = session.id;
    batch.first_chunk = first;
    batch.last_chunk = last;
    batch.kind = kind;
    batch.interval_slot = interval_slot;
    batch.deadline = deadline;
    batch.planned_at = kernel_->Now();
    const crdisk::IoKind io_kind =
        kind == SessionKind::kRead ? crdisk::IoKind::kRead : crdisk::IoKind::kWrite;
    for (const crufs::Extent& extent : *extents) {
      batch.bytes += extent.bytes();
      // Fan the logical extent out to the member disks owning its stripe
      // units (a one-disk volume maps it to a single identical request). A
      // degraded parity volume substitutes reconstruction reads on the
      // survivors for the failed member's pieces; a write adds the row's
      // parity-update pieces.
      for (const crvol::Volume::Segment& segment :
           volume_->MapRange(extent.lba, extent.sectors, io_kind)) {
        crdisk::DiskRequest request;
        request.kind = io_kind;
        request.lba = segment.lba;
        request.sectors = segment.sectors;
        request.realtime = true;
        const std::uint64_t batch_id = batch.id;
        const int disk = segment.disk;
        request.on_complete = [this, batch_id, disk](const crdisk::DiskCompletion& completion) {
          io_done_port_.Send(IoDoneMsg{batch_id, disk, completion});
        };
        ++batch.outstanding;
        planned.push_back(
            Planned{batch.id, segment, std::move(request),
                    volume_->device(segment.disk).geometry().CylinderOf(segment.lba)});
      }
    }
    if (batch.outstanding == 0) {
      return;  // zero-length range
    }
    if (obs_ != nullptr) {
      obs_->hub->trace().AsyncBegin(obs_->track, obs_->cat_batch, obs_->n_prefetch, batch.id);
    }
    if (kind == SessionKind::kRead && session.ftrace != nullptr) {
      for (std::int64_t c = first; c < last; ++c) {
        session.ftrace->Stamp(c, crobs::FrameStage::kScheduled);
      }
    }
    inflight_.emplace(batch.id, batch);
  };

  for (auto& [id, session] : sessions_) {
    if (!session.clock->running()) {
      continue;
    }
    if (session.kind == SessionKind::kRead) {
      const crbase::Duration advance = ScaleDuration(options_.interval, session.clock->rate());
      // "CRAS schedules pre-fetches according to the logical rate": stay at
      // most two interval-windows ahead of the logical clock — exactly the
      // double-buffered depth B_i was sized for. A client that allowed a
      // longer initial delay (clock still deeply negative) simply causes
      // prefetching to idle until the pipeline is needed, instead of
      // overrunning its own buffer. After a rate increase the pipeline may
      // lag the accelerated clock; issue up to a few windows in one
      // interval to re-prime it (bounded burst so one session cannot
      // monopolize an interval).
      const std::int64_t count = static_cast<std::int64_t>(session.index.count());
      for (int window = 0; window < 4; ++window) {
        // A delivery-group member schedules only its bridge patch
        // [0, merge): everything past the merge point arrives through the
        // group's multicast feed, never through this session's own I/O.
        const bool member = InGroup(id);
        const std::int64_t limit =
            member ? std::min(count, group_mgr_->MergeChunkOf(id)) : count;
        if (member && session.next_chunk >= limit) {
          break;  // patch complete; the multicast feed carries the rest
        }
        if (session.prefetch_pos > session.clock->Now() + 2 * advance) {
          break;
        }
        const crbase::Time window_end = session.prefetch_pos + advance;
        std::int64_t first = session.next_chunk;
        std::int64_t last = first;
        while (last < limit &&
               session.index.at(static_cast<std::size_t>(last)).timestamp < window_end) {
          ++last;
        }
        if (cache_ != nullptr && first < last) {
          // The leading run servable from the cache (pinned prefix or the
          // predecessor's deposited blocks) becomes a zero-I/O batch,
          // published at the next boundary exactly like a disk batch; only
          // the remainder touches the disks.
          const crcache::ServeResult run = cache_->ServableRun(id, first, last);
          if (run.demoted) {
            admission_.ChargeDisk(id);
            cache_fallback_pending_ = true;
          }
          if (run.chunks > 0) {
            Batch batch;
            batch.id = next_batch_id_++;
            batch.session = id;
            batch.first_chunk = first;
            batch.last_chunk = first + run.chunks;
            batch.kind = SessionKind::kRead;
            batch.interval_slot = interval_slot;
            batch.deadline = deadline;
            batch.planned_at = kernel_->Now();
            for (std::int64_t c = first; c < first + run.chunks; ++c) {
              batch.bytes += session.index.at(static_cast<std::size_t>(c)).size;
              if (session.ftrace != nullptr) {
                session.ftrace->Stamp(c, crobs::FrameStage::kScheduled);
              }
            }
            stats_.bytes_from_cache += batch.bytes;
            inflight_.emplace(batch.id, batch);
            completed_batches_.push_back(batch.id);
            first += run.chunks;
          }
        }
        if (member && first < last) {
          // The pinned prefix no longer covers this member's bridge patch
          // (unpinned under pressure, or never reached this far): the
          // remainder is disk I/O a memory-only member must not issue
          // silently. Demote to unicast — this window's tail rides the
          // fallback reserve, and the settle below re-admits the stream
          // disk-charged or sheds it. Mirrors the cache's demote-to-disk.
          const SessionId feed_orphan = group_mgr_->RemoveMember(id, "patch_miss");
          if (feed_orphan != kInvalidSession) {
            feeds_to_close.push_back(feed_orphan);
          }
          admission_.ChargeDisk(id);
          cache_fallback_pending_ = true;
        }
        plan_range(session, first, last, SessionKind::kRead);
        if (cache_ != nullptr && last > session.next_chunk) {
          // Deposit at issue time: these blocks are what a follower's next
          // window reads from the interval pool.
          cache_->NoteScheduled(id, last);
        }
        session.next_chunk = last;
        session.prefetch_pos = window_end;
      }
    } else {
      // Write session: stage up to one interval's admitted bytes from the
      // produced-chunk queue, in maximal consecutive runs.
      std::int64_t budget = admission_.model().BytesPerInterval(admission_.demand(id));
      while (!session.write_queue.empty() && budget > 0) {
        const std::int64_t first = session.write_queue.front();
        std::int64_t last = first;
        std::int64_t run_bytes = 0;
        while (!session.write_queue.empty() && session.write_queue.front() == last &&
               run_bytes <= budget) {
          run_bytes += session.index.at(static_cast<std::size_t>(last)).size;
          session.write_queue.pop_front();
          ++last;
        }
        plan_range(session, first, last, SessionKind::kWrite);
        budget -= run_bytes;
      }
    }
  }

  for (const SessionId feed : feeds_to_close) {
    // A patch-miss demote emptied its group mid-planning; the feed closes
    // here, outside the session iteration (EndSession mutates the map).
    (void)EndSession(feed);
  }
  if (cache_fallback_pending_) {
    // A stream was demoted mid-planning (its window outran its feed). Its
    // own tail rides the fallback reserve, but the set may no longer be
    // admissible with it disk-charged: settle before submitting, and drop
    // the work planned for any session the settling shed (its batches were
    // orphaned by EndSession).
    ShedUntilAdmissible();
    std::erase_if(planned, [this](const Planned& p) {
      auto it = inflight_.find(p.batch_id);
      if (it == inflight_.end()) {
        return true;  // batch erased when an earlier row of it was dropped
      }
      if (it->second.session == kInvalidSession) {
        inflight_.erase(it);
        return true;
      }
      return false;
    });
  }

  // The paper: "making all the read requests to disks in cylinder order to
  // minimize the seek time" — here per member disk, since each disk's RT
  // queue sweeps its own surface independently.
  if (options_.sort_requests_by_cylinder) {
    std::sort(planned.begin(), planned.end(), [](const Planned& a, const Planned& b) {
      return a.segment.disk != b.segment.disk ? a.segment.disk < b.segment.disk
                                              : a.cylinder < b.cylinder;
    });
  }
  for (Planned& p : planned) {
    if (p.request.kind == crdisk::IoKind::kRead) {
      ++stats_.read_requests;
    } else {
      ++stats_.write_requests;
    }
    volume_->NotePiece(p.segment);
    if (obs_ != nullptr) {
      obs_->ledger->AddIssued(interval_slot, p.segment.disk);
    }
    volume_->driver(p.segment.disk).Submit(std::move(p.request));
  }
  return static_cast<std::int64_t>(planned.size());
}

// ---------------------------------------------------------------------------
// Data path and introspection
// ---------------------------------------------------------------------------

std::optional<BufferedChunk> CrasServer::Get(SessionId id, crbase::Time logical) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return std::nullopt;
  }
  // The time-driven sweep: data behind the logical clock ages out on every
  // buffer touch, with no server round trip.
  session->buffer->DiscardObsolete(session->clock->Now());
  return session->buffer->Get(logical);
}

crobs::SessionTrace* CrasServer::FrameTrace(SessionId id) const {
  const Session* session = FindSession(id);
  return session == nullptr ? nullptr : session->ftrace;
}

crbase::Time CrasServer::LogicalNow(SessionId id) const {
  const LogicalClock* clock = SessionClock(id);
  return clock == nullptr ? 0 : clock->Now();
}

const LogicalClock* CrasServer::SessionClock(SessionId id) const {
  const Session* session = FindSession(id);
  return session == nullptr ? nullptr : session->clock.get();
}

void CrasServer::SetDataListener(SessionId id, std::function<void()> listener) {
  if (Session* session = FindSession(id); session != nullptr) {
    session->data_listener = std::move(listener);
  }
}

crbase::Status CrasServer::PutChunk(SessionId id, std::int64_t chunk) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  if (session->kind != SessionKind::kWrite) {
    return crbase::FailedPreconditionError("PutChunk on a read session");
  }
  if (chunk < 0 || chunk >= static_cast<std::int64_t>(session->index.count())) {
    return crbase::OutOfRangeError("chunk index out of range");
  }
  session->write_queue.push_back(chunk);
  return crbase::OkStatus();
}

crbase::Result<SessionStats> CrasServer::GetSessionStats(SessionId id) const {
  const Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  return session->stats;
}

const TimeDrivenBufferStats* CrasServer::GetBufferStats(SessionId id) const {
  const Session* session = FindSession(id);
  if (session == nullptr) {
    return nullptr;
  }
  return &session->buffer->stats();
}

CrasServer::Session* CrasServer::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const CrasServer::Session* CrasServer::FindSession(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool CrasServer::DetachFromCache(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr || session->kind != SessionKind::kRead) {
    return false;
  }
  bool changed = admission_.ChargeDisk(id);
  for (const crcache::StreamId orphan : cache_->Unregister(id)) {
    changed |= admission_.ChargeDisk(orphan);
  }
  // Re-register as a disk-served chain member at the current scheduling
  // position, so future opens can still attach behind this stream.
  cache_->Register(id, session->inode, session->next_chunk, crcache::OpenDecision{});
  return changed;
}

}  // namespace cras
