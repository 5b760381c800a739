// Chaos campaign engine: the generalized fault-spec grammar, plan merging
// and late arming, the seeded schedule generator's constraints, the hardened
// control plane (idempotent request ids + capped-exponential retry over
// impaired links), and the cross-layer invariant auditor — including the
// deliberate double-fault run that proves the auditor bites.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/chaos/chaos.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/media/media_file.h"
#include "src/net/control.h"
#include "src/net/link.h"

namespace crchaos {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;
using crfault::FaultEvent;
using crfault::FaultKind;
using crfault::FaultPlan;

// ---------------------------------------------------------------------------
// ParseSpec: one grammar for every fault kind.

TEST(ParseSpec, CoversTheFullVocabulary) {
  auto fail_stop = FaultPlan::ParseSpec("fail_stop:1@2000");
  ASSERT_TRUE(fail_stop.ok());
  EXPECT_EQ(fail_stop->kind, FaultKind::kFailStop);
  EXPECT_EQ(fail_stop->disk, 1);
  EXPECT_EQ(fail_stop->at, Seconds(2));

  auto transient = FaultPlan::ParseSpec("transient:1,800,3@2500");
  ASSERT_TRUE(transient.ok());
  EXPECT_EQ(transient->kind, FaultKind::kTransient);
  EXPECT_EQ(transient->extra_latency, Milliseconds(800));
  EXPECT_EQ(transient->request_count, 3);

  auto slow = FaultPlan::ParseSpec("slow_disk:2,2.5@3000");
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->kind, FaultKind::kSlowDisk);
  EXPECT_EQ(slow->disk, 2);
  EXPECT_EQ(slow->throughput_derating, 2.5);

  auto recover = FaultPlan::ParseSpec("recover:2@8000");
  ASSERT_TRUE(recover.ok());
  EXPECT_EQ(recover->kind, FaultKind::kRecover);

  auto loss = FaultPlan::ParseSpec("link_loss:0.01@3000");
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss->kind, FaultKind::kLinkLoss);
  EXPECT_EQ(loss->loss_probability, 0.01);

  auto burst = FaultPlan::ParseSpec("link_burst_loss:0.005,0.3,0.5@3000");
  ASSERT_TRUE(burst.ok());
  EXPECT_EQ(burst->kind, FaultKind::kLinkBurstLoss);
  EXPECT_EQ(burst->ge_p_enter_bad, 0.005);
  EXPECT_EQ(burst->ge_p_exit_bad, 0.3);
  EXPECT_EQ(burst->ge_loss_bad, 0.5);

  auto jitter = FaultPlan::ParseSpec("link_jitter:20,0.1,5@3000");
  ASSERT_TRUE(jitter.ok());
  EXPECT_EQ(jitter->jitter, Milliseconds(20));
  EXPECT_EQ(jitter->reorder_probability, 0.1);
  EXPECT_EQ(jitter->reorder_delay, Milliseconds(5));

  auto derate = FaultPlan::ParseSpec("link_derate:2.0@3000");
  ASSERT_TRUE(derate.ok());
  EXPECT_EQ(derate->throughput_derating, 2.0);

  auto link_recover = FaultPlan::ParseSpec("link_recover@8000");
  ASSERT_TRUE(link_recover.ok());
  EXPECT_EQ(link_recover->kind, FaultKind::kLinkRecover);

  auto crash = FaultPlan::ParseSpec("client_crash:2@4000");
  ASSERT_TRUE(crash.ok());
  EXPECT_EQ(crash->kind, FaultKind::kClientCrash);
  EXPECT_EQ(crash->disk, 2) << "client index rides the disk field";

  auto drop = FaultPlan::ParseSpec("control_drop:0.2,0.1@3000");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop->kind, FaultKind::kControlDrop);
  EXPECT_EQ(drop->loss_probability, 0.2);
  EXPECT_EQ(drop->duplicate_probability, 0.1);

  auto control_recover = FaultPlan::ParseSpec("control_recover@8000");
  ASSERT_TRUE(control_recover.ok());
  EXPECT_EQ(control_recover->kind, FaultKind::kControlRecover);
}

TEST(ParseSpec, LegacyBareFormIsFailStop) {
  auto legacy = FaultPlan::ParseSpec("1@2000");
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->kind, FaultKind::kFailStop);
  EXPECT_EQ(legacy->disk, 1);
  EXPECT_EQ(legacy->at, Seconds(2));
  // The same entry point takes the full grammar.
  EXPECT_TRUE(FaultPlan::ParseSpec("slow_disk:0,2.0@500").ok());
}

TEST(ParseSpec, MalformedSpecsAreErrorsNotCrashes) {
  for (const char* bad : {
           "",                       // empty
           "fail_stop:1",            // no @time
           "bogus:1@2000",           // unknown kind
           "fail_stop@1000",         // missing disk argument
           "fail_stop:1,2@1000",     // too many arguments
           "link_loss:1.5@1000",     // probability out of range
           "link_derate:0.5@1000",   // derating below 1
           "control_drop@1000",      // missing the loss probability
           "transient:1,800,@1000",  // trailing comma
           "fail_stop:x@1000",       // non-numeric argument
       }) {
    auto parsed = FaultPlan::ParseSpec(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted \"" << bad << "\"";
    EXPECT_EQ(parsed.status().code(), crbase::StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Merge + late arming.

TEST(FaultPlanMerge, MergedPlansFireThroughOneInjector) {
  crsim::Engine engine;
  crnet::Link link(engine);
  FaultPlan a;
  a.LinkLoss(Milliseconds(10), 0.25);
  FaultPlan b;
  b.LinkDerate(Milliseconds(20), 3.0);
  a.Merge(b);
  ASSERT_EQ(a.events().size(), 2u);

  crfault::FaultInjector injector(engine, link, a);
  injector.Arm();
  engine.RunFor(Milliseconds(30));
  EXPECT_EQ(link.impairments().loss_probability, 0.25);
  EXPECT_EQ(link.impairments().bandwidth_derating, 3.0);
  EXPECT_EQ(injector.events_fired(), 2);
}

TEST(FaultInjector, ArmAfterEventTimeFiresImmediately) {
  crsim::Engine engine;
  crnet::Link link(engine);
  FaultPlan plan;
  plan.LinkLoss(Milliseconds(10), 0.5);
  crfault::FaultInjector injector(engine, link, plan);
  // The clock is already past the event's timestamp when Arm runs: the
  // event must fire at once, not be lost.
  engine.RunFor(Milliseconds(100));
  injector.Arm();
  engine.RunFor(Milliseconds(1));
  EXPECT_EQ(link.impairments().loss_probability, 0.5);
  EXPECT_EQ(injector.events_fired(), 1);
}

// ---------------------------------------------------------------------------
// The seeded schedule generator.

ChaosConfig TestConfig(std::uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.clients = 6;
  return config;
}

TEST(ChaosSchedule, SameSeedSamePlan) {
  const FaultPlan a = GenerateChaosSchedule(TestConfig(42));
  const FaultPlan b = GenerateChaosSchedule(TestConfig(42));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const FaultEvent& x = a.events()[i];
    const FaultEvent& y = b.events()[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.at, y.at) << "event " << i;
    EXPECT_EQ(x.disk, y.disk) << "event " << i;
    EXPECT_EQ(x.loss_probability, y.loss_probability) << "event " << i;
    EXPECT_EQ(x.throughput_derating, y.throughput_derating) << "event " << i;
  }
  // Different seeds diverge.
  const FaultPlan c = GenerateChaosSchedule(TestConfig(43));
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].kind != c.events()[i].kind ||
              a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, ConstraintsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosConfig config = TestConfig(seed);
    const FaultPlan plan = GenerateChaosSchedule(config);
    ASSERT_GE(plan.events().size(), 3u) << "seed " << seed << " generated a trivial plan";

    // Reconstruct per-disk fail-stop windows: each FailStop pairs with the
    // Recover appended right after it.
    struct Window {
      crbase::Time from = 0;
      crbase::Time to = 0;
    };
    std::vector<Window> failed;
    std::vector<int> crashed_clients;
    for (std::size_t i = 0; i < plan.events().size(); ++i) {
      const FaultEvent& event = plan.events()[i];
      EXPECT_GE(event.at, config.start) << "seed " << seed;
      EXPECT_LE(event.at, config.horizon + config.max_window) << "seed " << seed;
      if (event.kind == FaultKind::kFailStop) {
        ASSERT_LT(i + 1, plan.events().size());
        const FaultEvent& recover = plan.events()[i + 1];
        ASSERT_EQ(recover.kind, FaultKind::kRecover) << "seed " << seed;
        ASSERT_EQ(recover.disk, event.disk) << "seed " << seed;
        failed.push_back({event.at, recover.at});
      }
      if (event.kind == FaultKind::kClientCrash) {
        EXPECT_GE(event.disk, 0);
        EXPECT_LT(event.disk, config.clients);
        crashed_clients.push_back(event.disk);
      }
    }
    // Never an unrecoverable double fault: fail-stop windows are disjoint.
    for (std::size_t i = 0; i < failed.size(); ++i) {
      for (std::size_t j = i + 1; j < failed.size(); ++j) {
        EXPECT_TRUE(failed[i].to <= failed[j].from || failed[j].to <= failed[i].from)
            << "seed " << seed << ": overlapping fail-stop windows";
      }
    }
    // Client crashes are capped and hit distinct clients.
    EXPECT_LE(static_cast<int>(crashed_clients.size()), config.max_client_crashes);
    std::sort(crashed_clients.begin(), crashed_clients.end());
    EXPECT_EQ(std::adjacent_find(crashed_clients.begin(), crashed_clients.end()),
              crashed_clients.end())
        << "seed " << seed << ": a client crashed twice";
  }
}

TEST(ChaosSchedule, DoubleFaultOnlyWhenAllowed) {
  // Shed-testing mode may overlap disk windows; find a seed that does, and
  // confirm the same seed without the flag does not.
  bool found_overlap = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found_overlap; ++seed) {
    ChaosConfig config = TestConfig(seed);
    config.allow_double_fault = true;
    config.intensity = 3.0;
    const FaultPlan plan = GenerateChaosSchedule(config);
    std::vector<std::pair<crbase::Time, crbase::Time>> windows;
    for (std::size_t i = 0; i + 1 < plan.events().size(); ++i) {
      const FaultEvent& event = plan.events()[i];
      if ((event.kind == FaultKind::kFailStop || event.kind == FaultKind::kSlowDisk) &&
          plan.events()[i + 1].kind == FaultKind::kRecover) {
        windows.emplace_back(event.at, plan.events()[i + 1].at);
      }
    }
    for (std::size_t i = 0; i < windows.size() && !found_overlap; ++i) {
      for (std::size_t j = i + 1; j < windows.size(); ++j) {
        if (windows[i].second > windows[j].first && windows[j].second > windows[i].first) {
          found_overlap = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(found_overlap) << "allow_double_fault never produced an overlap";
}

// ---------------------------------------------------------------------------
// Hardened control plane.

struct ControlRig {
  cras::VolumeTestbed bed;
  crnet::Link forward;
  crnet::Link reverse;
  crnet::ControlService service;
  crnet::ControlClient client;

  ControlRig() : ControlRig(cras::VolumeTestbedOptions{}) {}

  explicit ControlRig(const cras::VolumeTestbedOptions& options)
      : bed(options),
        forward(bed.engine()),
        reverse(bed.engine()),
        service(bed.kernel, bed.cras_server),
        client(bed.engine(), service, &forward, &reverse,
               crnet::ControlClient::Options{.client_id = 1}) {
    bed.StartServers();
    service.Start();
  }

  crmedia::MediaFile Movie(crbase::Duration length) {
    return *crmedia::WriteMpeg1File(bed.fs, "movie", length);
  }

  cras::OpenParams ParamsFor(const crmedia::MediaFile& movie) {
    cras::OpenParams params;
    params.inode = movie.inode;
    params.index = movie.index;
    return params;
  }
};

TEST(ControlPlane, RetriesThroughALossyLink) {
  ControlRig rig;
  // Half the control packets vanish in each direction; capped-exponential
  // retry must still land every call.
  rig.forward.SetLoss(0.5);
  rig.reverse.SetLoss(0.5);
  const auto movie = rig.Movie(Seconds(8));

  cras::SessionId session = cras::kInvalidSession;
  bool closed = false;
  crsim::Task caller = rig.bed.kernel.Spawn(
      "caller", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        auto opened = co_await rig.client.Open(rig.ParamsFor(movie));
        CRAS_CHECK(opened.ok()) << opened.status().ToString();
        session = *opened;
        CRAS_CHECK((co_await rig.client.StartStream(
                        session, rig.bed.cras_server.SuggestedInitialDelay()))
                       .ok());
        co_await ctx.Sleep(Seconds(1));
        closed = (co_await rig.client.Close(session)).ok();
      });
  rig.bed.engine().RunFor(Seconds(8));

  EXPECT_NE(session, cras::kInvalidSession);
  EXPECT_TRUE(closed);
  EXPECT_EQ(rig.bed.cras_server.open_sessions(), 0u);
  EXPECT_EQ(rig.client.pending_calls(), 0u) << "no call left wedged";
  EXPECT_GT(rig.client.stats().retries, 0) << "the loss was real";
  EXPECT_EQ(rig.client.stats().calls_failed, 0);
}

TEST(ControlPlane, DuplicatedRequestsExecuteExactlyOnce) {
  ControlRig rig;
  // Every request is replayed by the wire; every replay must be answered
  // from the reply cache, not re-executed — a duplicated Open admits no
  // second stream.
  rig.forward.SetDuplication(1.0);
  const auto movie = rig.Movie(Seconds(8));

  cras::SessionId session = cras::kInvalidSession;
  crsim::Task caller = rig.bed.kernel.Spawn(
      "caller", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        auto opened = co_await rig.client.Open(rig.ParamsFor(movie));
        CRAS_CHECK(opened.ok());
        session = *opened;
      });
  rig.bed.engine().RunFor(Seconds(2));

  ASSERT_NE(session, cras::kInvalidSession);
  EXPECT_EQ(rig.bed.cras_server.open_sessions(), 1u) << "a replayed Open double-admitted";
  EXPECT_EQ(rig.service.stats().executed, 1);
  EXPECT_GT(rig.service.stats().duplicates_suppressed, 0);
  EXPECT_GT(rig.client.stats().duplicate_replies, 0);
}

TEST(ControlPlane, DuplicateCloseIsANoOp) {
  ControlRig rig;
  const auto movie = rig.Movie(Seconds(8));
  int closes_ok = 0;
  crsim::Task caller = rig.bed.kernel.Spawn(
      "caller", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        auto opened = co_await rig.client.Open(rig.ParamsFor(movie));
        CRAS_CHECK(opened.ok());
        // Two independent Close calls (distinct request ids — the second is
        // a client-level duplicate, not a wire replay). The second finds the
        // session gone and still reports success.
        closes_ok += (co_await rig.client.Close(*opened)).ok() ? 1 : 0;
        closes_ok += (co_await rig.client.Close(*opened)).ok() ? 1 : 0;
      });
  rig.bed.engine().RunFor(Seconds(2));

  EXPECT_EQ(closes_ok, 2);
  EXPECT_EQ(rig.client.stats().close_races, 1);
  EXPECT_EQ(rig.bed.cras_server.open_sessions(), 0u);
}

TEST(ControlPlane, BlackoutSurfacesDeadlineExceededNotAWedge) {
  ControlRig rig;
  rig.forward.SetLoss(1.0);  // total control blackout
  const auto movie = rig.Movie(Seconds(8));
  crbase::Status result = crbase::OkStatus();
  crsim::Task caller = rig.bed.kernel.Spawn(
      "caller", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        result = (co_await rig.client.Open(rig.ParamsFor(movie))).status();
      });
  rig.bed.engine().RunFor(Seconds(6));

  EXPECT_EQ(result.code(), crbase::StatusCode::kDeadlineExceeded) << result.ToString();
  EXPECT_EQ(rig.client.pending_calls(), 0u);
  EXPECT_EQ(rig.client.stats().timeouts, 1);
  EXPECT_EQ(rig.bed.cras_server.open_sessions(), 0u);
}

TEST(ControlPlane, CloseRacingTheReaperResolvesDeterministically) {
  cras::VolumeTestbedOptions options;
  options.cras.lease_period = Milliseconds(200);
  ControlRig rig(options);
  const auto movie = rig.Movie(Seconds(8));

  cras::SessionId session = cras::kInvalidSession;
  bool close_ok = false;
  crsim::Task caller = rig.bed.kernel.Spawn(
      "caller", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        auto opened = co_await rig.client.Open(rig.ParamsFor(movie));
        CRAS_CHECK(opened.ok());
        session = *opened;
        // Go silent long enough for the lease to lapse and the reaper to
        // collect the session, then Close it anyway.
        co_await ctx.Sleep(Seconds(2));
        close_ok = (co_await rig.client.Close(session)).ok();
      });
  rig.bed.engine().RunFor(Seconds(4));

  ASSERT_NE(session, cras::kInvalidSession);
  EXPECT_TRUE(rig.bed.cras_server.WasReaped(session));
  EXPECT_TRUE(close_ok) << "a close that lost to the reaper is still success";
  EXPECT_EQ(rig.client.stats().close_races, 1);
  EXPECT_EQ(rig.bed.cras_server.open_sessions(), 0u);
}

// ---------------------------------------------------------------------------
// The invariant auditor.

TEST(InvariantAuditor, CleanRunAuditsOk) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(6));
  cras::SessionId session = cras::kInvalidSession;
  bool closed = false;
  crsim::Task viewer = bed.kernel.Spawn(
      "viewer", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
        CRAS_CHECK((co_await bed.cras_server.StartStream(
                        session, bed.cras_server.SuggestedInitialDelay()))
                       .ok());
        co_await ctx.Sleep(Seconds(2));
        CRAS_CHECK((co_await bed.cras_server.Close(session)).ok());
        closed = true;
      });
  bed.engine().RunFor(Seconds(4));
  ASSERT_TRUE(closed);

  AuditInput input;
  input.hub = &bed.hub;
  input.server = &bed.cras_server;
  input.fates.push_back({session, /*closed=*/true, /*crashed=*/false});
  const AuditReport report = AuditRun(input);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.Summary(), "ok");
}

TEST(InvariantAuditor, WedgedSessionIsAViolation) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(6));
  cras::SessionId session = cras::kInvalidSession;
  crsim::Task viewer = bed.kernel.Spawn(
      "viewer", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
      });
  bed.engine().RunFor(Seconds(1));
  ASSERT_NE(session, cras::kInvalidSession);

  AuditInput input;
  input.hub = &bed.hub;
  input.server = &bed.cras_server;
  input.fates.push_back({session, /*closed=*/false, /*crashed=*/false});
  const AuditReport report = AuditRun(input);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().invariant, "wedged_session");
}

TEST(InvariantAuditor, DeliberateDoubleFaultIsCaughtAndDumped) {
  // Two members of a parity volume fail-stop with overlapping windows: the
  // exact envelope the generator refuses to produce. The auditor must flag
  // it and the flight recorder must dump.
  cras::VolumeTestbedOptions options;
  options.volume.disks = 4;
  options.volume.parity = true;
  cras::VolumeTestbed bed(options);
  bed.StartServers();

  std::vector<crmedia::MediaFile> files;
  files.reserve(3);  // players hold references; no reallocation allowed
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(5);
  for (int i = 0; i < 3; ++i) {
    files.push_back(*crmedia::WriteMpeg1File(bed.fs, "m" + std::to_string(i), Seconds(6)));
    stats.push_back(std::make_unique<cras::PlayerStats>());
    player_options.start_delay = Milliseconds(41) * i;
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, files.back(),
                                            player_options, stats.back().get()));
  }

  FaultPlan plan;
  plan.FailStop(Milliseconds(1500), 0)
      .FailStop(Milliseconds(2000), 1)  // overlaps: disk 0 is still down
      .Recover(Seconds(4), 0)
      .Recover(Milliseconds(4500), 1);
  crfault::FaultInjector injector(bed.engine(), bed.volume, plan);
  injector.AttachObs(&bed.hub);
  injector.Arm();
  bed.engine().RunFor(Seconds(8));
  ASSERT_EQ(injector.events_fired(), 4);

  AuditInput input;
  input.hub = &bed.hub;
  input.server = &bed.cras_server;
  input.parity = true;
  const AuditReport report = AuditRun(input);
  ASSERT_FALSE(report.ok());
  bool flagged = false;
  for (const Violation& violation : report.violations) {
    flagged |= violation.invariant == "unrecoverable_double_fault";
  }
  EXPECT_TRUE(flagged) << report.Summary();

  const std::string path = "chaos_test_double_fault_dump.json";
  ASSERT_TRUE(DumpIfViolated(bed.hub, report, path));
  std::ifstream dump(path);
  ASSERT_TRUE(dump.good());
  std::string contents((std::istreambuf_iterator<char>(dump)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("unrecoverable_double_fault"), std::string::npos);
  EXPECT_NE(contents.find("\"fault_injected\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(InvariantAuditor, RecoveryLatenciesComeFromResettleEvents) {
  // A fail-stop on a parity volume degrades the model and the controller
  // re-settles; the auditor reads that gap as the fault's recovery latency.
  cras::VolumeTestbedOptions options;
  options.volume.disks = 4;
  options.volume.parity = true;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(6));
  cras::PlayerStats stats;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(5);
  crsim::Task player =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, movie, player_options, &stats);

  FaultPlan plan;
  plan.FailStop(Seconds(2), 1).Recover(Seconds(4), 1);
  crfault::FaultInjector injector(bed.engine(), bed.volume, plan);
  injector.AttachObs(&bed.hub);
  injector.Arm();
  bed.engine().RunFor(Seconds(8));

  AuditInput input;
  input.hub = &bed.hub;
  input.server = &bed.cras_server;
  input.parity = true;
  const AuditReport report = AuditRun(input);
  // Both the fail-stop and the recover re-settle admission.
  ASSERT_EQ(report.recovery_latencies_ms.size(), 2u) << report.Summary();
  for (const double latency : report.recovery_latencies_ms) {
    EXPECT_GE(latency, 0.0);
    EXPECT_LT(latency, 2000.0);
  }
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = {10, 20, 30, 40};
  EXPECT_EQ(Percentile(values, 50), 20);
  EXPECT_EQ(Percentile(values, 95), 40);
  EXPECT_EQ(Percentile(values, 0), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
}

}  // namespace
}  // namespace crchaos
